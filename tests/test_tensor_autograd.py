"""Tests for the reverse-mode autograd engine (repro.nn.tensor).

The central check is gradient correctness against central finite differences
for every differentiable op, plus broadcasting, graph reuse, and the
``no_grad`` context.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, no_grad, is_grad_enabled


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(x)
        flat[i] = orig - eps
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_gradient(op, shape, rng, positive_only: bool = False, atol: float = 1e-5):
    """Compare autograd and numerical gradients for a scalar-reduced op."""
    x_data = rng.normal(size=shape)
    if positive_only:
        x_data = np.abs(x_data) + 0.5

    def scalar_fn(arr):
        return float(op(Tensor(arr)).sum().data)

    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x).sum()
    out.backward()
    num = numerical_grad(scalar_fn, x_data.copy())
    np.testing.assert_allclose(x.grad, num, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_backward(self, rng):
        check_gradient(lambda t: t + 3.0, (4, 3), rng)

    def test_sub_backward(self, rng):
        check_gradient(lambda t: 5.0 - t, (4, 3), rng)

    def test_mul_backward(self, rng):
        check_gradient(lambda t: t * t, (5,), rng)

    def test_div_backward(self, rng):
        check_gradient(lambda t: 1.0 / t, (4,), rng, positive_only=True)

    def test_pow_backward(self, rng):
        check_gradient(lambda t: t**3, (6,), rng)

    def test_neg_backward(self, rng):
        check_gradient(lambda t: -t, (3, 2), rng)

    def test_exp_backward(self, rng):
        check_gradient(lambda t: t.exp(), (4,), rng)

    def test_log_backward(self, rng):
        check_gradient(lambda t: t.log(), (4,), rng, positive_only=True)

    def test_sqrt_backward(self, rng):
        check_gradient(lambda t: t.sqrt(), (4,), rng, positive_only=True)

    def test_tanh_backward(self, rng):
        check_gradient(lambda t: t.tanh(), (5,), rng)

    def test_sigmoid_backward(self, rng):
        check_gradient(lambda t: t.sigmoid(), (5,), rng)

    def test_relu_backward(self, rng):
        x = Tensor(np.array([-2.0, -0.5, 0.5, 3.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_never_returns_negative_zero(self, dtype):
        # ``x * (x > 0)`` gave -0.0 for every negative input: visible through
        # signbit, 1 / x and printed tables.
        x = Tensor(np.array([-3.0, -1e-30, -0.0, 0.0, 2.0], dtype=dtype), requires_grad=True)
        out = x.relu()
        assert out.dtype == dtype
        assert not np.signbit(out.data).any()
        np.testing.assert_array_equal(out.data, np.array([0, 0, 0, 0, 2], dtype=dtype))
        out.sum().backward()
        # The mask is x > 0: the gradient at exactly (+-)0 stays 0.
        np.testing.assert_array_equal(x.grad, np.array([0, 0, 0, 0, 1], dtype=dtype))

    def test_relu_backward_matches_numeric_away_from_the_kink(self, rng):
        check_gradient(lambda t: t.relu() * t, (6,), rng)

    def test_clip_backward(self, rng):
        x = Tensor(np.array([-2.0, 0.0, 0.5, 3.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0, 0.0])


class TestMatmulAndShape:
    def test_matmul_backward(self, rng):
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()

        num_a = numerical_grad(lambda arr: float((arr @ b_data).sum()), a_data.copy())
        num_b = numerical_grad(lambda arr: float((a_data @ arr).sum()), b_data.copy())
        np.testing.assert_allclose(a.grad, num_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, num_b, atol=1e-5)

    def test_matmul_values(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_transpose_backward(self, rng):
        check_gradient(lambda t: t.T * 2.0, (3, 5), rng)

    def test_reshape_backward(self, rng):
        check_gradient(lambda t: t.reshape(6) * t.reshape(6), (2, 3), rng)

    def test_reshape_minus_one(self):
        t = Tensor(np.arange(12.0))
        assert t.reshape(3, -1).shape == (3, 4)

    def test_getitem_backward(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        x[1:4].sum().backward()
        expected = np.zeros((5, 3))
        expected[1:4] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestReductions:
    def test_sum_all(self, rng):
        check_gradient(lambda t: t * 1.0, (4, 5), rng)

    def test_sum_axis_keepdims(self, rng):
        x_data = rng.normal(size=(3, 4))
        x = Tensor(x_data, requires_grad=True)
        (x.sum(axis=0, keepdims=True) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 4), 2.0))

    def test_mean_matches_manual(self, rng):
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((6, 2), 1.0 / 12))

    def test_mean_axis(self, rng):
        x = Tensor(rng.normal(size=(4, 5)))
        np.testing.assert_allclose(x.mean(axis=1).data, x.data.mean(axis=1))

    def test_max_all(self):
        x = Tensor(np.array([1.0, 7.0, 3.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_axis_values(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(x.max(axis=1).data, x.data.max(axis=1))


class TestBroadcasting:
    def test_broadcast_add_bias(self, rng):
        x_data = rng.normal(size=(4, 3))
        b_data = rng.normal(size=(3,))
        x = Tensor(x_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((4, 3)))
        np.testing.assert_allclose(b.grad, np.full(3, 4.0))

    def test_broadcast_mul_column(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        (x * c).sum().backward()
        np.testing.assert_allclose(c.grad, x.data.sum(axis=1, keepdims=True))

    def test_scalar_broadcast(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3.0 + 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 2), 3.0))


class TestGraphBehaviour:
    def test_reused_node_accumulates(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = x * 2.0
        z = (y + y * 3.0).sum()  # dz/dx = 2 + 6 = 8
        z.backward()
        np.testing.assert_allclose(x.grad, np.full(3, 8.0))

    def test_leaf_accumulates_over_multiple_backwards(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(2, 4.0))

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_on_non_scalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_without_requires_grad_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.sum().backward()

    def test_detach_breaks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad

    def test_no_grad_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
            assert not y.requires_grad
        assert is_grad_enabled()

    def test_copy_preserves_flags(self):
        x = Tensor(np.ones(3), requires_grad=True, name="w")
        c = x.copy()
        assert c.requires_grad and c.name == "w"
        c.data[0] = 5.0
        assert x.data[0] == 1.0


class TestDtypeAndConstruction:
    def test_int_input_promoted_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype in (np.float32, np.float64)

    def test_tensor_of_tensor(self):
        t = Tensor(Tensor([1.0, 2.0]))
        np.testing.assert_allclose(t.data, [1.0, 2.0])

    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_of_any_size_one_tensor(self, shape):
        # float(ndarray) raises TypeError on NumPy >= 2.x unless the array is 0-d.
        value = Tensor(np.full(shape, 3.5)).item()
        assert type(value) is float and value == 3.5

    def test_item_of_a_larger_tensor_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(2)).item()

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 2)))
        assert len(t) == 4 and t.size == 8 and t.ndim == 2


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_linear_gradient_matches_numeric(rows, cols, seed):
    """d/dx sum(x @ w) must equal broadcasted row-sums of w for random shapes."""
    gen = np.random.default_rng(seed)
    x = Tensor(gen.normal(size=(rows, cols)), requires_grad=True)
    w = gen.normal(size=(cols, 3))
    (x @ Tensor(w)).sum().backward()
    expected = np.tile(w.sum(axis=1), (rows, 1))
    np.testing.assert_allclose(x.grad, expected, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_sum_of_parts_equals_whole(seed):
    """Gradient of a sum decomposed as two slices equals the all-ones gradient."""
    gen = np.random.default_rng(seed)
    data = gen.normal(size=(6, 3))
    x = Tensor(data, requires_grad=True)
    (x[:3].sum() + x[3:].sum()).backward()
    np.testing.assert_allclose(x.grad, np.ones((6, 3)))
