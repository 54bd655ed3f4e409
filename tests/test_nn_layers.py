"""Tests for the layer library (repro.nn.layers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Residual,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.tensor import Tensor


class TestModuleBasics:
    def test_parameters_discovered_recursively(self):
        net = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        names = [n for n, _ in net.named_parameters()]
        assert len(names) == 4  # two weights + two biases
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_flat_parameters_roundtrip(self):
        net = Sequential(Linear(3, 5, rng=0), Tanh(), Linear(5, 2, rng=1))
        flat = net.get_flat_parameters()
        assert flat.shape == (net.num_parameters(),)
        perturbed = flat + 1.0
        net.set_flat_parameters(perturbed)
        np.testing.assert_allclose(net.get_flat_parameters(), perturbed)

    def test_set_flat_parameters_wrong_size_raises(self):
        net = Linear(3, 2, rng=0)
        with pytest.raises(ValueError):
            net.set_flat_parameters(np.zeros(5))

    def test_flat_gradients_zero_when_unset(self):
        net = Linear(3, 2, rng=0)
        grads = net.get_flat_gradients()
        np.testing.assert_allclose(grads, np.zeros(net.num_parameters()))

    def test_state_dict_roundtrip(self):
        a = Linear(4, 3, rng=0)
        b = Linear(4, 3, rng=99)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_state_dict_mismatch_raises(self):
        a = Linear(4, 3, rng=0)
        b = Linear(5, 3, rng=0)
        with pytest.raises((KeyError, ValueError)):
            b.load_state_dict(a.state_dict())

    def test_train_eval_propagates(self):
        net = Sequential(Dropout(0.5, rng=0), Linear(3, 2, rng=0))
        net.eval()
        assert not net.training and not net[0].training
        net.train()
        assert net.training and net[0].training

    def test_zero_grad_clears_all(self):
        net = Linear(3, 2, rng=0)
        out = net(Tensor(np.ones((2, 3)))).sum()
        out.backward()
        assert net.weight.grad is not None
        net.zero_grad()
        assert net.weight.grad is None


class TestBankOfOneView:
    """``forward`` / ``loss`` run ``bank_*`` on a cached one-worker view of the module."""

    def _bn_mlp(self):
        from repro.models.mlp import MLP

        return MLP(5, 3, hidden_sizes=(4,), batch_norm=True, rng=0)

    def test_view_is_built_once_and_aliases_the_module(self):
        model = self._bn_mlp()
        view = model._bank_of_one()
        assert model._bank_of_one() is view
        for name, p in model.named_parameters():
            assert view[name].shape == (1, *p.shape)
            assert np.shares_memory(view[name].data, p.data)
        for name, b in model.named_buffers():
            assert np.shares_memory(view[name], b)

    def test_cached_view_is_found_without_walking_the_module_tree(self, monkeypatch):
        model = self._bn_mlp()
        view = model._bank_of_one()

        def walk(*args, **kwargs):
            raise AssertionError("the cache check walked the module tree")

        for name in ("parameters", "named_parameters", "buffers", "named_buffers"):
            monkeypatch.setattr(Module, name, walk)
        model.training = False  # a plain attribute rebinds nothing
        assert model._bank_of_one() is view

    def test_view_first_built_under_no_grad_still_trains(self):
        from repro.nn.tensor import no_grad

        model = self._bn_mlp()
        X, y = np.random.default_rng(0).normal(size=(6, 5)), np.arange(6) % 3
        with no_grad():
            assert not model.loss(X, y).requires_grad
        model.loss(X, y).backward()
        assert all(p.grad is not None and np.any(p.grad) for p in model.parameters())

    def test_train_mode_batchnorm_writes_running_stats_through(self):
        model = self._bn_mlp()
        before = model.net.layer1.running_mean.copy()
        model(np.random.default_rng(1).normal(size=(8, 5)) + 3.0)
        assert not np.array_equal(model.net.layer1.running_mean, before)

    def test_rebound_buffer_and_parameter_are_seen(self):
        model = self._bn_mlp().eval()
        X = np.random.default_rng(2).normal(size=(4, 5))
        first = model(X).data
        model.set_buffer("net.layer1.running_mean", np.full(4, 2.0))
        shifted = model(X).data
        assert not np.array_equal(shifted, first)
        fresh = self._bn_mlp().eval()  # never called before: no cached view
        fresh.set_buffer("net.layer1.running_mean", np.full(4, 2.0))
        np.testing.assert_array_equal(shifted, fresh(X).data)

        lin = Linear(3, 2, rng=0)
        lin(np.ones((1, 3)))
        lin.weight = Tensor(np.zeros((3, 2)), requires_grad=True)
        np.testing.assert_array_equal(lin(np.ones((1, 3))).data, lin.bias.data[None])

    def test_pickled_and_deep_copied_modules_view_their_own_arrays(self):
        import copy
        import pickle

        model = self._bn_mlp().eval()
        X = np.random.default_rng(3).normal(size=(4, 5))
        original = model(X).data.copy()
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            clone.set_flat_parameters(np.zeros(clone.num_parameters()))
            np.testing.assert_array_equal(clone(X).data, np.zeros((4, 3)))
            np.testing.assert_array_equal(model(X).data, original)


class TestLinear:
    def test_forward_shape_and_value(self):
        layer = Linear(4, 3, rng=0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        out = layer(Tensor(x))
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out.data, x @ layer.weight.data + layer.bias.data)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        assert layer.num_parameters() == 12

    def test_gradients_flow_to_both_params(self):
        layer = Linear(4, 3, rng=0)
        layer(Tensor(np.ones((2, 4)))).sum().backward()
        assert layer.weight.grad is not None and layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, np.full(3, 2.0))

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 3)


class TestActivationsAndDropout:
    def test_relu_layer(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 2.0])

    def test_sigmoid_range(self):
        out = Sigmoid()(Tensor(np.linspace(-5, 5, 11)))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_flatten(self):
        out = Flatten()(Tensor(np.zeros((2, 3, 4))))
        assert out.shape == (2, 12)

    def test_dropout_eval_is_identity(self):
        layer = Dropout(0.8, rng=0)
        layer.eval()
        x = np.random.default_rng(1).normal(size=(10, 10))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_dropout_train_scales_survivors(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((2000,))
        out = layer(Tensor(x)).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted dropout scaling
        assert 0.3 < (out > 0).mean() < 0.7

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConv2d:
    def test_output_shape_with_padding(self):
        conv = Conv2d(3, 8, kernel_size=3, padding=1, rng=0)
        out = conv(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 8, 8)

    def test_output_shape_with_stride(self):
        conv = Conv2d(1, 4, kernel_size=3, stride=2, rng=0)
        out = conv(Tensor(np.zeros((1, 1, 9, 9))))
        assert out.shape == (1, 4, 4, 4)

    def test_matches_naive_convolution(self):
        gen = np.random.default_rng(3)
        conv = Conv2d(2, 3, kernel_size=3, rng=0)
        x = gen.normal(size=(1, 2, 5, 5))
        out = conv(Tensor(x)).data
        # Naive direct convolution for comparison.
        w, b = conv.weight.data, conv.bias.data
        expected = np.zeros((1, 3, 3, 3))
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    patch = x[0, :, i : i + 3, j : j + 3]
                    expected[0, oc, i, j] = np.sum(patch * w[oc]) + b[oc]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_gradient_matches_numeric(self):
        gen = np.random.default_rng(5)
        conv = Conv2d(1, 2, kernel_size=2, rng=0)
        x_data = gen.normal(size=(1, 1, 4, 4))

        x = Tensor(x_data.copy(), requires_grad=True)
        conv(x).sum().backward()

        eps = 1e-6
        num = np.zeros_like(x_data)
        for idx in np.ndindex(x_data.shape):
            xp = x_data.copy()
            xp[idx] += eps
            xm = x_data.copy()
            xm[idx] -= eps
            fp = conv(Tensor(xp)).sum().item()
            fm = conv(Tensor(xm)).sum().item()
            num[idx] = (fp - fm) / (2 * eps)
        np.testing.assert_allclose(x.grad, num, atol=1e-5)
        assert conv.weight.grad is not None and conv.bias.grad is not None

    def test_rejects_non_nchw(self):
        conv = Conv2d(1, 2, kernel_size=2, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((4, 4))))

    def test_names_a_kernel_larger_than_its_padded_input(self):
        with pytest.raises(ValueError, match="kernel 5x5 exceeds its 2x3 input padded by 1"):
            Conv2d(1, 2, kernel_size=5, padding=1, rng=0)(Tensor(np.zeros((1, 1, 2, 3))))
        # Exactly filling the padded input is one output position.
        out = Conv2d(1, 2, kernel_size=4, padding=1, rng=0)(Tensor(np.zeros((1, 1, 2, 2))))
        assert out.shape == (1, 2, 1, 1)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(Tensor(x))
        np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_gradient_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        MaxPool2d(2)(x).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_avgpool_values_and_gradient(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        out = AvgPool2d(2)(x)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    @pytest.mark.parametrize(("k", "s"), [(2, 2), (3, 2), (3, 1), (2, 3)])
    def test_matches_naive_pooling(self, pool_cls, k, s):
        # Naive window loops, forward and backward; stride < kernel overlaps
        # windows, stride > kernel skips input, 7 is not a multiple of either.
        gen = np.random.default_rng(11)
        x_data = gen.normal(size=(2, 3, 7, 7))
        out_hw = (7 - k) // s + 1
        upstream = gen.normal(size=(2, 3, out_hw, out_hw))
        expected = np.zeros_like(upstream)
        expected_dx = np.zeros_like(x_data)
        for idx in np.ndindex(upstream.shape):
            n, c, i, j = idx
            window = x_data[n, c, i * s : i * s + k, j * s : j * s + k]
            if pool_cls is MaxPool2d:
                expected[idx] = window.max()
                di, dj = np.unravel_index(window.argmax(), window.shape)
                expected_dx[n, c, i * s + di, j * s + dj] += upstream[idx]
            else:
                expected[idx] = window.sum() / (k * k)
                expected_dx[n, c, i * s : i * s + k, j * s : j * s + k] += upstream[idx] / (k * k)

        x = Tensor(x_data.copy(), requires_grad=True)
        out = pool_cls(k, s)(x)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        (out * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(x.grad, expected_dx, atol=1e-12)


    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    @pytest.mark.parametrize("stride", [0, -1])
    def test_refuses_a_stride_below_one(self, pool_cls, stride):
        # A negative stride read the window through as_strided from memory
        # outside the input; zero silently became the kernel size.
        with pytest.raises(ValueError, match=f"pooling stride must be >= 1, got {stride}"):
            pool_cls(3, stride=stride)

    @pytest.mark.parametrize("pool_cls", [MaxPool2d, AvgPool2d])
    def test_refuses_a_window_larger_than_its_input(self, pool_cls):
        x = Tensor(np.arange(6.0).reshape(1, 1, 2, 3))
        with pytest.raises(ValueError, match=f"{pool_cls.__name__} window 3x3 exceeds its 2x3 input"):
            pool_cls(3)(x)
        assert pool_cls(2, stride=5)(x).shape == (1, 1, 1, 1)  # one window fits


class TestBatchNormAndResidual:
    def test_batchnorm_normalizes_in_train_mode(self):
        bn = BatchNorm1d(4)
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(64, 4))
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(4), atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), np.ones(4), atol=1e-2)

    def test_batchnorm_eval_uses_running_stats(self):
        bn = BatchNorm1d(2, momentum=1.0)
        x = np.random.default_rng(1).normal(loc=2.0, size=(32, 2))
        bn(Tensor(x))  # one training pass sets running stats
        bn.eval()
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(2), atol=0.1)

    def test_batchnorm_rejects_3d(self):
        with pytest.raises(ValueError):
            BatchNorm1d(4)(Tensor(np.zeros((2, 4, 4))))

    def test_residual_adds_identity(self):
        inner = Linear(4, 4, rng=0)
        inner.weight.data[...] = 0.0
        inner.bias.data[...] = 0.0
        res = Residual(inner)
        x = np.random.default_rng(0).normal(size=(3, 4))
        np.testing.assert_allclose(res(Tensor(x)).data, x)

    def test_residual_registers_inner_params(self):
        res = Residual(Linear(4, 4, rng=0))
        assert res.num_parameters() == 20


class TestSequential:
    def test_len_and_indexing(self):
        net = Sequential(Linear(2, 3, rng=0), ReLU())
        assert len(net) == 2
        assert isinstance(net[1], ReLU)

    def test_callable_with_raw_numpy(self):
        net = Sequential(Linear(2, 2, rng=0))
        out = net(np.ones((4, 2)))
        assert isinstance(out, Tensor) and out.shape == (4, 2)
