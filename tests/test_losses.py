"""Tests for loss functions and metrics (repro.nn.losses)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.losses import accuracy, cross_entropy, log_softmax, mse_loss, softmax
from repro.nn.tensor import Tensor


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(6, 4)))
        probs = softmax(logits).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(probs > 0)

    def test_shift_invariance(self):
        logits = np.random.default_rng(1).normal(size=(3, 5))
        p1 = softmax(Tensor(logits)).data
        p2 = softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_log_softmax_consistency(self):
        logits = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
        np.testing.assert_allclose(
            log_softmax(logits).data, np.log(softmax(logits).data), atol=1e-10
        )

    def test_numerical_stability_extreme_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0, -1000.0]]))
        out = log_softmax(logits).data
        assert np.all(np.isfinite(out))


class TestCrossEntropy:
    def test_matches_manual_computation(self):
        gen = np.random.default_rng(3)
        logits = gen.normal(size=(8, 5))
        targets = gen.integers(0, 5, size=8)
        loss = cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(8), targets].mean()
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((4, 3), -20.0)
        targets = np.array([0, 1, 2, 0])
        logits[np.arange(4), targets] = 20.0
        assert cross_entropy(Tensor(logits), targets).item() < 1e-8

    def test_uniform_logits_loss_is_log_c(self):
        loss = cross_entropy(Tensor(np.zeros((10, 7))), np.zeros(10, dtype=int)).item()
        assert loss == pytest.approx(np.log(7), abs=1e-10)

    def test_gradient_is_probs_minus_onehot(self):
        gen = np.random.default_rng(4)
        logits_data = gen.normal(size=(6, 4))
        targets = gen.integers(0, 4, size=6)
        logits = Tensor(logits_data, requires_grad=True)
        cross_entropy(logits, targets).backward()
        probs = np.exp(logits_data - logits_data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        onehot = np.eye(4)[targets]
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 6, atol=1e-8)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros(3)), np.zeros(3, dtype=int))


class TestMSE:
    def test_value(self):
        pred = Tensor(np.array([[1.0], [2.0]]))
        assert mse_loss(pred, np.array([[0.0], [4.0]])).item() == pytest.approx(2.5)

    def test_zero_at_target(self):
        pred = Tensor(np.ones((3, 2)))
        assert mse_loss(pred, np.ones((3, 2))).item() == 0.0

    def test_gradient(self):
        pred = Tensor(np.array([3.0, 5.0]), requires_grad=True)
        mse_loss(pred, np.array([1.0, 1.0])).backward()
        np.testing.assert_allclose(pred.grad, [2.0, 4.0])


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(4) * 10
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_partial(self):
        logits = np.array([[2.0, 1.0], [0.0, 1.0], [3.0, 0.0], [0.0, 2.0]])
        assert accuracy(logits, np.array([0, 0, 0, 0])) == 0.5

    def test_accepts_tensor(self):
        logits = Tensor(np.eye(3))
        assert accuracy(logits, np.arange(3)) == 1.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(4), np.zeros(4, dtype=int))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    c=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_cross_entropy_nonnegative_and_bounded_below_by_entropy(n, c, seed):
    """Cross-entropy of any logits is >= 0 and uniform logits give exactly log C."""
    gen = np.random.default_rng(seed)
    logits = gen.normal(size=(n, c))
    targets = gen.integers(0, c, size=n)
    loss = cross_entropy(Tensor(logits), targets).item()
    assert loss >= 0.0
    uniform = cross_entropy(Tensor(np.zeros((n, c))), targets).item()
    assert uniform == pytest.approx(np.log(c), abs=1e-9)
