"""Finite-difference checks of every stacked definition in ``repro.nn``.

Each layer and loss has one definition (``bank_forward`` / ``bank_*``); the
loop backend runs it at m = 1.  The equivalence matrix therefore compares a
kernel with itself and cannot tell whether its gradient is *right* — these
tests can: the autograd gradient of a random linear functional of the output
must match central differences, for the input and for every parameter, at
m = 1 (a lone replica) and m = 3 (a bank whose workers hold different
parameters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.mlp import MLP
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm1d,
    Conv2d,
    Dropout,
    Linear,
    MaxPool2d,
    Residual,
    Sequential,
    Tanh,
)
from repro.nn.losses import bank_cross_entropy, bank_mse_loss, log_softmax
from repro.nn.tensor import Tensor
from tests.test_tensor_autograd import numerical_grad

WORKERS = [1, 3]
ATOL = 1e-6


def stacked_state(layer, m: int, gen) -> dict:
    """Random per-worker parameters ``(m, *shape)`` plus stacked buffers."""
    state: dict = {
        name: Tensor(gen.normal(size=(m, *p.shape)), requires_grad=True)
        for name, p in layer.named_parameters()
    }
    for name, b in layer.named_buffers():
        state[name] = np.repeat(b[None], m, axis=0)
    return state


def assert_bank_gradients(layer, x_shape, m: int, before_forward=lambda: None):
    """Autograd vs. central differences for the input and every parameter."""
    gen = np.random.default_rng(0)
    state = stacked_state(layer, m, gen)
    x = Tensor(gen.normal(size=(m, *x_shape)), requires_grad=True)

    def forward() -> Tensor:
        before_forward()
        return layer.bank_forward(x, state)

    upstream = Tensor(gen.normal(size=forward().shape))

    def functional() -> Tensor:
        return (forward() * upstream).sum()

    functional().backward()
    leaves = {"input": x, **{k: v for k, v in state.items() if isinstance(v, Tensor)}}
    for name, leaf in leaves.items():
        numeric = numerical_grad(lambda _: functional().item(), leaf.data)
        np.testing.assert_allclose(leaf.grad, numeric, atol=ATOL, err_msg=f"{name} at m={m}")


@pytest.mark.parametrize("m", WORKERS)
class TestLayerGradients:
    def test_linear(self, m):
        assert_bank_gradients(Linear(5, 3, rng=0), (4, 5), m)

    def test_conv2d_padded_and_strided(self, m):
        conv = Conv2d(2, 3, kernel_size=3, stride=2, padding=1, rng=0)
        assert_bank_gradients(conv, (2, 2, 6, 6), m)

    def test_maxpool_overlapping(self, m):
        assert_bank_gradients(MaxPool2d(3, 2), (2, 2, 7, 7), m)

    def test_avgpool_overlapping(self, m):
        assert_bank_gradients(AvgPool2d(3, 2), (2, 2, 7, 7), m)

    def test_batchnorm_train_mode(self, m):
        bn = BatchNorm1d(4)
        assert bn.training
        assert_bank_gradients(bn, (6, 4), m)

    def test_residual(self, m):
        block = Residual(Sequential(Linear(4, 4, rng=0), Tanh()))
        assert_bank_gradients(block, (5, 4), m)

    def test_dropout_under_a_fixed_stream(self, m):
        drop = Dropout(0.4)

        def rewind():
            # The same m mask streams on every evaluation: a fixed mask.
            drop._bank_rngs = [np.random.default_rng(100 + i) for i in range(m)]

        assert_bank_gradients(drop, (6, 5), m, before_forward=rewind)


@pytest.mark.parametrize("m", WORKERS)
def test_affine_primitive(m):
    """The fused ``x @ W + b`` node: input, weight and broadcast bias."""
    gen = np.random.default_rng(5)
    x = Tensor(gen.normal(size=(m, 4, 5)), requires_grad=True)
    weight = Tensor(gen.normal(size=(m, 5, 3)), requires_grad=True)
    bias = Tensor(gen.normal(size=(m, 1, 3)), requires_grad=True)
    upstream = Tensor(gen.normal(size=(m, 4, 3)))

    def functional() -> Tensor:
        return (x.affine(weight, bias) * upstream).sum()

    functional().backward()
    for name, leaf in {"input": x, "weight": weight, "bias": bias}.items():
        numeric = numerical_grad(lambda _: functional().item(), leaf.data)
        np.testing.assert_allclose(leaf.grad, numeric, atol=ATOL, err_msg=f"{name} at m={m}")


@pytest.mark.parametrize("m", WORKERS)
class TestLossGradients:
    def _check(self, loss_of, pred_shape, m):
        gen = np.random.default_rng(1)
        pred = Tensor(gen.normal(size=(m, *pred_shape)), requires_grad=True)
        weights = gen.normal(size=m)  # per-worker losses enter with distinct weights

        def functional():
            return (loss_of(pred) * Tensor(weights)).sum()

        functional().backward()
        numeric = numerical_grad(lambda _: functional().item(), pred.data)
        np.testing.assert_allclose(pred.grad, numeric, atol=ATOL)

    def test_bank_cross_entropy(self, m):
        targets = np.random.default_rng(2).integers(0, 4, size=(m, 6))
        self._check(lambda logits: bank_cross_entropy(logits, targets), (6, 4), m)

    def test_bank_mse_loss(self, m):
        target = np.random.default_rng(3).normal(size=(m, 6, 2))
        self._check(lambda pred: bank_mse_loss(pred, target), (6, 2), m)


def composed_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """``bank_cross_entropy`` as the chain of public ops it was before it became one node."""
    m, batch, _ = logits.shape
    picked = log_softmax(logits, axis=-1)[np.arange(m)[:, None], np.arange(batch)[None, :], targets]
    return -picked.mean(axis=1)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(1, 1, 2), (6, 16, 10), (3, 7, 5)])
def test_fused_cross_entropy_is_the_composed_chain_to_the_byte(shape, dtype):
    m, batch, classes = shape
    gen = np.random.default_rng(6)
    logits = (3.0 * gen.normal(size=shape)).astype(dtype)
    targets = gen.integers(0, classes, size=(m, batch))
    targets[:, batch // 2:] = targets[:, :1]  # duplicate targets within a worker
    upstream = gen.normal(size=m)
    upstream[:2] = (-0.0, 0.0)[:m]  # signed zeros reach the pick as +0.0 and -0.0
    results = []
    for loss_fn in (bank_cross_entropy, composed_cross_entropy):
        leaf = Tensor(logits.copy(), requires_grad=True)
        loss = loss_fn(leaf, targets)
        loss.backward(upstream)
        results.append((loss.dtype, loss.data.tobytes(), leaf.grad.dtype, leaf.grad.tobytes()))
    assert results[0] == results[1]


def test_inherited_loss_differentiates_the_replicas_own_tensors():
    """``Module.loss`` (the m = 1 view) lands exact gradients on the module's parameters."""
    gen = np.random.default_rng(4)
    model = MLP(5, 3, hidden_sizes=(4,), batch_norm=True, rng=0)
    X, y = gen.normal(size=(7, 5)), gen.integers(0, 3, size=7)
    model.loss(X, y).backward()
    for name, p in model.named_parameters():
        numeric = numerical_grad(lambda _: model.loss(X, y).item(), p.data)
        np.testing.assert_allclose(p.grad, numeric, atol=ATOL, err_msg=name)
