"""Loss functions and classification metrics."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, _out

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "mse_loss",
    "accuracy",
    "bank_cross_entropy",
    "bank_mse_loss",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer class ``targets`` given raw ``(B, C)``
    ``logits``: :func:`bank_cross_entropy` on a bank of one worker."""
    stacked = bank_cross_entropy(logits.reshape(1, *logits.shape), np.asarray(targets)[None])
    return stacked.reshape(())


def bank_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-worker mean cross-entropy of stacked ``(m, B, C)`` logits.

    Returns an ``(m,)`` tensor whose i-th entry equals
    ``cross_entropy(logits[i], targets[i])``; summing it and calling
    ``backward()`` therefore deposits each worker's own batch gradient into
    its slice of the parameter bank (the cross-worker terms are identically
    zero because worker i's loss depends only on slice i).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 3:
        raise ValueError("bank_cross_entropy expects (m, B, C) logits")
    m, batch, _ = logits.shape
    if targets.shape != (m, batch):
        raise ValueError(
            f"targets shape {targets.shape} does not match stacked batch ({m}, {batch})"
        )
    # One node for max-shift, exp, row sum, log, pick, mean and negate: the
    # NumPy calls of ``-log_softmax(logits)[picked].mean(axis=1)`` in its order.
    x = logits.data
    shifted = np.subtract(x, x.max(axis=-1, keepdims=True), out=_out(x))
    exp = np.exp(shifted, out=_out(shifted))
    row_sum = exp.sum(axis=-1, keepdims=True)
    log_probs = np.subtract(shifted, np.log(row_sum), out=_out(shifted))
    key = (np.arange(m)[:, None], np.arange(batch)[None, :], targets)
    scale = np.asarray(1.0 / batch)
    out_data = np.negative(log_probs[key].sum(axis=1) * scale)

    def backward(g):
        picked = (-g * scale).reshape(m, 1)
        full = np.zeros(x.shape, x.dtype)
        # ``np.add.at``'s result on unique (worker, row, target) indices.
        full[key] += picked
        to_exp = (-full).sum(axis=(2,), keepdims=True) / row_sum * exp
        return (np.add(full, to_exp, out=full),)

    return logits._make(out_data, (logits,), backward)


def bank_mse_loss(pred: Tensor, target) -> Tensor:
    """Per-worker mean squared error of stacked ``(m, B, ...)`` predictions."""
    if not isinstance(target, Tensor):
        target = Tensor(target)
    if pred.ndim < 2:
        raise ValueError("bank_mse_loss expects (m, B, ...) predictions")
    diff = pred - target
    return (diff * diff).mean(axis=tuple(range(1, diff.ndim)))


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error ``mean((pred - target)^2)``: :func:`bank_mse_loss`
    on a bank of one worker."""
    if not isinstance(target, Tensor):
        target = Tensor(target)
    stacked = bank_mse_loss(pred.reshape(1, *pred.shape), target.reshape(1, *target.shape))
    return stacked.reshape(())


def accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if scores.ndim != 2:
        raise ValueError("accuracy expects (N, C) scores")
    preds = scores.argmax(axis=1)
    return float((preds == targets).mean())
