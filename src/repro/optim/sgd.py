"""Stochastic gradient descent with optional momentum and weight decay.

The textbook local update of eq. 2, one parameter at a time: the public
single-model optimizer, and the reference the execution backends' fused
:class:`~repro.optim.bank_sgd.BankSGD` step is compared against byte for
byte (``test_fused_step_equals_per_parameter_sgd``) — no backend steps with
it.  Under block momentum the local momentum buffers are cleared at every
averaging step (``reset_momentum``), as described in Section 5.3.1 and done
by CNTK's block-momentum implementation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.utils.domains import Interval

__all__ = ["SGD"]

#: A momentum factor's range: the local heavy-ball one and block momentum's global β.
MOMENTUM = Interval(0, 1, hi_open=True)


def require_finite(name: str, value: float, *, zero_ok: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and positive (non-negative with ``zero_ok``).

    A bare ``value <= 0`` check lets NaN through, which fails every
    comparison, and ∞ as well.
    """
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        raise ValueError(f"{name} must be finite and {'non-negative' if zero_ok else 'positive'}, got {value}")


class SGD:
    """Mini-batch SGD: ``x ← x - η (g + weight_decay · x)`` with optional momentum.

    Parameters
    ----------
    params:
        Iterable of trainable :class:`Tensor` parameters (or a :class:`Module`).
    lr:
        Learning rate η.
    momentum:
        Classical (heavy-ball) momentum factor in [0, 1).
    weight_decay:
        L2 penalty coefficient added to every gradient.
    """

    def __init__(
        self,
        params,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        if isinstance(params, Module):
            params = list(params.parameters())
        else:
            params = list(params)
        if not params:
            raise ValueError("optimizer received no parameters")
        require_finite("learning rate", lr)
        MOMENTUM("momentum", momentum)
        require_finite("weight_decay", weight_decay, zero_ok=True)

        self.params: list[Tensor] = params
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: list[np.ndarray | None] = [None] * len(self.params)
        self.n_steps = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update using the gradients currently stored on the parameters."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                self._velocity[i] = self.momentum * self._velocity[i] + grad
                grad = self._velocity[i]
            p.data -= self.lr * grad
        self.n_steps += 1

    def set_lr(self, lr: float) -> None:
        """Change the learning rate (used by LR schedules and AdaComm coupling)."""
        require_finite("learning rate", lr)
        self.lr = float(lr)

    def reset_momentum(self) -> None:
        """Clear the momentum buffers.

        The block-momentum scheme restarts local momentum at the beginning of
        every local-update period (Section 5.3.1).
        """
        self._velocity = [None] * len(self.params)
