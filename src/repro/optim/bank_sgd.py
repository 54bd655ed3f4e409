"""SGD over a stacked parameter bank: one update step for all m workers.

``BankSGD`` applies exactly the local update rule of :class:`repro.optim.sgd.SGD`
(eq. 2 of the paper — momentum, weight decay) to parameters stacked
along a leading worker axis.  Because the update is elementwise, one NumPy op
over the bank's ``(m, P)`` slab updates every parameter of every replica at
once, and each worker slice follows the same trajectory it would under m
independent ``SGD`` instances.  ``reset_momentum`` clears the velocity slab at
averaging steps, as block momentum requires (Section 5.3.1).

The optimizer touches the bank's *parameters* only: stacked model buffers
(batch-norm running stats) are forward-pass state, updated in place by
``bank_forward`` and deliberately left alone both here and by the averaging
collective — each worker's statistics stay local.
"""

from __future__ import annotations

import numpy as np

from repro.nn.bank import ParameterBank
from repro.obs.emit import span
from repro.optim.sgd import MOMENTUM, require_finite

__all__ = ["BankSGD"]


class BankSGD:
    """Mini-batch SGD applied to all worker slices of a :class:`ParameterBank`.

    Parameters mirror :class:`repro.optim.sgd.SGD`; the only difference is
    that the "parameters" are the bank's stacked tensors and one ``step()``
    advances every worker.
    """

    def __init__(
        self,
        bank: ParameterBank,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        require_finite("learning rate", lr)
        MOMENTUM("momentum", momentum)
        require_finite("weight_decay", weight_decay, zero_ok=True)

        self.bank = bank
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        # Velocity and update scratch are preallocated slabs in the bank's
        # layout, so every step — including the first — takes the same fused
        # in-place code path.
        self._velocity = np.zeros_like(bank.slab) if momentum else None
        self._update = np.empty_like(bank.slab)
        self.n_steps = 0

    def zero_grad(self) -> None:
        self.bank.zero_grad()

    def step(self) -> None:
        """Apply one update to every worker slice from the gradient slab.

        One fused pass, without temporaries, over the slab columns that
        received a gradient — usually all; a parameter whose ``.grad`` is
        ``None`` is skipped entirely (no weight or momentum decay), as under
        per-worker ``SGD``.  Every reordering below (``wd·p + grad`` for
        ``grad + wd·p``, scaled-subtract for ``p -= lr·grad``) commutes
        bitwise under IEEE-754, so the trajectory stays byte-identical to
        per-parameter ``SGD``.
        """
        lr = self.lr
        momentum = self.momentum
        wd = self.weight_decay
        with span("bank_sgd.step"):
            for lo, hi in self.bank.grad_ranges():
                p = self.bank.slab[:, lo:hi]
                grad = self.bank.grad_slab[:, lo:hi]
                buf = self._update[:, lo:hi]
                in_scratch = False
                if wd:
                    # buf ← wd·p + grad (addition commutes, bytes match grad + wd·p).
                    np.multiply(p, wd, out=buf)
                    buf += grad
                    grad = buf
                    in_scratch = True
                if momentum:
                    velocity = self._velocity[:, lo:hi]
                    # v ← momentum·v + grad, in place on the persistent slab.
                    velocity *= momentum
                    velocity += grad
                    grad = velocity
                    in_scratch = False
                # p ← p − lr·grad: scale into scratch (in place when the update
                # already lives in one) and subtract without a temporary.
                if in_scratch:
                    np.multiply(grad, lr, out=grad)
                    p -= grad
                else:
                    np.multiply(grad, lr, out=buf)
                    p -= buf
        self.n_steps += 1

    def set_lr(self, lr: float) -> None:
        """Change the learning rate (LR schedules and AdaComm coupling)."""
        require_finite("learning rate", lr)
        self.lr = float(lr)

    def reset_momentum(self) -> None:
        """Clear the velocity slab (block-momentum averaging step)."""
        if self._velocity is not None:
            self._velocity.fill(0.0)
