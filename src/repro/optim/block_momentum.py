"""Block momentum for periodic-averaging SGD (Section 5.3.1, eq. 24–25).

The idea (from Chen & Huo, 2016, also used by CNTK) is to treat the total
movement of the averaged model over one local-update period as one big
gradient step ``G_j`` and apply a *global* momentum to it:

    u_j      = β_glob · u_{j-1} + G_j
    x_{j+1}  = x_j − η_j · u_j            (in terms of the averaged model)

where ``G_j = (x_j − mean_i x_i^{(j end)}) / η_j`` is the accumulated
(averaged) update of the period expressed in gradient units.  Workers may
still run local momentum SGD inside the period, but their local buffers are
cleared at each averaging step; that part is handled by
:meth:`repro.optim.sgd.SGD.reset_momentum` and the trainer.
"""

from __future__ import annotations

import numpy as np

from repro.optim.sgd import require_finite

__all__ = ["BlockMomentum"]


class BlockMomentum:
    """Global momentum applied to the averaged model once per communication round.

    Parameters
    ----------
    beta:
        Global momentum factor β_glob (the paper uses 0.3).

    Usage
    -----
    The trainer calls :meth:`apply` with the model state *before* the local
    period (``x_anchor``), the plain average of the workers' final local
    models (``x_avg``), and the learning rate in force during the period.
    ``apply`` returns the new synchronized model that every worker should
    load.  With ``beta = 0`` the scheme reduces exactly to plain periodic
    averaging (``x_avg`` is returned unchanged), which is covered by a unit
    test.
    """

    def __init__(self, beta: float = 0.3):
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"global momentum factor must be in [0, 1), got {beta}")
        self.beta = float(beta)
        self._buffer: np.ndarray | None = None
        self.n_rounds = 0

    def apply(self, x_anchor: np.ndarray, x_avg: np.ndarray, lr: float) -> np.ndarray:
        """Return the post-round synchronized model (eq. 24–25)."""
        x_anchor = np.asarray(x_anchor, dtype=float)
        x_avg = np.asarray(x_avg, dtype=float)
        if x_anchor.shape != x_avg.shape:
            raise ValueError("anchor and averaged model must have the same shape")
        require_finite("learning rate", lr)

        # Accumulated (averaged) update of the block, in gradient units.
        block_gradient = (x_anchor - x_avg) / lr
        if self._buffer is None:
            self._buffer = np.zeros_like(x_anchor)
        self._buffer = self.beta * self._buffer + block_gradient
        self.n_rounds += 1
        return x_anchor - lr * self._buffer

    def reset(self) -> None:
        """Clear the global momentum buffer."""
        self._buffer = None
        self.n_rounds = 0

    @property
    def buffer(self) -> np.ndarray | None:
        """Current global momentum buffer (None before the first round)."""
        return self._buffer
