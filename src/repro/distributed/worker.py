"""A single simulated worker node.

Each worker owns:

* a full replica of the model (built by a user-supplied factory so that every
  replica has identical architecture but its own parameter arrays),
* a shard of the training data with a mini-batch loader,
* a local SGD optimizer (optionally with local momentum).

A worker's only operations are ``local_step`` (one mini-batch SGD update,
eq. 2) and get/set of its flat parameter vector, which is what the cluster's
averaging step uses (eq. 3).
"""

from __future__ import annotations

import numpy as np

from repro.data.loader import BatchLoader
from repro.data.synthetic import Dataset
from repro.nn.layers import Module, evaluating
from repro.optim.sgd import SGD
from repro.utils.seeding import check_random_state

__all__ = ["Worker"]


class Worker:
    """One simulated worker: model replica + data shard + local optimizer."""

    def __init__(
        self,
        worker_id: int,
        model: Module,
        shard: Dataset | None,
        batch_size: int = 32,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ):
        if worker_id < 0:
            raise ValueError(f"worker_id must be non-negative, got {worker_id}")
        self.worker_id = worker_id
        self.model = model
        self.shard = shard
        self._rng = check_random_state(rng)
        self.loader = (
            BatchLoader(shard, batch_size, rng=self._rng) if shard is not None else None
        )
        self.optimizer = SGD(model, lr=lr, momentum=momentum, weight_decay=weight_decay)
        self.local_steps_taken = 0
        self.last_loss: float = float("nan")

    # -- training ----------------------------------------------------------
    def local_step(self) -> float:
        """Perform one local mini-batch SGD update and return the batch loss."""
        if self.loader is not None:
            x_batch, y_batch = self.loader.next_batch()
        else:
            x_batch, y_batch = None, None
        self.optimizer.zero_grad()
        loss = self.model.loss(x_batch, y_batch)
        loss.backward()
        self.optimizer.step()
        self.local_steps_taken += 1
        self.last_loss = float(loss.item())
        return self.last_loss

    def local_period(self, tau: int) -> float:
        """Run ``tau`` local steps; return the mean batch loss over the period."""
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        losses = [self.local_step() for _ in range(tau)]
        return float(np.mean(losses))

    # -- parameter exchange ---------------------------------------------------
    def get_parameters(self) -> np.ndarray:
        """Flat copy of this worker's model parameters."""
        return self.model.get_flat_parameters()

    def set_parameters(self, flat: np.ndarray) -> None:
        """Overwrite this worker's model parameters with a flat vector."""
        self.model.set_flat_parameters(flat)

    # -- hyper-parameter control -----------------------------------------------
    def set_lr(self, lr: float) -> None:
        self.optimizer.set_lr(lr)

    def reset_momentum(self) -> None:
        """Clear local momentum (done at each averaging step under block momentum)."""
        self.optimizer.reset_momentum()

    # -- evaluation ---------------------------------------------------------------
    def evaluate_loss(self, X: np.ndarray | None = None, y: np.ndarray | None = None) -> float:
        """Loss of the current local model on given data (or this worker's shard)."""
        if X is None or y is None:
            if self.loader is None:
                raise ValueError("no data available for evaluation")
            X, y = self.loader.full_data()
        with evaluating(self.model):
            return float(self.model.loss(X, y).item())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Worker(id={self.worker_id}, steps={self.local_steps_taken}, "
            f"lr={self.optimizer.lr})"
        )
