"""What every worker-execution backend shares besides its one class: the per-worker view.

:class:`~repro.distributed.cluster.SimulatedCluster` delegates everything
that touches *all m replicas* — local SGD periods, state gather/broadcast,
learning-rate and momentum control, model materialization for evaluation —
to a backend.  Every backend is one class,
:class:`~repro.distributed.worker_bank.WorkerBackend`: the m workers cut into
contiguous chunks, each a
:class:`~repro.distributed.worker_bank.WorkerBank` running the one local
step, :meth:`~repro.distributed.worker_bank.WorkerBank.local_step`.  The
registered backends differ only in the chunk size and the carrier
(``docs/backends.md``):

* ``"loop"`` (:class:`~repro.distributed.worker_bank.LoopWorkers`) — m
  chunks of one, stepped in a Python loop.  The independent check of the
  worker axis (m graphs of one replica against one graph of m), and where
  ragged shards and third-party models that only write ``forward`` /
  ``loss`` run.
* ``"vectorized"`` (:func:`~repro.distributed.worker_bank.vectorized`) — the
  same in-process carrier with k chunks: one chunk of m (all replicas
  stacked along a leading worker axis, one graph per step), or, where each
  chunk's slab fills a core's L2, one chunk per core stepped on threads.
  Covers every built-in model.
* ``"sharded"`` (:class:`~repro.distributed.sharded_bank.ShardedBank`) — n
  chunks on a persistent pool of forked worker processes.

Backends register by name in :data:`repro.api.registries.BACKENDS` and share
one constructor signature, so ``SimulatedCluster(..., backend="vectorized")``
and the CLI's ``--backend`` flag switch them declaratively; ``"auto"``
(:func:`~repro.distributed.worker_bank.auto`) picks ``"vectorized"``
whenever the model and shards support it and falls back to the loop
otherwise.  All backends consume the per-worker RNG streams identically
(data sampling, dropout masks, gradient noise), so a seeded run's trajectory
is byte-identical on any backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.nn.layers import Module

if TYPE_CHECKING:
    from repro.distributed.worker_bank import WorkerBackend

__all__ = [
    "BackendUnsupported",
    "WorkerView",
    "generator_state",
]


class BackendUnsupported(RuntimeError):
    """Raised when a backend cannot execute the requested model/data setup."""


class WorkerView:
    """Per-worker handle into a backend: what ``cluster.workers`` iterates.

    ``worker_id`` is cluster-wide on every backend.  Parameters are read and
    written through the backend's two per-worker hooks; ``model``
    materializes this worker's parameters and buffers into backend scratch —
    treat it as read-only, the backend's slab holds the ground truth.
    """

    def __init__(self, backend: "WorkerBackend", worker_id: int):
        self.worker_id = worker_id
        self._backend = backend

    def get_parameters(self) -> np.ndarray:
        return self._backend.worker_state(self.worker_id)

    def set_parameters(self, flat: np.ndarray) -> None:
        self._backend.set_worker_state(self.worker_id, flat)

    @property
    def model(self) -> Module:
        return self._backend.materialize(self.get_parameters(), self.worker_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerView(id={self.worker_id}, backend={self._backend.name!r})"


def generator_state(gen) -> dict:
    """Comparable position of one NumPy generator (``bit_generator.state``)."""
    return gen.bit_generator.state
