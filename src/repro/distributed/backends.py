"""Worker-execution backends: the worker-collection protocol and the per-worker view.

:class:`~repro.distributed.cluster.SimulatedCluster` delegates everything
that touches *all m replicas* — local SGD periods, state gather/broadcast,
learning-rate and momentum control, model materialization for evaluation —
to a backend implementing :class:`WorkerBackend`.  There is one local step,
:meth:`repro.distributed.worker_bank.WorkerBank.local_step`; the three
backends differ only in how they cut the m workers into banks of it
(``docs/backends.md``):

* :class:`~repro.distributed.worker_bank.WorkerBank` (``"vectorized"``) —
  one bank of m: all replicas stacked along a leading worker axis, one
  graph per step.  Covers every built-in model.  Where chunks of the bank
  each fill a core's L2, ``"vectorized"`` is k such banks stepped on
  threads (:func:`~repro.distributed.worker_bank.vectorized`).
* :class:`~repro.distributed.worker_bank.LoopWorkers` (``"loop"``) — m banks
  of one, stepped in a Python loop.  The independent check of the worker
  axis (m graphs of one replica against one graph of m), and where ragged
  shards and third-party models that only write ``forward`` / ``loss`` run.
* :class:`~repro.distributed.sharded_bank.ShardedBank` (``"sharded"``) — the
  bank partitioned into contiguous worker shards, one vectorized bank per
  shard on a persistent pool of worker processes.

The last two are the one chunk composite,
:class:`~repro.distributed.worker_bank.Chunks`, with two carriers
(in-process calls, on threads where they pay, and forked processes): the
setup check, each chunk's construction and the cross-chunk calls are
written once in :mod:`repro.distributed.worker_bank`.

Backends register by name in :data:`repro.api.registries.BACKENDS` and share
one constructor signature, so ``SimulatedCluster(..., backend="vectorized")``
and the CLI's ``--backend`` flag switch them declaratively; ``"auto"``
(:func:`~repro.distributed.worker_bank.auto`) picks the vectorized bank
whenever the model and shards support it and falls back to the loop
otherwise.  All backends consume the per-worker RNG streams identically
(data sampling, dropout masks, gradient noise), so a seeded run's trajectory
is byte-identical on any backend.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Module

__all__ = [
    "BackendUnsupported",
    "WorkerBackend",
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


class WorkerBackend:
    """Protocol shared by worker-execution backends.

    A backend owns the m model replicas, their data streams, and their local
    optimizers; the cluster keeps the policy (when to average, the virtual
    clock, the event log).  All flat parameter vectors use the
    ``Module.get_flat_parameters`` layout.
    """

    name: str = "abstract"
    #: One :class:`WorkerView` per worker, in worker order.
    workers: Sequence[WorkerView]
    #: Per-worker shard lengths, ``None`` for data-free runs (:meth:`shard_sizes`).
    _shard_sizes: "list[int] | None" = None

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def shard_sizes(self) -> "list[int] | None":
        """Per-worker training-shard sizes, or ``None`` for data-free runs.

        These are the FedAvg-style averaging weights: under unbalanced
        partitions the cluster can weight each worker's state by its shard
        size (``weighting="shard_size"``) instead of averaging uniformly.
        """
        return None if self._shard_sizes is None else list(self._shard_sizes)

    def initial_state(self) -> np.ndarray:
        """Flat copy of the common initial parameter vector."""
        return self.worker_state(0)

    def local_period(self, tau: int) -> np.ndarray:
        """Run τ local SGD steps on every worker; per-worker mean losses ``(m,)``."""
        raise NotImplementedError

    def worker_state(self, worker_id: int) -> np.ndarray:
        """Flat copy of one worker's parameters (the views' read hook)."""
        raise NotImplementedError

    def set_worker_state(self, worker_id: int, flat: np.ndarray) -> None:
        """Overwrite one worker's parameters (the views' write hook)."""
        raise NotImplementedError

    def get_stacked_states(self) -> np.ndarray:
        """All worker states as one ``(m, P)`` array (row i = worker i)."""
        raise NotImplementedError

    def broadcast_state(self, flat: np.ndarray) -> None:
        """Overwrite every worker's parameters with one flat vector."""
        raise NotImplementedError

    def set_stacked_states(self, states: np.ndarray) -> None:
        """Scatter per-worker parameters: row i of ``(m, P)`` goes to worker i.

        The inverse of :meth:`get_stacked_states`, used by the decentralized
        paths (gossip mixing, async server pulls) where workers end a round
        with *different* states instead of one broadcast vector.  The default
        writes row by row through :meth:`set_worker_state`, so only backends
        with a faster bulk write need to override.
        """
        if states.shape[0] != self.n_workers:
            raise ValueError(
                f"expected {self.n_workers} state rows, got {states.shape[0]}"
            )
        for worker_id, flat in enumerate(states):
            self.set_worker_state(worker_id, flat)

    def mean_state(self) -> "tuple[np.ndarray, int]":
        """Uniform mean of all worker states and the gathered byte count.

        Returns ``(mean, nbytes)`` where ``mean`` equals
        ``get_stacked_states().mean(axis=0)`` *bitwise* and ``nbytes`` is
        the size of the gathered ``(m, P)`` stack (what
        ``bytes_averaged_total`` counts).  The cluster's uniform averaging
        collective calls this instead of gathering itself so backends can
        reduce the rows where they lie — a chunk composite folds each
        chunk's rows into the running sum (the sharded backend as each
        shard's reply arrives).  Overriding backends must keep the reduction
        row-sequential in worker order; any other association changes bytes.
        """
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        raise NotImplementedError

    def reset_momentum(self) -> None:
        raise NotImplementedError

    def materialize(self, flat: np.ndarray, worker_id: int = 0) -> Module:
        """A scratch module holding ``flat`` and ``worker_id``'s buffers.

        Never worker state: the slabs are the ground truth on every backend,
        so loading the module (or a caller writing to it) changes no worker.
        """
        raise NotImplementedError

    def rng_fingerprint(self) -> dict:
        """Positions of every per-worker RNG stream, in one comparable dict.

        ``{"loaders": [state_or_None per worker], "streams": [[state per
        stream module] per worker]}`` where each state is the generator's
        ``bit_generator.state`` dict.  Equal fingerprints mean the backends
        have consumed every stream identically — the equivalence matrix
        (``tests/conftest.py``) compares these with ``==`` across backends.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker processes, threads).  Idempotent.

        The one bank has nothing to release; the sharded backend shuts its
        process pool down, the in-process carrier joins its chunk threads.
        """


def generator_state(gen) -> dict:
    """Comparable position of one NumPy generator (``bit_generator.state``)."""
    return gen.bit_generator.state
