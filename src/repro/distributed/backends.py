"""Worker-execution backends: the worker-collection protocol + loop backend.

:class:`~repro.distributed.cluster.SimulatedCluster` delegates everything
that touches *all m replicas* — local SGD periods, state gather/broadcast,
learning-rate and momentum control, model materialization for evaluation —
to a backend implementing :class:`WorkerBackend`.  Three backends exist:

* :class:`LoopWorkers` (this module) — one :class:`Worker` object per
  replica, stepped in a Python loop: m banks of one worker.  Layers have a
  single stacked definition, which ``Module.forward`` / ``Module.loss``
  apply at m = 1, so the loop shares the banks' kernels; its own *driver*
  (``Worker``, per-parameter ``SGD``, ``BatchLoader``) is the reference the
  equivalence suite checks the banks against byte for byte, and third-party
  models that only write ``forward`` / ``loss`` still run here.
* :class:`~repro.distributed.worker_bank.WorkerBank` — all replicas stacked
  along a leading worker axis and stepped with single NumPy ops (the
  vectorized path; see ``repro.nn.bank``).  Covers every built-in model:
  dense nets, CNNs, batch-norm nets, live dropout, and data-free objectives.
* :class:`~repro.distributed.sharded_bank.ShardedBank` — the stacked bank
  partitioned into contiguous worker shards, one vectorized bank per shard
  on a persistent pool of worker processes (larger-than-memory banks,
  multi-core throughput).

Backends register by name in :data:`repro.api.registries.BACKENDS` and share
one constructor signature, so ``SimulatedCluster(..., backend="vectorized")``
and the CLI's ``--backend`` flag switch them declaratively; ``"auto"`` picks
the vectorized bank whenever the model supports it — which every model in
the ``MODELS`` registry does — and escalates to the sharded pool at large
cluster sizes.  All backends consume the per-worker RNG streams identically
(data sampling, dropout masks, gradient noise), so a seeded run's trajectory
is byte-identical on any backend.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.api.registries import BACKENDS
from repro.data.synthetic import Dataset
from repro.distributed.worker import Worker
from repro.nn.layers import Module

__all__ = [
    "BackendUnsupported",
    "WorkerBackend",
    "LoopWorkers",
    "generator_state",
    "module_stream_states",
]


class BackendUnsupported(RuntimeError):
    """Raised when a backend cannot execute the requested model/data setup."""


class WorkerBackend:
    """Protocol shared by worker-execution backends.

    A backend owns the m model replicas, their data streams, and their local
    optimizers; the cluster keeps the policy (when to average, the virtual
    clock, the event log).  All flat parameter vectors use the
    ``Module.get_flat_parameters`` layout.
    """

    name: str = "abstract"
    #: Per-worker handles (``Worker`` objects or bank views) for introspection.
    workers: Sequence

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def batch_size(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def shard_sizes(self) -> "list[int] | None":
        """Per-worker training-shard sizes, or ``None`` for data-free runs.

        These are the FedAvg-style averaging weights: under unbalanced
        partitions the cluster can weight each worker's state by its shard
        size (``weighting="shard_size"``) instead of averaging uniformly.
        """
        return None

    def initial_state(self) -> np.ndarray:
        """Flat copy of the common initial parameter vector."""
        raise NotImplementedError

    def local_period(self, tau: int) -> np.ndarray:
        """Run τ local SGD steps on every worker; per-worker mean losses ``(m,)``."""
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
        loops over the per-worker handles — every backend's views expose
        ``set_parameters`` — so only backends with a faster bulk write need
        to override.
        """
        if states.shape[0] != self.n_workers:
            raise ValueError(
                f"expected {self.n_workers} state rows, got {states.shape[0]}"
            )
        for worker, flat in zip(self.workers, states):
            worker.set_parameters(flat)

    def mean_state(self) -> "tuple[np.ndarray, int]":
        """Uniform mean of all worker states and the gathered byte count.

        Returns ``(mean, nbytes)`` where ``mean`` equals
        ``get_stacked_states().mean(axis=0)`` *bitwise* and ``nbytes`` is
        the size of the gathered ``(m, P)`` stack (what
        ``bytes_averaged_total`` counts).  The cluster's uniform averaging
        collective calls this instead of gathering itself so backends can
        overlap the reduction with the gather — the sharded backend folds
        each shard's rows into the running sum as that shard's reply
        arrives.  Overriding backends must keep the reduction row-
        sequential in worker order; any other association changes bytes.
        """
        states = self.get_stacked_states()
        return states.mean(axis=0), states.nbytes

    def set_lr(self, lr: float) -> None:
        raise NotImplementedError

    def reset_momentum(self) -> None:
        raise NotImplementedError

    def materialize(self, flat: np.ndarray) -> Module:
        """A module loaded with ``flat`` (treat as read-only scratch)."""
        raise NotImplementedError

    def evaluate_with_state(self, flat: np.ndarray, fn: Callable[[Module], float]):
        """Run ``fn`` on a module holding ``flat``, leaving workers unchanged."""
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
        """Release backend resources (worker processes, pools).  Idempotent.

        In-process backends have nothing to release; the sharded backend
        overrides this to shut its process pool down cleanly.
        """


def generator_state(gen) -> dict:
    """Comparable position of one NumPy generator (``bit_generator.state``)."""
    return gen.bit_generator.state


def module_stream_states(model: Module) -> list:
    """Positions of every stream module's private generator, in tree order."""
    return [generator_state(mod._rng) for mod in model.stream_modules()]


class LoopWorkers(WorkerBackend):
    """The reference backend: one :class:`Worker` per replica, stepped in a loop."""

    name = "loop"

    def __init__(
        self,
        model_fn: Callable[[], Module],
        shards: Sequence[Dataset | None],
        *,
        batch_size: int = 32,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        rngs: Sequence | None = None,
        first_model: Module | None = None,
        bank_dtype: str = "float64",
    ):
        # The loop backend is the float64 reference implementation; the
        # reduced-precision knob only changes bank storage, so it is accepted
        # (every backend shares one construction signature) and ignored.
        del bank_dtype
        if not shards:
            raise ValueError("need at least one shard (use [None, ...] for data-free runs)")
        if rngs is None:
            rngs = [None] * len(shards)
        if len(rngs) != len(shards):
            raise ValueError(f"{len(shards)} shards but {len(rngs)} RNG streams")
        self.workers: list[Worker] = []
        reference: np.ndarray | None = None
        for i, (shard, rng) in enumerate(zip(shards, rngs)):
            # ``first_model`` is the probe replica an "auto" fallback already
            # built; reusing it keeps model_fn consumption identical to a
            # direct loop-backend run even for stateful factories.
            worker = Worker(
                worker_id=i,
                model=first_model if (i == 0 and first_model is not None) else model_fn(),
                shard=shard,
                batch_size=batch_size,
                lr=lr,
                momentum=momentum,
                weight_decay=weight_decay,
                rng=rng,
            )
            # Force identical initial parameters across replicas (same x1).
            if reference is None:
                reference = worker.get_parameters()
            else:
                worker.set_parameters(reference)
            self.workers.append(worker)

    @property
    def batch_size(self) -> int:
        loader = self.workers[0].loader
        return loader.batch_size if loader is not None else 0

    def shard_sizes(self) -> "list[int] | None":
        if any(w.shard is None for w in self.workers):
            return None
        return [len(w.shard) for w in self.workers]

    def initial_state(self) -> np.ndarray:
        return self.workers[0].get_parameters()

    def local_period(self, tau: int) -> np.ndarray:
        return np.array([w.local_period(tau) for w in self.workers])

    def get_stacked_states(self) -> np.ndarray:
        return np.stack([w.get_parameters() for w in self.workers])

    def broadcast_state(self, flat: np.ndarray) -> None:
        for w in self.workers:
            w.set_parameters(flat)

    def set_lr(self, lr: float) -> None:
        for w in self.workers:
            w.set_lr(lr)

    def reset_momentum(self) -> None:
        for w in self.workers:
            w.reset_momentum()

    def materialize(self, flat: np.ndarray) -> Module:
        worker0 = self.workers[0]
        if not np.array_equal(worker0.get_parameters(), flat):
            worker0.model.set_flat_parameters(flat)
        return worker0.model

    def evaluate_with_state(self, flat: np.ndarray, fn: Callable[[Module], float]):
        worker0 = self.workers[0]
        saved = worker0.get_parameters()
        try:
            worker0.set_parameters(flat)
            return fn(worker0.model)
        finally:
            worker0.set_parameters(saved)

    def rng_fingerprint(self) -> dict:
        return {
            "loaders": [
                None if w.loader is None else generator_state(w.loader._rng)
                for w in self.workers
            ],
            "streams": [module_stream_states(w.model) for w in self.workers],
        }


BACKENDS.register("loop", LoopWorkers)
