"""The vectorized worker bank: all m replicas stepped with single NumPy ops.

``WorkerBank`` is the fast execution backend for the simulated cluster.
Instead of m :class:`~repro.distributed.worker.Worker` objects stepped in a
Python loop, it keeps one :class:`~repro.nn.bank.ParameterBank` with every
replica's parameters stacked along a leading worker axis, draws all m
mini-batches at once through a :class:`~repro.data.bank_loader.BankLoader`,
and runs every local SGD step for all workers as batched NumPy ops
(``repro.nn`` param-bank forward + :class:`~repro.optim.bank_sgd.BankSGD`).

Because the bank consumes each shard's RNG stream exactly as the loop
backend's per-worker loaders do — and stochastic modules (dropout, data-free
noise models) are handed the per-worker streams the loop replicas would own
(:func:`repro.nn.bank.attach_bank_streams`) — a seeded run produces a
byte-identical trajectory on either backend.  Every built-in model runs
here: dense nets, CNNs (im2col with the worker axis folded into the batch
axis), batch-norm nets (per-worker ``(m, F)`` running-stat buffers), live
dropout, and data-free quadratic objectives (``shards=[None, ...]``).  The
loop backend remains as the reference implementation for equivalence tests;
third-party models without a ``bank_loss`` still raise
:class:`BackendUnsupported` *before* consuming any RNG state, so
``backend="auto"`` falls back transparently.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.api.registries import BACKENDS
from repro.data.bank_loader import BankLoader
from repro.data.synthetic import Dataset
from repro.distributed.backends import BackendUnsupported, WorkerBackend, generator_state
from repro.nn.bank import (
    ParameterBank,
    attach_bank_streams,
    attach_stream_generators,
    bank_compatible,
)
from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.optim.bank_sgd import BankSGD

__all__ = ["WorkerBank", "BankWorkerView"]


class BankWorkerView:
    """Per-worker handle into a :class:`WorkerBank` (Worker-like surface).

    Exposes the parameter-exchange subset of the :class:`Worker` interface so
    that code iterating ``cluster.workers`` keeps working on the vectorized
    backend.  ``model`` materializes this worker's slice into the bank's
    shared template module — treat it as read-only scratch.
    """

    def __init__(self, bank_backend: "WorkerBank", worker_id: int):
        self.worker_id = worker_id
        self._backend = bank_backend

    def get_parameters(self) -> np.ndarray:
        return self._backend.bank.worker_flat(self.worker_id)

    def set_parameters(self, flat: np.ndarray) -> None:
        self._backend.bank.set_worker_flat(self.worker_id, flat)

    @property
    def model(self) -> Module:
        return self._backend.materialize(self.get_parameters(), self.worker_id)

    @property
    def last_loss(self) -> float:
        return float(self._backend.last_losses[self.worker_id])

    @property
    def local_steps_taken(self) -> int:
        return self._backend.local_steps_taken

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BankWorkerView(id={self.worker_id}, steps={self.local_steps_taken})"


class WorkerBank(WorkerBackend):
    """m stacked replicas + stacked optimizer + stacked batch sampler."""

    name = "vectorized"

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
        template: Module | None = None,
        stream_rngs: "Sequence[Sequence] | None" = None,
        bank_dtype: str = "float64",
    ):
        if not shards:
            raise ValueError("need at least one shard (use [None, ...] for data-free runs)")
        # The storage dtype of the stacked bank (and the design matrix).  The
        # float64 default is byte-identical to the loop reference; float32 is
        # the opt-in reduced-precision mode, parity within tolerance only.
        dtype = np.dtype(bank_dtype)
        if template is None:
            template = model_fn()
        # All unsupported-setup checks come before any RNG stream (or extra
        # model_fn call) is consumed, so "auto" can fall back to the loop
        # backend with pristine streams and an unperturbed factory.
        if not bank_compatible(template):
            raise BackendUnsupported(
                f"model {type(template).__name__} has no param-bank forward path; "
                f"use the 'loop' backend"
            )
        data_free = all(shard is None for shard in shards)
        if not data_free and any(shard is None for shard in shards):
            raise BackendUnsupported(
                "the vectorized backend needs a dataset shard per worker "
                "(or None for every worker on data-free objectives)"
            )
        if data_free:
            loader = None
        else:
            try:
                loader = BankLoader(
                    shards,
                    batch_size,
                    rngs=rngs,
                    dtype=None if dtype == np.float64 else dtype,
                )
            except ValueError as err:
                raise BackendUnsupported(f"stacked sampling unavailable: {err}") from err
        # Stochastic modules (dropout masks, data-free gradient noise) need
        # one RNG stream per worker.  Build the replicas the loop backend
        # would have built — consuming model_fn exactly as it would — and
        # hand the template their streams; stream-free models skip this and
        # keep the bank's one-replica construction cost.  A caller already
        # holding correctly-positioned generators (a shard process of the
        # sharded backend) injects them via ``stream_rngs`` instead, in which
        # case ``model_fn`` is never invoked.
        if stream_rngs is not None:
            attach_stream_generators(template, stream_rngs, n_workers=len(shards))
        elif any(True for _ in template.stream_modules()):
            attach_bank_streams(template, [model_fn() for _ in range(len(shards) - 1)])
        self.model = template
        self.bank = ParameterBank(template, len(shards), dtype=dtype)
        self.loader = loader
        self._shard_sizes = None if data_free else [len(shard) for shard in shards]
        self.optimizer = BankSGD(
            self.bank, lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        self.local_steps_taken = 0
        self.last_losses = np.full(len(shards), np.nan)
        self.workers = tuple(BankWorkerView(self, i) for i in range(len(shards)))

    @property
    def n_workers(self) -> int:
        return self.bank.n_workers

    @property
    def batch_size(self) -> int:
        return self.loader.batch_size if self.loader is not None else 0

    def shard_sizes(self) -> "list[int] | None":
        return None if self._shard_sizes is None else list(self._shard_sizes)

    def initial_state(self) -> np.ndarray:
        return self.bank.worker_flat(0)

    # -- training ------------------------------------------------------------
    def local_step(self) -> np.ndarray:
        """One local mini-batch SGD update for all workers; per-worker losses."""
        if self.loader is not None:
            X, y = self.loader.next_batches()
            X = Tensor(X)
        else:
            X, y = None, None
        self.optimizer.zero_grad()
        losses = self.model.bank_loss(X, y, self.bank.state())
        # Summing the (m,) losses back-propagates each worker's own batch
        # gradient into its slice of the bank (cross-worker terms are zero).
        losses.sum().backward()
        self.optimizer.step()
        self.local_steps_taken += 1
        self.last_losses = losses.data.copy()
        return self.last_losses

    def local_period(self, tau: int) -> np.ndarray:
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        totals = np.zeros(self.n_workers)
        for _ in range(tau):
            totals += self.local_step()
        return totals / tau

    # -- parameter exchange ----------------------------------------------------
    def get_stacked_states(self) -> np.ndarray:
        return self.bank.get_stacked_flat()

    def mean_state(self) -> "tuple[np.ndarray, int]":
        # Reduce the parameter slab where it lies: the same (m, P) array
        # shape and row-sequential reduction as gather-then-mean, no gather.
        return self.bank.slab.mean(axis=0), self.bank.slab.nbytes

    def broadcast_state(self, flat: np.ndarray) -> None:
        self.bank.broadcast_flat(flat)

    def set_stacked_states(self, states: np.ndarray) -> None:
        # One bulk write into the stacked storage instead of m row writes.
        self.bank.set_stacked_flat(states)

    # -- hyper-parameter control -------------------------------------------------
    def set_lr(self, lr: float) -> None:
        self.optimizer.set_lr(lr)

    def reset_momentum(self) -> None:
        self.optimizer.reset_momentum()

    # -- evaluation ----------------------------------------------------------------
    def materialize(self, flat: np.ndarray, worker_id: int = 0) -> Module:
        self.model.set_flat_parameters(flat)
        # Buffers (batch-norm running stats) are worker-local state outside
        # the flat vector; load the requested worker's slices so eval sees
        # the same statistics the loop backend's worker model would hold.
        self.bank.load_worker_buffers(self.model, worker_id)
        return self.model

    def evaluate_with_state(self, flat: np.ndarray, fn: Callable[[Module], float]):
        # The template is scratch space — the bank holds the ground truth — so
        # no save/restore is needed.
        return fn(self.materialize(flat))

    def rng_fingerprint(self) -> dict:
        if self.loader is None:
            loaders: list = [None] * self.n_workers
        else:
            loaders = [generator_state(ldr._rng) for ldr in self.loader.loaders]
        stream_mods = list(self.model.stream_modules())
        return {
            "loaders": loaders,
            "streams": [
                [generator_state(mod._bank_rngs[i]) for mod in stream_mods]
                for i in range(self.n_workers)
            ],
        }


BACKENDS.register("vectorized", WorkerBank)
