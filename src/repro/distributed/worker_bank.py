"""The one local step, and its two in-process compositions.

:meth:`WorkerBank.local_step` is the only local SGD step in ``src/`` (paper
eq. 2): draw the stacked ``(m, B, ...)`` batch from a
:class:`~repro.data.bank_loader.BankLoader`, run the model's ``bank_loss``
over a :class:`~repro.nn.bank.ParameterBank`, back-propagate the summed
losses into the gradient slab, apply the fused
:class:`~repro.optim.bank_sgd.BankSGD` update to the ``(m, P)`` slab.

* :class:`WorkerBank` (``"vectorized"``) is one bank of m: every replica's
  parameters stacked along a leading worker axis, all m mini-batches drawn
  at once, every step one graph of batched NumPy ops.  The bank consumes
  each shard's RNG stream exactly as m per-worker loaders would, and
  stochastic modules (dropout, data-free noise models) are handed the
  per-worker streams m replicas would own
  (:func:`repro.nn.bank.attach_bank_streams`).  Every built-in model runs
  here; a model without a stacked definition, or shards that clip
  ``batch_size`` to different sizes, raise :class:`BackendUnsupported`
  *before* consuming any RNG state, so ``backend="auto"`` falls back
  transparently.
* :class:`LoopWorkers` (``"loop"``) is m banks of one, stepped in a Python
  loop: the same step on m graphs of one replica.  It no longer carries its
  own optimizer arithmetic or state exchange (``BankSGD`` and
  ``ParameterBank`` are pinned by their own byte-level tests); what it still
  checks independently is the worker axis, which is why a seeded run is
  byte-identical on either.  It also serves what one stacked graph cannot:
  ragged shards (each bank clips its own batch) and modules that only write
  ``forward`` / ``loss`` (see :meth:`WorkerBank._replica_losses`).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.api.registries import BACKENDS
from repro.data.bank_loader import BankLoader
from repro.data.synthetic import Dataset
from repro.distributed.backends import (
    BackendUnsupported,
    WorkerBackend,
    WorkerView,
    generator_state,
    merge_fingerprints,
)
from repro.nn.bank import (
    ParameterBank,
    attach_bank_streams,
    attach_stream_generators,
    bank_compatible,
)
from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.optim.bank_sgd import BankSGD

__all__ = ["WorkerBank", "LoopWorkers"]


class WorkerBank(WorkerBackend):
    """m stacked replicas + stacked optimizer + stacked batch sampler."""

    name = "vectorized"
    #: Whether a model without a stacked definition may ride along as a
    #: scratch replica (see :meth:`_replica_losses`); the loop's banks of one
    #: set it, so ``vectorized`` and ``sharded`` refuse such a model at any m.
    _accepts_forward_only = False

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
        # The storage dtype of the stacked bank (and the design matrix).
        # float64 is the byte-identical default; float32 is the opt-in
        # reduced-precision mode, parity within tolerance only.
        dtype = np.dtype(bank_dtype)
        if template is None:
            template = model_fn()
        # All unsupported-setup checks come before any RNG stream (or extra
        # model_fn call) is consumed, so "auto" can fall back to the loop
        # backend with pristine streams and an unperturbed factory.
        self._scratch_replica = not bank_compatible(template)
        if self._scratch_replica and not self._accepts_forward_only:
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
        # one RNG stream per worker.  Build the replicas m banks of one
        # would have built — consuming model_fn exactly as they would — and
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
        self.workers = tuple(WorkerView(self, i) for i in range(len(shards)))

    @property
    def batch_size(self) -> int:
        return self.loader.batch_size if self.loader is not None else 0

    def shard_sizes(self) -> "list[int] | None":
        return None if self._shard_sizes is None else list(self._shard_sizes)

    # -- training ------------------------------------------------------------
    def local_step(self) -> np.ndarray:
        """One local mini-batch SGD update for all workers; per-worker losses."""
        X, y = self.loader.next_batches() if self.loader is not None else (None, None)
        self.optimizer.zero_grad()
        if self._scratch_replica:
            losses = self._replica_losses(X, y)
        else:
            stacked = self.model.bank_loss(None if X is None else Tensor(X), y, self.bank.state())
            # Summing the (m,) losses back-propagates each worker's own batch
            # gradient into its slice of the bank (cross-worker terms are zero).
            stacked.sum().backward()
            losses = stacked.data.copy()
        self.optimizer.step()
        self.local_steps_taken += 1
        return losses

    def _replica_losses(self, X, y) -> np.ndarray:
        """Forward and backward of a module that only writes ``forward`` / ``loss``.

        Bank of one only.  The module is scratch and the slab row the ground
        truth: load the row, run the module's own ``loss`` on the worker's
        batch, and hand the bank what a stacked graph would have left in it —
        each parameter's gradient (``grad_ranges`` copies it into the
        gradient slab; a parameter without one stays skipped) and the
        buffers the forward updated.  Optimizer step, state exchange and
        evaluation are the bank's, unchanged.
        """
        model = self.model
        model.set_flat_parameters(self.bank.slab[0])
        model.zero_grad()
        loss = model.loss() if X is None else model.loss(X[0], y[0])
        loss.backward()
        for p, stacked in zip(model.parameters(), self.bank.params.values()):
            if p.grad is not None:
                stacked.grad = p.grad[None]
        for name, value in model.named_buffers():
            self.bank.buffers[name][0] = value
        return loss.data.reshape(1).copy()

    def local_period(self, tau: int) -> np.ndarray:
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        totals = np.zeros(self.n_workers)
        for _ in range(tau):
            totals += self.local_step()
        return totals / tau

    # -- parameter exchange ----------------------------------------------------
    def worker_state(self, worker_id: int) -> np.ndarray:
        return self.bank.worker_flat(worker_id)

    def set_worker_state(self, worker_id: int, flat: np.ndarray) -> None:
        self.bank.set_worker_flat(worker_id, flat)

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
        # that worker's statistics.  The template is scratch — the bank holds
        # the ground truth — so nothing is saved or restored.
        self.bank.load_worker_buffers(self.model, worker_id)
        return self.model

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


class _BankOfOne(WorkerBank):
    """One worker of the loop: the bank that also takes forward-only modules."""

    _accepts_forward_only = True


class LoopWorkers(WorkerBackend):
    """m banks of one worker each, stepped in a Python loop.

    Takes the arguments of :class:`WorkerBank` (``run``: ``batch_size`` and
    the optimizer settings); worker i gets its own replica from ``model_fn``
    (``template``, when given, is worker 0's — the probe an ``"auto"``
    fallback already built, so ``model_fn`` is consumed as in a direct
    build), its own shard, loader stream, slab and optimizer.  ``bank_dtype``
    is accepted and ignored: the loop is the float64 check.
    """

    name = "loop"

    def __init__(
        self,
        model_fn: Callable[[], Module],
        shards: Sequence[Dataset | None],
        *,
        rngs: Sequence | None = None,
        template: Module | None = None,
        bank_dtype: str = "float64",
        **run,
    ):
        del bank_dtype
        if not shards:
            raise ValueError("need at least one shard (use [None, ...] for data-free runs)")
        if rngs is None:
            rngs = [None] * len(shards)
        if len(rngs) != len(shards):
            raise ValueError(f"{len(shards)} shards but {len(rngs)} RNG streams")
        self.banks: list[WorkerBank] = []
        for shard, rng in zip(shards, rngs):
            bank = _BankOfOne(
                model_fn, [shard], rngs=[rng],
                template=None if self.banks else template, **run,
            )
            if self.banks:
                # Force identical initial parameters across replicas (same x1).
                bank.broadcast_state(self.banks[0].initial_state())
            self.banks.append(bank)
        self.workers = tuple(WorkerView(self, i) for i in range(len(shards)))

    @property
    def batch_size(self) -> int:
        return self.banks[0].batch_size

    def shard_sizes(self) -> "list[int] | None":
        sizes = [bank.shard_sizes() for bank in self.banks]
        return None if None in sizes else [size for (size,) in sizes]

    def local_period(self, tau: int) -> np.ndarray:
        return np.concatenate([bank.local_period(tau) for bank in self.banks])

    def worker_state(self, worker_id: int) -> np.ndarray:
        return self.banks[worker_id].worker_state(0)

    def set_worker_state(self, worker_id: int, flat: np.ndarray) -> None:
        self.banks[worker_id].set_worker_state(0, flat)

    def get_stacked_states(self) -> np.ndarray:
        return np.concatenate([bank.bank.slab for bank in self.banks])

    def broadcast_state(self, flat: np.ndarray) -> None:
        for bank in self.banks:
            bank.broadcast_state(flat)

    def set_lr(self, lr: float) -> None:
        for bank in self.banks:
            bank.set_lr(lr)

    def reset_momentum(self) -> None:
        for bank in self.banks:
            bank.reset_momentum()

    def materialize(self, flat: np.ndarray, worker_id: int = 0) -> Module:
        return self.banks[worker_id].materialize(flat)

    def rng_fingerprint(self) -> dict:
        return merge_fingerprints(bank.rng_fingerprint() for bank in self.banks)


BACKENDS.register("loop", LoopWorkers)
BACKENDS.register("vectorized", WorkerBank)
