"""The one local step, and the chunk composite the other two backends are.

:meth:`WorkerBank.local_step` is the only local SGD step in ``src/`` (paper
eq. 2): draw the stacked ``(m, B, ...)`` batch from a
:class:`~repro.data.bank_loader.BankLoader`, run the model's ``bank_loss``
over a :class:`~repro.nn.bank.ParameterBank`, back-propagate the summed
losses into the gradient slab, apply the fused
:class:`~repro.optim.bank_sgd.BankSGD` update to the ``(m, P)`` slab.

* :class:`WorkerBank` (``"vectorized"`` below L2) is one bank of m: every replica's
  parameters stacked along a leading worker axis, all m mini-batches drawn
  at once, every step one graph of batched NumPy ops.  The bank consumes
  each shard's RNG stream exactly as m per-worker loaders would, and
  stochastic modules (dropout, data-free noise models) are handed the
  per-worker streams m replicas would own
  (:func:`repro.nn.bank.attach_bank_streams`).  Every built-in model runs
  here; :func:`check_bank_setup` refuses the rest (a model without a stacked
  definition, shards that clip ``batch_size`` to different sizes) with
  :class:`BackendUnsupported` *before* consuming any RNG state, so
  ``backend="auto"`` falls back transparently.
* :class:`Chunks` is the worker axis cut into contiguous ``[lo, hi)`` ranges,
  one ``WorkerBank`` per range.  What every such composite needs is written
  here once: the split (:func:`shard_slices`), each chunk's construction
  (:func:`chunk_payloads`, which consumes ``model_fn`` and the streams in
  worker order, so any split gives the same bytes) and the cross-chunk calls,
  the row-sequential mean among them, over three carrier hooks.
* :class:`LoopWorkers` carries chunks by in-process calls.  ``"loop"`` is m
  chunks of one: the same step on m graphs of one replica.  What it checks
  independently is the worker axis, which is why a seeded run is
  byte-identical on either.  It also serves what one stacked graph cannot:
  ragged shards (each bank clips its own batch) and modules that only write
  ``forward`` / ``loss`` (see :meth:`WorkerBank._replica_losses`).
  ``"vectorized"`` above L2 is k chunks of m/k (:func:`vectorized`).  Where
  each chunk's slab fills a core's L2 the carrier steps its chunks on the
  process's pinned threads (:func:`chunk_threads`,
  :func:`repro.distributed.host.run_pinned`): NumPy releases the GIL inside
  the large ops, so a memory-bound bank uses every core it may.
* :class:`~repro.distributed.sharded_bank.ShardedBank` (``"sharded"``) is n
  chunks in forked processes, carried over pipes.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.api.registries import BACKENDS
from repro.data.bank_loader import BankLoader, common_effective_batch
from repro.data.synthetic import Dataset
from repro.distributed.backends import (
    BackendUnsupported,
    WorkerBackend,
    WorkerView,
    generator_state,
)
from repro.distributed import host
from repro.nn.bank import ParameterBank, attach_bank_streams, bank_compatible
from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.optim.bank_sgd import BankSGD
from repro.utils.domains import AT_LEAST_ONE

__all__ = [
    "WorkerBank",
    "Chunks",
    "LoopWorkers",
    "auto",
    "check_bank_setup",
    "chunk_payloads",
    "chunk_threads",
    "shard_slices",
    "vectorized",
    "vectorized_chunks",
]


def shard_slices(n_workers: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` worker ranges for each of ``n_shards`` shards.

    Sizes follow ``np.array_split``: the first ``n_workers % n_shards``
    shards get one extra worker, so any (m, shards) pair yields a balanced,
    deterministic partition.  ``n_shards`` is clamped to ``n_workers`` so no
    shard is ever empty.
    """
    AT_LEAST_ONE("n_shards", n_shards)
    n_shards = min(n_shards, n_workers)
    base, extra = divmod(n_workers, n_shards)
    slices, lo = [], 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < extra else 0)
        slices.append((lo, hi))
        lo = hi
    return slices


def chunk_threads(n_workers: int, n_chunks: int, row_bytes: int) -> int:
    """Threads that step ``n_chunks`` in-process chunks of ``n_workers`` rows of ``row_bytes``:
    :func:`~repro.distributed.host.block_threads` of the smallest chunk's parameter slab."""
    return host.block_threads(n_chunks, n_workers // n_chunks * row_bytes)


def vectorized_chunks(n_workers: int, row_bytes: int) -> int:
    """The chunk count k of ``vectorized``: one chunk per usable core when
    :func:`chunk_threads` steps them concurrently, else 1 — the one bank."""
    k = min(host.usable_cores(), n_workers)
    return k if chunk_threads(n_workers, k, row_bytes) > 1 else 1


def check_bank_setup(
    template: Module,
    shards: Sequence[Dataset | None],
    batch_size: int,
    *,
    forward_only: bool = False,
) -> None:
    """Raise :class:`BackendUnsupported` for a setup one stacked bank cannot run.

    That is a model without a stacked definition (unless ``forward_only``: a
    bank of one carries it as a scratch replica), a mix of data and ``None``
    shards, or shards that clip ``batch_size`` to different sizes.  It only
    reads: no RNG stream or ``model_fn`` call is consumed, so ``"auto"`` can
    fall back with pristine streams and an unperturbed factory.
    """
    if not forward_only and not bank_compatible(template):
        raise BackendUnsupported(
            f"model {type(template).__name__} has no param-bank forward path; "
            f"use the 'loop' backend"
        )
    if all(shard is None for shard in shards):
        return
    if any(shard is None for shard in shards):
        raise BackendUnsupported(
            "a worker bank needs a dataset shard per worker "
            "(or None for every worker on data-free objectives)"
        )
    try:
        common_effective_batch(shards, batch_size)
    except ValueError as err:
        raise BackendUnsupported(f"stacked sampling unavailable: {err}") from err


def chunk_payloads(
    model_fn: "Callable[[], Module] | None",
    shards: Sequence[Dataset | None],
    bounds: Sequence[tuple[int, int]],
    *,
    rngs: Sequence | None = None,
    template: Module | None = None,
    **run,
) -> list[dict]:
    """One :class:`WorkerBank` argument dict per ``[lo, hi)`` range of ``bounds``.

    Chunk 0's template is ``template`` (``model_fn()`` when ``None``); every
    later chunk's is a ``model_fn()`` call loaded with chunk 0's parameters,
    the common x1.  A template with stochastic modules is handed its workers'
    streams, harvested from the replicas they would own as banks of one
    (:func:`~repro.nn.bank.attach_bank_streams`).  All calls come in worker
    order, so ``model_fn`` and the streams are consumed as m banks of one
    would and every split gives the same bytes.  ``run`` is the rest of the
    bank's arguments (``batch_size``, the optimizer settings, ``bank_dtype``).

    A payload is state, never a closure: it pickles, and ``WorkerBank(None,
    **payload)`` builds the chunk wherever it lands.  Ship the payload, not a
    built bank: pickling a bank would cut its parameters loose from its slab.
    """
    if rngs is None:
        rngs = [None] * len(shards)
    if len(rngs) != len(shards):
        raise ValueError(f"{len(shards)} shards but {len(rngs)} RNG streams")
    payloads: list[dict] = []
    for lo, hi in bounds:
        chunk = template if template is not None and not payloads else model_fn()
        if any(True for _ in chunk.stream_modules()):
            attach_bank_streams(chunk, [model_fn() for _ in range(hi - lo - 1)])
        if payloads:
            chunk.set_flat_parameters(payloads[0]["template"].get_flat_parameters())
        payloads.append(
            {"template": chunk, "shards": list(shards[lo:hi]), "rngs": list(rngs[lo:hi]), **run}
        )
    return payloads


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
        check_bank_setup(template, shards, batch_size, forward_only=self._accepts_forward_only)
        self._scratch_replica = not bank_compatible(template)
        data_free = shards[0] is None
        loader = None if data_free else BankLoader(
            shards, batch_size, rngs=rngs, dtype=None if dtype == np.float64 else dtype
        )
        if model_fn is not None:
            # Built from model_fn, the bank is its composite's only chunk.  A
            # chunk_payloads template (model_fn=None) has its streams already.
            chunk_payloads(model_fn, shards, [(0, len(shards))], template=template)
        self.model = template
        self.bank = ParameterBank(template, len(shards), dtype=dtype)
        self.loader = loader
        self._shard_sizes = None if data_free else [len(shard) for shard in shards]
        self.optimizer = BankSGD(
            self.bank, lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        self.local_steps_taken = 0
        self.workers = tuple(WorkerView(self, i) for i in range(len(shards)))

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
        AT_LEAST_ONE("tau", tau)
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


class Chunks(WorkerBackend):
    """The worker axis as contiguous ``WorkerBank`` chunks: ``loop``, ``sharded``, ``vectorized`` above L2.

    ``bounds`` holds each chunk's ``[lo, hi)`` worker range, in worker order.
    The cross-chunk methods below are written once, over three carrier
    hooks: two call a :class:`WorkerBank` method by name, :meth:`_each` on
    every chunk (results in chunk order) and :meth:`_one` on one chunk, and
    :meth:`_rows` yields each chunk's parameter rows.  A subclass is its
    carrier: in-process calls, or commands over a pipe.
    """

    bounds: "list[tuple[int, int]]"

    def _split(self, shards: Sequence[Dataset | None], n_chunks: int) -> None:
        """Cut the workers of ``shards`` into ``n_chunks`` ranges (see :func:`shard_slices`)."""
        if not shards:
            raise ValueError("need at least one shard (use [None, ...] for data-free runs)")
        self.bounds = shard_slices(len(shards), n_chunks)
        self._shard_sizes = (
            None if any(shard is None for shard in shards) else [len(shard) for shard in shards]
        )
        self.workers = tuple(WorkerView(self, i) for i in range(len(shards)))

    def _each(self, op: str, *args) -> list:  # pragma: no cover - overridden
        """``WorkerBank.<op>(*args)`` on every chunk; the results in chunk order."""
        raise NotImplementedError

    def _one(self, chunk: int, op: str, *args):  # pragma: no cover - overridden
        """``WorkerBank.<op>(*args)`` on chunk ``chunk`` alone."""
        raise NotImplementedError

    def _rows(self) -> "Iterable[np.ndarray]":  # pragma: no cover - overridden
        """Each chunk's ``(k, P)`` parameter rows, in chunk order (read before the next step)."""
        raise NotImplementedError

    def _locate(self, worker_id: int) -> tuple[int, int]:
        """Map a global worker id to ``(chunk, local_id)``."""
        for chunk, (lo, hi) in enumerate(self.bounds):
            if lo <= worker_id < hi:
                return chunk, worker_id - lo
        raise IndexError(f"worker_id {worker_id} out of range [0, {self.n_workers})")

    def local_period(self, tau: int) -> np.ndarray:
        AT_LEAST_ONE("tau", tau)
        return np.concatenate(self._each("local_period", tau))

    def worker_state(self, worker_id: int) -> np.ndarray:
        chunk, local = self._locate(worker_id)
        return self._one(chunk, "worker_state", local)

    def set_worker_state(self, worker_id: int, flat: np.ndarray) -> None:
        chunk, local = self._locate(worker_id)
        self._one(chunk, "set_worker_state", local, flat)

    def mean_state(self) -> "tuple[np.ndarray, int]":
        """Fold every chunk's rows, in worker order, into one running sum.

        No ``(m, P)`` stack is built.  The fold is row-sequential, which is
        the reduction NumPy's own axis-0 mean performs, so the bytes equal
        ``slab.mean(axis=0)`` of the one bank, for float64 and float32 alike;
        per-chunk partial sums would reassociate the additions.  Where the
        ``(m, P)`` slab cut in column ranges fills a core's L2 per range
        (:func:`~repro.distributed.host.block_threads`), each pinned thread
        folds its own range of every chunk, all in one dispatch: every column
        still adds its rows in order.  One thread folds each chunk's rows as
        they arrive (the sharded pool's replies).
        """
        rows = iter(self._rows())
        first = next(rows)
        acc = np.empty(first.shape[1], first.dtype)
        k = min(host.usable_cores(), acc.size)
        t = host.block_threads(k, self.n_workers * (acc.size // k) * acc.itemsize)
        blocks = [first, *rows] if t > 1 else itertools.chain([first], rows)
        host.spread([partial(_fold_columns, acc, lo, hi, blocks) for lo, hi in shard_slices(acc.size, t)])
        acc /= acc.dtype.type(self.n_workers)
        return acc, self.n_workers * acc.nbytes

    def broadcast_state(self, flat: np.ndarray) -> None:
        self._each("broadcast_state", flat)

    def set_lr(self, lr: float) -> None:
        self._each("set_lr", lr)

    def reset_momentum(self) -> None:
        self._each("reset_momentum")

    def rng_fingerprint(self) -> dict:
        merged: dict = {"loaders": [], "streams": []}
        for part in self._each("rng_fingerprint"):
            merged["loaders"].extend(part["loaders"])
            merged["streams"].extend(part["streams"])
        return merged


class LoopWorkers(Chunks):
    """Chunks carried by in-process calls: ``loop``, and ``vectorized`` above L2.

    Takes the arguments of :class:`WorkerBank`.  Without ``n_chunks`` it is
    the loop: m chunks of one, worker i with its own replica from
    ``model_fn`` (``template``, when given, is worker 0's — the probe an
    ``"auto"`` fallback already built, so ``model_fn`` is consumed as in a
    direct build), its own shard, loader stream, slab and optimizer
    (:func:`chunk_payloads`), in float64 whatever ``bank_dtype`` says: the
    loop is the float64 check.  With ``n_chunks`` it is the vectorized bank
    cut into that many :func:`shard_slices` chunks (see :func:`vectorized`).

    Where :func:`chunk_threads` says so, :meth:`_each` steps the chunks on
    t pinned threads (:func:`~repro.distributed.host.run_pinned`): this
    thread runs every t-th chunk from chunk 0 and the process's pool the
    rest.  No chunk call is running once ``_each`` returns or raises; the
    first chunk that failed, in chunk order, raises here, as in a serial
    loop.  :meth:`close` joins the pool.
    """

    name = "loop"

    def __init__(
        self,
        model_fn: Callable[[], Module],
        shards: Sequence[Dataset | None],
        *,
        n_chunks: "int | None" = None,
        bank_dtype: str = "float64",
        **run,
    ):
        chunk = WorkerBank
        if n_chunks is None:
            n_chunks, bank_dtype, chunk = len(shards), "float64", _BankOfOne
        else:
            self.name = "vectorized"
        self._split(shards, n_chunks)
        self.banks: list[WorkerBank] = [
            chunk(None, **payload)
            for payload in chunk_payloads(model_fn, shards, self.bounds, bank_dtype=bank_dtype, **run)
        ]
        self._threads = chunk_threads(len(shards), len(self.bounds), self.banks[0].bank.slab[0].nbytes)

    def _each(self, op: str, *args) -> list:
        calls = [getattr(bank, op) for bank in self.banks]
        t = self._threads
        if t == 1:
            return [call(*args) for call in calls]
        shares = host.run_pinned([calls[i::t] for i in range(t)], *args)
        failed = [(i + t * len(done), err) for i, (done, err) in enumerate(shares) if err is not None]
        if failed:
            raise min(failed, key=lambda pair: pair[0])[1]
        results: list = [None] * len(calls)
        for i, (done, _) in enumerate(shares):
            results[i::t] = done
        return results

    def _one(self, chunk: int, op: str, *args):
        return getattr(self.banks[chunk], op)(*args)

    def _rows(self) -> "list[np.ndarray]":
        return [bank.bank.slab for bank in self.banks]

    def get_stacked_states(self) -> np.ndarray:
        return np.concatenate(self._rows())

    def materialize(self, flat: np.ndarray, worker_id: int = 0) -> Module:
        chunk, local = self._locate(worker_id)
        return self.banks[chunk].materialize(flat, local)

    def close(self) -> None:
        if self._threads > 1:
            host.close_pool()


def _fold_columns(acc: np.ndarray, lo: int, hi: int, blocks: Iterable[np.ndarray]) -> None:
    """Sum the rows of ``blocks``, in order, into ``acc[lo:hi]`` (the first row copied in, the rest added)."""
    out = acc[lo:hi]
    rows = (row[lo:hi] for block in blocks for row in block)
    out[...] = next(rows)
    for row in rows:
        out += row


def vectorized(
    model_fn: Callable[[], Module],
    shards: Sequence[Dataset | None],
    *,
    template: Module | None = None,
    batch_size: int = 32,
    bank_dtype: str = "float64",
    **run,
) -> WorkerBackend:
    """The ``"vectorized"`` backend: one :class:`WorkerBank` of m, or k chunks of it on threads.

    Takes the arguments of :class:`WorkerBank`.  k is :func:`vectorized_chunks`
    of the template's parameter row: at k = 1 this is the one bank, else the
    in-process carrier (:class:`LoopWorkers`) with k chunks.  A chunk is the
    same arithmetic on a slice of the worker axis, so the bytes are the one
    bank's either way.  The setup is checked first, so :func:`auto` can still
    fall back before a second ``model_fn()`` call or any stream is consumed.
    """
    if template is None:
        template = model_fn()
    check_bank_setup(template, shards, batch_size)
    k = vectorized_chunks(len(shards), template.num_parameters() * np.dtype(bank_dtype).itemsize)
    kwargs = dict(template=template, batch_size=batch_size, bank_dtype=bank_dtype, **run)
    if k == 1:
        return WorkerBank(model_fn, shards, **kwargs)
    return LoopWorkers(model_fn, shards, n_chunks=k, **kwargs)


def auto(model_fn: Callable[[], Module], shards: Sequence[Dataset | None], **run) -> WorkerBackend:
    """The ``"auto"`` backend: ``vectorized`` where one stacked graph can run
    the model and shards, else the loop (a model without a stacked definition,
    shards that clip the batch size differently).

    One probe template serves both: ``vectorized`` checks the setup before a
    second ``model_fn()`` call or any stream is consumed, and the loop takes
    the probe as worker 0's replica, so either resolution consumes
    ``model_fn`` and the RNG streams exactly as a direct build of it would.
    ``"sharded"`` is chosen by name only.
    """
    template = model_fn()
    try:
        return vectorized(model_fn, shards, template=template, **run)
    except BackendUnsupported:
        return LoopWorkers(model_fn, shards, template=template, **run)


BACKENDS.register("loop", LoopWorkers)
BACKENDS.register("vectorized", vectorized)
BACKENDS.register("auto", auto)
