"""The one local step, and the one backend shape: contiguous chunks of it.

:meth:`WorkerBank.local_step` is the only local SGD step in ``src/`` (paper
eq. 2): draw the stacked ``(k, B, ...)`` batch from a
:class:`~repro.data.bank_loader.BankLoader`, run the model's ``bank_loss``
over a :class:`~repro.nn.bank.ParameterBank`, back-propagate the summed
losses into the gradient slab, apply the fused
:class:`~repro.optim.bank_sgd.BankSGD` update to the ``(k, P)`` slab.

* :class:`WorkerBank` is one chunk of k workers: every replica's parameters
  stacked along a leading worker axis, all k mini-batches drawn at once,
  every step one graph of batched NumPy ops.  The chunk consumes each
  shard's RNG stream exactly as k per-worker loaders would, and stochastic
  modules (dropout, data-free noise models) are handed the per-worker
  streams k replicas would own (:func:`repro.nn.bank.attach_bank_streams`).
  It is not a backend: a backend builds it from one :func:`chunk_payloads`
  dict, ``WorkerBank(**payload)``, in-process or in a shard process.
* :class:`WorkerBackend` is every backend: the worker axis cut into
  contiguous ``[lo, hi)`` ranges, one ``WorkerBank`` per range.  It is the
  protocol :class:`~repro.distributed.cluster.SimulatedCluster` drives and
  its one implementation: the split (:func:`shard_slices`), the setup check
  (:func:`check_bank_setup`, once per build, *before* any RNG state is
  consumed, so ``backend="auto"`` falls back transparently), each chunk's
  construction (:func:`chunk_payloads`, which consumes ``model_fn`` and the
  streams in worker order, so any split gives the same bytes) and the
  cross-chunk calls, the row-sequential mean among them, over three carrier
  hooks.  A subclass is only its carrier.
* :class:`LoopWorkers` carries chunks by in-process calls.  ``"loop"`` is m
  chunks of one: the same step on m graphs of one replica.  What it checks
  independently is the worker axis, which is why a seeded run is
  byte-identical on either.  It also serves what one stacked graph cannot:
  ragged shards (each chunk clips its own batch) and modules that only write
  ``forward`` / ``loss`` (see :meth:`WorkerBank._replica_losses`).
  ``"vectorized"`` is k chunks of m/k (:func:`vectorized`): one chunk of m,
  or, where each chunk's slab fills a core's L2, one chunk per core stepped
  on the process's pinned threads (:func:`chunk_threads`,
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
from repro.distributed.backends import BackendUnsupported, WorkerView, generator_state
from repro.distributed import host
from repro.nn.bank import ParameterBank, attach_bank_streams, bank_compatible
from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.optim.bank_sgd import BankSGD
from repro.utils.domains import AT_LEAST_ONE

__all__ = [
    "WorkerBank",
    "WorkerBackend",
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
    :func:`chunk_threads` steps them concurrently, else 1 — one chunk of m."""
    k = min(host.usable_cores(), max(n_workers, 1))
    return k if chunk_threads(n_workers, k, row_bytes) > 1 else 1


def check_bank_setup(template: Module, shards: Sequence[Dataset | None], batch_size: int) -> None:
    """Raise :class:`BackendUnsupported` for a setup one stacked bank cannot run.

    That is a model without a stacked definition, a mix of data and ``None``
    shards, or shards that clip ``batch_size`` to different sizes.  It only
    reads: no RNG stream or ``model_fn`` call is consumed, so ``"auto"`` can
    fall back with pristine streams and an unperturbed factory.
    """
    if not bank_compatible(template):
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
    model_fn: Callable[[], Module],
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

    A payload is state, never a closure: it pickles, and
    ``WorkerBank(**payload)`` builds the chunk wherever it lands.  Ship the
    payload, not a built bank: pickling a bank would cut its parameters loose
    from its slab.
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


class WorkerBank:
    """One chunk: k stacked replicas + stacked optimizer + stacked batch sampler.

    Takes one :func:`chunk_payloads` dict.  ``template`` is the chunk's
    scratch module, its streams already attached.  A module without a stacked
    definition rides a chunk of one as a scratch replica
    (:meth:`_replica_losses`); the backend's setup check refuses it on every
    other chunk size.
    """

    def __init__(
        self,
        template: Module,
        shards: Sequence[Dataset | None],
        *,
        batch_size: int = 32,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        rngs: Sequence | None = None,
        bank_dtype: str = "float64",
    ):
        # The storage dtype of the stacked bank (and the design matrix).
        # float64 is the byte-identical default; float32 is the opt-in
        # reduced-precision mode, parity within tolerance only.
        dtype = np.dtype(bank_dtype)
        self.n_workers = len(shards)
        self._scratch_replica = self.n_workers == 1 and not bank_compatible(template)
        self.loader = None if shards[0] is None else BankLoader(
            shards, batch_size, rngs=rngs, dtype=None if dtype == np.float64 else dtype
        )
        self.model = template
        self.bank = ParameterBank(template, len(shards), dtype=dtype)
        self.optimizer = BankSGD(
            self.bank, lr=lr, momentum=momentum, weight_decay=weight_decay
        )
        self.local_steps_taken = 0

    # -- training ------------------------------------------------------------
    def local_step(self) -> np.ndarray:
        """One local mini-batch SGD update for all workers; per-worker losses."""
        X, y = self.loader.next_batches() if self.loader is not None else (None, None)
        self.optimizer.zero_grad()
        if self._scratch_replica:
            losses = self._replica_losses(X, y)
        else:
            stacked = self.model.bank_loss(None if X is None else Tensor(X), y, self.bank.state())
            # Summing the (k,) losses back-propagates each worker's own batch
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
        totals = np.zeros(self.n_workers)
        for _ in range(tau):
            totals += self.local_step()
        return totals / tau

    # -- parameter exchange ----------------------------------------------------
    def worker_state(self, worker_id: int) -> np.ndarray:
        return self.bank.worker_flat(worker_id)

    def set_worker_state(self, worker_id: int, flat: np.ndarray) -> None:
        self.bank.set_worker_flat(worker_id, flat)

    def broadcast_state(self, flat: np.ndarray) -> None:
        self.bank.broadcast_flat(flat)

    def set_stacked_states(self, states: np.ndarray) -> None:
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


class WorkerBackend:
    """A worker-execution backend: the m workers as contiguous :class:`WorkerBank` chunks.

    A backend owns the m model replicas, their data streams and their local
    optimizers; the cluster keeps the policy (when to average, the virtual
    clock, the event log).  All flat parameter vectors use the
    ``Module.get_flat_parameters`` layout.

    ``bounds`` holds each chunk's ``[lo, hi)`` worker range, in worker order.
    Every cross-chunk method below is written once, over three carrier
    hooks: :meth:`_each` calls a :class:`WorkerBank` method by name on every
    chunk (results in chunk order), :meth:`_one` on one chunk, and
    :meth:`_rows` yields each chunk's parameter rows.  A subclass is its
    carrier — in-process calls (:class:`LoopWorkers`) or commands over a
    pipe (:class:`~repro.distributed.sharded_bank.ShardedBank`) — and also
    writes :meth:`materialize` and :meth:`close`.
    """

    #: The registered name of what runs: ``"loop"``, ``"vectorized"`` or ``"sharded"``.
    name: str
    bounds: "list[tuple[int, int]]"
    #: One :class:`WorkerView` per worker, in worker order.
    workers: "tuple[WorkerView, ...]"

    def _payloads(
        self,
        model_fn: Callable[[], Module],
        shards: Sequence[Dataset | None],
        n_chunks: int,
        *,
        stacked: bool = True,
        template: Module | None = None,
        batch_size: int = 32,
        **run,
    ) -> list[dict]:
        """Cut the workers into ``n_chunks`` ranges and return each chunk's ``WorkerBank`` arguments.

        The one build path of every backend.  A ``stacked`` backend (all but
        the loop, whose chunks of one run any setup) first checks the setup
        over all m shards, so whether it runs does not depend on the chunk
        count; the check only reads, so a refused build has consumed nothing
        past ``template`` (``model_fn()`` when ``None``).
        """
        if not shards:
            raise ValueError("need at least one shard (use [None, ...] for data-free runs)")
        self.bounds = shard_slices(len(shards), n_chunks)
        self._shard_sizes = (
            None if any(shard is None for shard in shards) else [len(shard) for shard in shards]
        )
        self.workers = tuple(WorkerView(self, i) for i in range(len(shards)))
        if template is None:
            template = model_fn()
        if stacked:
            check_bank_setup(template, shards, batch_size)
        return chunk_payloads(model_fn, shards, self.bounds, template=template, batch_size=batch_size, **run)

    # -- carrier hooks -------------------------------------------------------------
    def _each(self, op: str, *args) -> list:  # pragma: no cover - overridden
        """``WorkerBank.<op>(*args)`` on every chunk; the results in chunk order."""
        raise NotImplementedError

    def _one(self, chunk: int, op: str, *args):  # pragma: no cover - overridden
        """``WorkerBank.<op>(*args)`` on chunk ``chunk`` alone."""
        raise NotImplementedError

    def _rows(self) -> "Iterable[np.ndarray]":  # pragma: no cover - overridden
        """Each chunk's ``(k, P)`` parameter rows, in chunk order (read before the next step)."""
        raise NotImplementedError

    def materialize(self, flat: np.ndarray, worker_id: int = 0) -> Module:  # pragma: no cover - overridden
        """A scratch module holding ``flat`` and ``worker_id``'s buffers.

        Never worker state: the slabs are the ground truth on every backend,
        so loading the module (or a caller writing to it) changes no worker.
        """
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - overridden
        """Release the carrier's resources (shard processes, chunk threads).  Idempotent."""
        raise NotImplementedError

    # -- the protocol --------------------------------------------------------------
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

    def _locate(self, worker_id: int) -> tuple[int, int]:
        """Map a global worker id to ``(chunk, local_id)``."""
        for chunk, (lo, hi) in enumerate(self.bounds):
            if lo <= worker_id < hi:
                return chunk, worker_id - lo
        raise IndexError(f"worker_id {worker_id} out of range [0, {self.n_workers})")

    def local_period(self, tau: int) -> np.ndarray:
        """Run τ local SGD steps on every worker; per-worker mean losses ``(m,)``."""
        AT_LEAST_ONE("tau", tau)
        return np.concatenate(self._each("local_period", tau))

    def worker_state(self, worker_id: int) -> np.ndarray:
        """Flat copy of one worker's parameters (the views' read hook)."""
        chunk, local = self._locate(worker_id)
        return self._one(chunk, "worker_state", local)

    def set_worker_state(self, worker_id: int, flat: np.ndarray) -> None:
        """Overwrite one worker's parameters (the views' write hook)."""
        chunk, local = self._locate(worker_id)
        self._one(chunk, "set_worker_state", local, flat)

    def get_stacked_states(self) -> np.ndarray:
        """All worker states as one ``(m, P)`` array (row i = worker i)."""
        return np.concatenate(list(self._rows()))

    def set_stacked_states(self, states: np.ndarray) -> None:
        """Scatter per-worker parameters: row i of ``(m, P)`` goes to worker i.

        The inverse of :meth:`get_stacked_states`, used by the decentralized
        paths (gossip mixing, async server pulls) where workers end a round
        with *different* states instead of one broadcast vector.  One call
        per chunk, with its row slice.
        """
        if states.shape[0] != self.n_workers:
            raise ValueError(
                f"expected {self.n_workers} state rows, got {states.shape[0]}"
            )
        for chunk, (lo, hi) in enumerate(self.bounds):
            self._one(chunk, "set_stacked_states", states[lo:hi])

    def mean_state(self) -> "tuple[np.ndarray, int]":
        """Uniform mean of all worker states and the gathered byte count.

        Returns ``(mean, nbytes)`` where ``mean`` equals
        ``get_stacked_states().mean(axis=0)`` *bitwise* and ``nbytes`` is the
        size of the ``(m, P)`` stack (what ``bytes_averaged_total`` counts).
        Every chunk's rows fold, in worker order, into one running sum, and
        no ``(m, P)`` stack is built.  The fold is row-sequential, which is
        the reduction NumPy's own axis-0 mean performs, so the bytes equal
        ``slab.mean(axis=0)`` of one bank of m, for float64 and float32 alike;
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
        """Overwrite every worker's parameters with one flat vector."""
        self._each("broadcast_state", flat)

    def set_lr(self, lr: float) -> None:
        self._each("set_lr", lr)

    def reset_momentum(self) -> None:
        self._each("reset_momentum")

    def rng_fingerprint(self) -> dict:
        """Positions of every per-worker RNG stream, in one comparable dict.

        ``{"loaders": [state_or_None per worker], "streams": [[state per
        stream module] per worker]}`` where each state is the generator's
        ``bit_generator.state`` dict.  Equal fingerprints mean the backends
        have consumed every stream identically — the equivalence matrix
        (``tests/conftest.py``) compares these with ``==`` across backends.
        """
        merged: dict = {"loaders": [], "streams": []}
        for part in self._each("rng_fingerprint"):
            merged["loaders"].extend(part["loaders"])
            merged["streams"].extend(part["streams"])
        return merged


class LoopWorkers(WorkerBackend):
    """Chunks carried by in-process calls: ``loop``, and ``vectorized``.

    Takes the arguments of :class:`WorkerBank`, with ``model_fn`` for its
    template.  Without ``n_chunks`` it is the loop: m chunks of one, worker
    i with its own replica from ``model_fn`` (``template``, when given, is
    worker 0's — the probe an ``"auto"`` fallback already built, so
    ``model_fn`` is consumed as in a direct build), its own shard, loader
    stream, slab and optimizer (:func:`chunk_payloads`), in float64 whatever
    ``bank_dtype`` says: the loop is the float64 check.  With ``n_chunks``
    it is the vectorized bank cut into that many :func:`shard_slices` chunks
    (see :func:`vectorized`).

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
        loop = n_chunks is None
        if loop:
            n_chunks, bank_dtype = len(shards), "float64"
        else:
            self.name = "vectorized"
        payloads = self._payloads(model_fn, shards, n_chunks, stacked=not loop, bank_dtype=bank_dtype, **run)
        self.banks = [WorkerBank(**payload) for payload in payloads]
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
    bank_dtype: str = "float64",
    **run,
) -> LoopWorkers:
    """The ``"vectorized"`` backend: the in-process carrier with k = :func:`vectorized_chunks` chunks.

    Takes the arguments of :class:`LoopWorkers`.  k comes from the template's
    parameter row: one chunk of m, or one chunk per core where each chunk's
    slab fills a core's L2.  A chunk is the same arithmetic on a slice of the
    worker axis, so the bytes do not depend on k.  The setup is checked
    before a second ``model_fn()`` call or any stream is consumed, so
    :func:`auto` can still fall back.
    """
    if template is None:
        template = model_fn()
    k = vectorized_chunks(len(shards), template.num_parameters() * np.dtype(bank_dtype).itemsize)
    return LoopWorkers(model_fn, shards, n_chunks=k, template=template, bank_dtype=bank_dtype, **run)


def auto(model_fn: Callable[[], Module], shards: Sequence[Dataset | None], **run) -> LoopWorkers:
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
