"""The sharded worker bank: m replicas split across a persistent process pool.

``ShardedBank`` is the third execution backend.  It partitions the m workers
into contiguous shards and runs one vectorized
:class:`~repro.distributed.worker_bank.WorkerBank` per shard inside a
persistent pool of worker *processes*, so banks larger than one process'
memory (or one core's arithmetic throughput) split across the machine while
every byte of the trajectory stays identical to the single-process bank —
and hence to the loop's m banks of one.

The parent consumes ``model_fn`` and the worker RNG streams exactly as the
vectorized backend would (one template plus m-1 stream-harvest replicas when
stochastic modules exist), then ships each shard its slice of datasets,
loader generators, and stream generators as a picklable payload — pure
*state*, never a closure: ``model_fn`` stays in the parent.  Each child
rebuilds a shard-local ``WorkerBank`` around them with
:func:`repro.nn.bank.attach_stream_generators`.

Equivalence is structural, not approximate: a shard-local bank performs the
same per-slice NumPy arithmetic on the same per-worker streams the full bank
would, the parent concatenates shard states back in worker order, and the
averaging collective runs in the parent on the identical ``(m, P)`` array —
so parameters, buffers, losses, and RNG stream positions are byte-identical
across all three backends (``tests/test_sharded_bank.py`` pins this down).

One carrier, one request path: every shard is a forked child running
:meth:`_ShardServer.serve` behind a ``multiprocessing`` Pipe —
``send((op, args))`` / ``recv() -> (status, result)`` — and every command
waits for its own replies (:meth:`ShardedBank._replies`).  A sweep cell under
``--jobs N`` may run in a non-daemonic helper process, so it forks its
shard children like any other parent.  The ``(m, P)`` state bank
lives in the shared-memory plane of :mod:`repro.distributed.transport`: a
shard answers a gather by writing its rows in place and replying ``None``,
and the Pipes carry only tiny control tuples.  When the segments cannot be
allocated the run falls back to pickling the rows into the reply
(:attr:`ShardedBank.transport` reports ``"shm"`` or ``"pipe"``).  Replies are
consumed in shard index order on either plane, so bytes never depend on it.

Lifecycle: there is one construction path.  The pool forks *empty* servers
(no bank), and a ``rebuild`` command then ships every shard its payload;
:meth:`ShardedBank.rebuild` sends the same command to a live pool, so a
fresh and a reused pool are equal by construction.  A fork has NumPy and
``repro`` loaded already; :func:`_shard_main` puts back the few things a
fresh interpreter would not have inherited, and sizes the child's BLAS pool
to ``usable cores // shards`` threads: n children × a cores-wide pool each is
3× slower than the vectorized bank on the same machine.  The pool lives until
:meth:`ShardedBank.close` (idempotent; whoever built the backend — a
:class:`~repro.distributed.reuse.BackendHandle`, or the cluster that built
one from a bare name — calls it, with a ``weakref.finalize`` safety net).
Shared-memory segments are created and unlinked exactly once, by the parent;
children only close their mappings.  Children are daemonic, so an abandoned
backend can never outlive its parent.  A shard that
*errors* keeps serving and the failure surfaces as one ``RuntimeError`` after
every reply of the round is drained; a shard whose connection is *lost* (the
child died, or its reply does not unpickle) raises at once, names the shard
and the op, and leaves a pool that can only be closed.
"""

from __future__ import annotations

import ctypes
import glob
import multiprocessing
import os
import pickle
import signal
import traceback
import weakref
from multiprocessing import resource_tracker
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.api.registries import BACKENDS
from repro.data.bank_loader import common_effective_batch
from repro.data.synthetic import Dataset
from repro.distributed.backends import (
    BackendUnsupported,
    WorkerBackend,
    WorkerView,
    merge_fingerprints,
)
from repro.distributed.transport import ShmStatePlane
from repro.distributed.worker_bank import WorkerBank
from repro.nn.bank import attach_bank_streams, bank_compatible
from repro.nn.layers import Module
import repro.obs.emit
from repro.obs.emit import count, span
from repro.utils.seeding import check_random_state

__all__ = ["ShardedBank", "shard_slices", "usable_cores"]

#: What sizes a BLAS thread pool when NumPy loads; a user who exported one
#: keeps that size in every process (see :func:`_set_blas_threads`).
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def shard_slices(n_workers: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` worker ranges for each of ``n_shards`` shards.

    Sizes follow ``np.array_split``: the first ``n_workers % n_shards``
    shards get one extra worker, so any (m, shards) pair yields a balanced,
    deterministic partition.  ``n_shards`` is clamped to ``n_workers`` so no
    shard is ever empty.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n_workers)
    base, extra = divmod(n_workers, n_shards)
    slices, lo = [], 0
    for index in range(n_shards):
        hi = lo + base + (1 if index < extra else 0)
        slices.append((lo, hi))
        lo = hi
    return slices


def usable_cores() -> int:
    """CPUs this process may run on (its affinity mask under ``taskset`` or a
    cpuset container), not the host's ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform (macOS, Windows)
        return os.cpu_count() or 1


def _set_blas_threads(n_threads: int) -> "int | None":
    """Resize this process's loaded BLAS pool to ``n_threads``; the previous size, or ``None``.

    For a process whose BLAS is loaded already (a forked shard or helper,
    the parent beside them): ctypes on NumPy's bundled scipy-openblas.
    Where there is none, or the user exported one of :data:`_BLAS_ENV`, it
    does nothing and returns ``None``.
    """
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    if len(libs) != 1 or any(name in os.environ for name in _BLAS_ENV):
        return None
    lib = ctypes.CDLL(libs[0])
    get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    previous = get_threads()
    set_threads(n_threads)
    return previous


class _ShardServer:
    """Executes shard commands against one shard-local ``WorkerBank``.

    :func:`_shard_main` runs :meth:`serve` over a Pipe in a forked child.  A
    server starts empty; the ``rebuild`` command gives it a bank (and swaps
    in a fresh one for each later run of a reused pool).
    """

    bank = None
    _plane: "ShmStatePlane | None" = None
    _bounds: "tuple[int, int] | None" = None

    def serve(self, recv: Callable[[], tuple], send: Callable[[tuple], None]) -> None:
        """Answer ``(op, args)`` commands with ``(status, result)`` until ``close``."""
        try:
            while True:
                try:
                    op, args = recv()
                except (EOFError, KeyboardInterrupt):
                    return
                if op == "close":
                    send(("ok", None))
                    return
                try:
                    send(("ok", self.execute(op, args)))
                except Exception:  # noqa: BLE001 - errors travel back, the server survives
                    send(("error", traceback.format_exc()))
        finally:
            # Unmap (never unlink) the shm plane on any exit path, so the
            # parent's unlink is the last reference going away.
            self.close_plane()

    def close_plane(self) -> None:
        """Unmap this shard's plane attachment (never unlinks; idempotent)."""
        if self._plane is not None:
            self._plane.close()
            self._plane = None

    def _rebuild(self, payload: dict, plane_spec: "dict | None", bounds: tuple) -> None:
        """Swap in a bank built from ``payload``; own plane rows ``bounds``."""
        # The parent destroyed (and possibly resized) the previous run's
        # plane, so drop the stale attachment first.  Attach-only: the
        # parent is the sole owner/unlinker of the segments.
        self.close_plane()
        # The parent ships stream_rngs whenever the template has stream
        # modules, so WorkerBank never falls back to calling model_fn here.
        self.bank = WorkerBank(model_fn=None, **payload)
        if plane_spec is not None:
            self._plane, self._bounds = ShmStatePlane.attach(plane_spec), bounds

    def execute(self, op: str, args: tuple):
        bank = self.bank
        if op == "local_period":
            return bank.local_period(*args)
        if op in ("get_states", "sync_states"):
            # The parent names the op after the plane it allocated; what
            # comes back depends on the plane this shard holds.
            if self._plane is None:
                # The live slab, not a copy: every consumer copies it
                # (pickling over the pipe, concatenation in the parent) or
                # only reads it (the in-process mean fold) before the next
                # command can step.
                return bank.bank.slab
            # shm gather: write this shard's rows into the shared plane and
            # ack with no payload — the parent reads its own mapping.
            lo, hi = self._bounds
            self._plane.states[lo:hi] = bank.bank.slab
            return None
        if op == "broadcast":
            return bank.broadcast_state(*args)
        if op == "broadcast_shm":
            # shm broadcast: the parent wrote the averaged model into the
            # plane before sending this command; copy out so the bank never
            # aliases the shared mapping.
            return bank.broadcast_state(np.array(self._plane.bcast, dtype=float))
        if op == "get_worker_flat":
            return bank.bank.worker_flat(*args)
        if op == "set_worker_flat":
            return bank.bank.set_worker_flat(*args)
        if op == "get_worker_buffers":
            return bank.bank.worker_buffers(*args)
        if op == "set_lr":
            return bank.set_lr(*args)
        if op == "reset_momentum":
            return bank.reset_momentum()
        if op == "rng_fingerprint":
            return bank.rng_fingerprint()
        if op == "rebuild":
            return self._rebuild(*args)
        raise ValueError(f"unknown shard command {op!r}")


def _shard_main(conn, inherited: list, n_shards: int) -> None:
    """Child entry point: serve an (initially empty) shard over ``conn``.

    A fork starts from the parent's state, so first this puts back what a
    freshly started interpreter would have had.  It closes the parent's
    ``inherited`` pipe ends (its own and those of the shards forked before
    it): one left open would keep a shard from seeing EOF when the parent
    dies.  It turns emission off, because the parent's sinks are not this
    process's, takes the default ``SIGTERM`` action, and sizes its BLAS pool
    to its share of the cores.
    """
    for end in inherited:
        end.close()
    repro.obs.emit._active = None
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _set_blas_threads(max(1, usable_cores() // n_shards))
    _ShardServer().serve(conn.recv, conn.send)


class ShardedBank(WorkerBackend):
    """m replicas as ``n_shards`` vectorized banks on a persistent process pool.

    Parameters
    ----------
    model_fn, shards, batch_size, lr, momentum, weight_decay, rngs, template, bank_dtype:
        As for :class:`~repro.distributed.worker_bank.WorkerBank`; the
        parent consumes ``model_fn`` and the RNG streams exactly as the
        single-process bank would, so ``"sharded"`` and ``"vectorized"``
        runs are byte-identical.
    n_shards:
        Worker processes to partition the m replicas over (clamped to m).

    :attr:`transport` reports the current run's data plane: ``"shm"`` (the
    shared-memory state plane) or ``"pipe"`` (the fallback when segment
    allocation fails).  Trajectories are byte-identical either way.
    """

    name = "sharded"

    def __init__(
        self,
        model_fn: Callable[[], Module],
        shards: Sequence[Dataset | None],
        *,
        n_shards: int = 2,
        **run,
    ):
        self._conns, self._procs = [], []
        self._plane: "ShmStatePlane | None" = None
        self._finalizer: "weakref.finalize | None" = None
        self._closed = False
        # Validation and RNG consumption come first: BackendUnsupported is
        # raised before any process forks.
        payloads = self._prepare(model_fn, shards, n_shards=n_shards, **run)
        try:
            self._open_pool()
            self._ship(payloads)
        except BaseException:
            self.close()
            raise

    def _open_pool(self) -> None:
        """Fork one empty shard server per slice (the single fork site).

        The parent's resource tracker runs before the first fork, so every
        shard shares it.  A shard that started its own, when it attached the
        shm plane, would unlink the parent's segments when it exits.
        """
        resource_tracker.ensure_running()
        ctx = multiprocessing.get_context("fork")
        for _ in range(self.n_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_main, args=(child_conn, [*self._conns, parent_conn], self.n_shards), daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _ship(self, payloads: list) -> None:
        """Give every (fresh or reused) shard server this run's bank.

        (Re)allocates the shm plane for the run's ``(m, P)`` geometry — a
        run whose allocation fails goes over the pipes, the next one tries
        again — re-arms the finalizer, which captures the plane, and sends
        each shard the ``rebuild`` command with its payload and its plane rows.
        """
        if self._plane is not None:
            # Children drop their stale attachment inside the rebuild below;
            # POSIX keeps unlinked segments mapped until then.
            self._plane.destroy()
            self._plane = None
        self.transport = self._create_plane()
        if self._finalizer is not None:
            self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, list(self._conns), list(self._procs), self._plane
        )
        spec = None if self._plane is None else self._plane.spec()
        each = [(payload, spec, bounds) for payload, bounds in zip(payloads, self.shard_slices)]
        for _ in self._replies("rebuild", each=each):
            pass

    def _create_plane(self) -> str:
        """Allocate the shm state plane; return the transport actually secured.

        Allocation failure (a full ``/dev/shm``, or an interpreter without
        ``multiprocessing.shared_memory``) downgrades to ``"pipe"`` rather
        than failing the run.
        """
        try:
            self._plane = ShmStatePlane.create(
                n_workers=len(self.workers),
                n_params=self._initial_flat.size,
                state_dtype=self._bank_dtype,
            )
        except (OSError, ValueError, RuntimeError):
            return "pipe"
        return "shm"

    def _prepare(
        self,
        model_fn: Callable[[], Module],
        shards: Sequence[Dataset | None],
        *,
        n_shards: int,
        batch_size: int = 32,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        rngs: Sequence | None = None,
        template: Module | None = None,
        bank_dtype: str = "float64",
    ) -> list[dict]:
        """Validate the setup, set all backend state, return shard payloads.

        Shared by construction and :meth:`rebuild`: everything except the
        pool itself — validation, RNG/stream consumption, the shard
        partition, per-shard payloads (``WorkerBank`` keyword arguments) and
        this object's bookkeeping — happens here, so a rebuilt backend is
        state-identical to a freshly constructed one.
        """
        if not shards:
            raise ValueError("need at least one shard (use [None, ...] for data-free runs)")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if rngs is None:
            rngs = [None] * len(shards)
        if len(rngs) != len(shards):
            raise ValueError(f"{len(shards)} shards but {len(rngs)} RNG streams")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise BackendUnsupported("shard processes are forked, and this platform cannot fork")
        if template is None:
            template = model_fn()
        # Every unsupported-setup check runs before any RNG stream (or extra
        # model_fn call) is consumed, so an "auto" escalation that lands here
        # can still fall back to the vectorized bank with pristine streams.
        if not bank_compatible(template):
            raise BackendUnsupported(
                f"model {type(template).__name__} has no param-bank forward path; "
                f"use the 'loop' backend"
            )
        data_free = all(shard is None for shard in shards)
        if not data_free and any(shard is None for shard in shards):
            raise BackendUnsupported(
                "the sharded backend needs a dataset shard per worker "
                "(or None for every worker on data-free objectives)"
            )
        if not data_free:
            # Same rule each shard-local BankLoader will enforce, checked in
            # the parent so an unstackable setup raises BackendUnsupported
            # (and "auto" can fall back) before any process is forked.
            try:
                effective_batch = common_effective_batch(shards, batch_size)
            except ValueError as err:
                raise BackendUnsupported(f"stacked sampling unavailable: {err}") from err
        try:
            pickle.dumps(template)
        except Exception as err:  # noqa: BLE001 - any pickling failure means loop-only
            raise BackendUnsupported(
                f"model {type(template).__name__} is not picklable and cannot ship "
                f"to shard processes ({err}); use the 'vectorized' or 'loop' backend"
            ) from err

        m = len(shards)
        self.model = template
        self._initial_flat = template.get_flat_parameters()
        self._bank_dtype = bank_dtype
        self._has_buffers = any(True for _ in template.named_buffers())
        self._shard_sizes = None if data_free else [len(shard) for shard in shards]
        self._batch_size = 0 if data_free else effective_batch
        self.shard_slices = shard_slices(m, n_shards)
        self.n_shards = len(self.shard_slices)

        # Consume model_fn / streams exactly as the vectorized bank would:
        # stochastic modules get the m per-worker generators m replicas
        # would own; each shard then receives its contiguous slice.
        stream_mods = list(template.stream_modules())
        if stream_mods:
            attach_bank_streams(template, [model_fn() for _ in range(m - 1)])
        # Loader generators materialize in worker order (identical seed-
        # sequence consumption to handing each worker its own BatchLoader).
        loader_rngs = None if data_free else [check_random_state(r) for r in rngs]

        payloads = []
        for lo, hi in self.shard_slices:
            payloads.append({
                "template": template,
                "shards": list(shards[lo:hi]),
                "batch_size": batch_size,
                "lr": lr,
                "momentum": momentum,
                "weight_decay": weight_decay,
                "rngs": None if loader_rngs is None else loader_rngs[lo:hi],
                "stream_rngs": (
                    [[mod._bank_rngs[i] for i in range(lo, hi)] for mod in stream_mods]
                    if stream_mods
                    else None
                ),
                "bank_dtype": bank_dtype,
            })

        self.workers = tuple(WorkerView(self, i) for i in range(m))
        return payloads

    def rebuild(
        self,
        model_fn: Callable[[], Module],
        shards: Sequence[Dataset | None],
        *,
        n_shards: int = 2,
        **run,
    ) -> "ShardedBank":
        """Reuse the live pool for a fresh run instead of forking a new one.

        Takes the arguments of the constructor and the constructor's path
        minus the fork — :meth:`_prepare`, then :meth:`_ship` — so
        trajectories are byte-identical to fresh-pool runs by construction.
        The worker count may change between runs; the shard *count* must
        match the live pool (a pool cannot grow or shrink processes).
        """
        self._ensure_open()
        if not shards:
            raise ValueError("need at least one shard (use [None, ...] for data-free runs)")
        live = self.pool_size
        requested = len(shard_slices(len(shards), n_shards))
        if requested != live:
            raise ValueError(
                f"cannot rebuild a {live}-process pool into {requested} shard(s); "
                f"construct a fresh ShardedBank instead"
            )
        self._ship(self._prepare(model_fn, shards, n_shards=n_shards, **run))
        return self

    # -- pool plumbing -------------------------------------------------------
    @property
    def pool_size(self) -> int:
        """Number of live shard processes."""
        return len(self._conns)

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedBank is closed; its process pool is gone")

    def _replies(self, op: str, *args, only: "int | None" = None, each=None) -> Iterator:
        """The one request path: send ``op``, yield ``(shard, result)`` in shard order.

        Every addressed shard (all of them, or ``only`` one) receives the
        command — with the shared ``args``, or its own tuple from ``each`` —
        before any reply is awaited, so compute-bound commands genuinely
        overlap across the pool, and replies are yielded as they land so a
        consumer can work on shard i while shard i+1 is still busy.  Every
        reply is drained even when some shard errors — a partially-read
        round would leave stale replies queued and silently desynchronize
        the protocol — and the errors are raised once, after the last
        reply.  A *lost* connection raises at once, see :func:`_lost`; so
        does a reply that arrived whole but does not unpickle.
        """
        shards = range(len(self._conns)) if only is None else (only,)
        for index in shards:
            try:
                self._conns[index].send((op, args if each is None else each[index]))
            except (EOFError, OSError) as err:
                raise _lost(index, op, err) from err
        errors = []
        for index in shards:
            try:
                status, result = self._conns[index].recv()
            except (EOFError, OSError, pickle.UnpicklingError) as err:
                raise _lost(index, op, err) from err
            if status == "ok":
                yield index, result
            else:
                errors.append(f"shard process {index} failed:\n{result}")
        if errors:
            raise RuntimeError("\n".join(errors))

    def _rpc_scope(self, op: str, shard: "int | str" = "all"):
        """The span of one parent-side RPC (its event also declares the
        latency histogram and the ``shard_rpc.<op>`` profile row).

        Shard servers never report into the parent's tracer or profiler;
        this scope measures the full round-trip (serialize, compute,
        deserialize) as the parent observes it.
        """
        self._ensure_open()
        return span("shard_rpc", op=op, shard=shard, transport=self.transport)

    def _request_all(self, op: str, *args) -> list:
        """One command to every shard; the results in shard order."""
        with self._rpc_scope(op):
            return [result for _, result in self._replies(op, *args)]

    def _request_shard(self, shard_index: int, op: str, *args):
        with self._rpc_scope(op, shard_index):
            ((_, result),) = self._replies(op, *args, only=shard_index)
            return result

    def _locate(self, worker_id: int) -> tuple[int, int]:
        """Map a global worker id to ``(shard_index, local_id)``."""
        for index, (lo, hi) in enumerate(self.shard_slices):
            if lo <= worker_id < hi:
                return index, worker_id - lo
        raise IndexError(f"worker_id {worker_id} out of range [0, {len(self.workers)})")

    def _worker_request(self, worker_id: int, op: str, *args):
        shard_index, local_id = self._locate(worker_id)
        return self._request_shard(shard_index, op, local_id, *args)

    def _count_moved(self, nbytes: int) -> None:
        """Charge state bytes to the plane that moved them."""
        count("bytes_over_pipe" if self._plane is None else "bytes_via_shm", nbytes)

    def close(self) -> None:
        """Shut the pool down; safe to call more than once.

        The shm state plane is destroyed (closed *and* unlinked) here — the
        parent is its sole owner, so this is the exactly-once unlink site
        (with the ``weakref.finalize`` safety net covering abandonment).
        """
        if self._closed:
            return
        self._closed = True
        if self._finalizer is not None:
            self._finalizer.detach()
        _shutdown_pool(self._conns, self._procs, self._plane)
        self._plane = None

    # -- WorkerBackend protocol ----------------------------------------------
    @property
    def batch_size(self) -> int:
        return self._batch_size

    def shard_sizes(self) -> "list[int] | None":
        return None if self._shard_sizes is None else list(self._shard_sizes)

    def initial_state(self) -> np.ndarray:
        return self._initial_flat.copy()

    def worker_state(self, worker_id: int) -> np.ndarray:
        return self._worker_request(worker_id, "get_worker_flat")

    def set_worker_state(self, worker_id: int, flat: np.ndarray) -> None:
        self._worker_request(worker_id, "set_worker_flat", np.asarray(flat, dtype=float))

    def local_period(self, tau: int) -> np.ndarray:
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        return np.concatenate(self._request_all("local_period", tau))

    @property
    def _gather_op(self) -> str:
        # The op *name* follows the plane the parent allocated (it is a span
        # field and a profile path of every sharded trace); whether the rows
        # ride in the reply or in the plane is the reply's to say.
        return "get_states" if self._plane is None else "sync_states"

    def get_stacked_states(self) -> np.ndarray:
        # Shards are contiguous worker ranges, so concatenation in shard
        # order *is* worker order — the (m, P) array the averaging collective
        # reduces is byte-identical to the single-process bank's.  Over the
        # shm plane the children wrote their rows in place and the parent
        # copies out of its own mapping; the pipes carried only empty acks.
        with span("shard_gather"):
            blocks = self._request_all(self._gather_op)
            if self._plane is None:
                states = np.concatenate(blocks, axis=0)
            else:
                states = self._plane.states.copy()
        self._count_moved(states.nbytes)
        return states

    def mean_state(self) -> "tuple[np.ndarray, int]":
        """Overlapped uniform mean: reduce each shard's rows as they land.

        Instead of materializing the full ``(m, P)`` stack and then calling
        ``mean(axis=0)``, the parent folds each shard's block into a running
        sum the moment that shard's reply (or shm ready-ack) arrives, while
        later shards are still computing or in flight.  The reduction visits
        rows strictly in worker order — NumPy's own axis-0 mean is the same
        row-sequential accumulation — so the result is bit-identical to
        ``get_stacked_states().mean(axis=0)``; per-shard partial sums would
        reassociate the additions and are deliberately avoided.
        """
        acc: "np.ndarray | None" = None
        nbytes = 0
        with self._rpc_scope("mean_state"), span("shard_gather"):
            for shard, reply in self._replies(self._gather_op):
                lo, hi = self.shard_slices[shard]
                block = self._plane.states[lo:hi] if reply is None else reply
                acc = _fold_rows(acc, block)
                nbytes += block.nbytes
        self._count_moved(nbytes)
        acc /= acc.dtype.type(len(self.workers))
        return acc, nbytes

    def broadcast_state(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if self._plane is None:
            self._request_all("broadcast", flat)
        else:
            self._plane.bcast[:] = flat
            self._request_all("broadcast_shm")
        self._count_moved(flat.nbytes)

    def set_lr(self, lr: float) -> None:
        self._request_all("set_lr", lr)

    def reset_momentum(self) -> None:
        self._request_all("reset_momentum")

    def worker_buffers(self, worker_id: int) -> dict:
        """Copies of one worker's buffer slices (fetched from its shard)."""
        return self._worker_request(worker_id, "get_worker_buffers")

    def materialize(self, flat: np.ndarray, worker_id: int = 0) -> Module:
        self.model.set_flat_parameters(flat)
        if self._has_buffers:
            # Running statistics live in the shard servers; fetch the
            # requested worker's slices so eval sees that worker's stats.
            # The parent template is scratch — the shard banks hold the
            # ground truth — so nothing is saved or restored.
            for name, value in self.worker_buffers(worker_id).items():
                self.model.set_buffer(name, value)
        return self.model

    def rng_fingerprint(self) -> dict:
        return merge_fingerprints(self._request_all("rng_fingerprint"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedBank(n_workers={len(self.workers)}, n_shards={self.n_shards}, "
            f"transport={self.transport}, closed={self._closed})"
        )


def _lost(shard: int, op: str, err: Exception) -> RuntimeError:
    """The error for a connection that died under ``op`` (a killed child, a garbled reply).

    Unlike a shard *error*, it is raised without waiting for the other
    shards' replies: the pool cannot be used again, only closed.
    """
    return RuntimeError(
        f"shard process {shard} failed:\nconnection lost during {op!r} ({err!r})"
    )


def _fold_rows(acc: "np.ndarray | None", block: np.ndarray) -> np.ndarray:
    """Fold one shard's ``(k, P)`` state block into the running row sum.

    Row-sequential accumulation in worker order is exactly the reduction
    ``np.mean(states, axis=0)`` performs on the concatenated bank, so the
    overlapped average stays bit-identical to the materialize-then-mean
    path for float64 and float32 alike.
    """
    for row in block:
        if acc is None:
            acc = row.copy()
        else:
            acc += row
    return acc


def _shutdown_pool(conns: list, procs: list, plane: "ShmStatePlane | None" = None) -> None:
    """Best-effort clean shutdown: ask politely, then join, then terminate.

    ``EOFError`` joins ``BrokenPipeError`` (an ``OSError``) in the send
    guard: a connection torn down mid-interpreter-shutdown — or pointing at
    a child that died — can surface either, and a second ``close()`` after
    a crashed child must stay silent.  The shm plane (if any) is destroyed
    last, after every child had its chance to unmap.
    """
    for conn in conns:
        try:
            conn.send(("close", ()))
        except (OSError, EOFError, ValueError):
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - stuck child safety net
            proc.terminate()
            proc.join(timeout=1.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
    if plane is not None:
        plane.destroy()


BACKENDS.register("sharded", ShardedBank)
