"""The sharded worker bank: m replicas split across a persistent process pool.

``ShardedBank`` is the one backend shape of :mod:`repro.distributed.worker_bank`
(:class:`~repro.distributed.worker_bank.WorkerBackend`) with its chunks in a
persistent pool of worker *processes*.  It partitions the m workers into
contiguous shards and runs one
:class:`~repro.distributed.worker_bank.WorkerBank` chunk per shard, so banks
larger than one process' memory (or one core's arithmetic throughput) split
across the machine while every byte of the trajectory stays identical to the
in-process chunks — and hence to the loop's m chunks of one.

The parent builds every shard's bank arguments on the backends' one build
path (:meth:`~repro.distributed.worker_bank.WorkerBackend._payloads`), as the
loop builds its chunks of one: a template per shard from ``model_fn`` and, for
stochastic modules, that shard's stream replicas, all in worker order.  A
payload is pure *state* — the template, datasets, loader and stream
generators, never a closure: ``model_fn`` stays in the parent — and each
child builds its shard-local ``WorkerBank(**payload)``.

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

import multiprocessing
import pickle
import signal
import traceback
import weakref
from multiprocessing import resource_tracker
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.api.registries import BACKENDS
from repro.data.synthetic import Dataset
import repro.distributed.host
from repro.distributed.backends import BackendUnsupported
from repro.distributed.host import _set_blas_threads, usable_cores
from repro.distributed.transport import ShmStatePlane
from repro.distributed.worker_bank import WorkerBackend, WorkerBank, shard_slices
from repro.nn.layers import Module
import repro.obs.emit
from repro.obs.emit import count, span

__all__ = ["ShardedBank"]


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
        self.bank = WorkerBank(**payload)
        if plane_spec is not None:
            self._plane, self._bounds = ShmStatePlane.attach(plane_spec), bounds

    def execute(self, op: str, args: tuple):
        bank = self.bank
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
        if op == "broadcast_shm":
            # shm broadcast: the parent wrote the averaged model into the
            # plane before sending this command; copy out so the bank never
            # aliases the shared mapping.
            return bank.broadcast_state(np.array(self._plane.bcast, dtype=float))
        if op == "worker_buffers":
            return bank.bank.worker_buffers(*args)
        if op == "rebuild":
            return self._rebuild(*args)
        # Every other command is the bank method of that name (WorkerBackend's calls).
        return getattr(bank, op)(*args)


def _shard_main(conn, inherited: list, n_shards: int) -> None:
    """Child entry point: serve an (initially empty) shard over ``conn``.

    A fork starts from the parent's state, so first this puts back what a
    freshly started interpreter would have had.  It closes the parent's
    ``inherited`` pipe ends (its own and those of the shards forked before
    it): one left open would keep a shard from seeing EOF when the parent
    dies.  It turns emission off, because the parent's sinks are not this
    process's, takes the default ``SIGTERM`` action, and sizes its BLAS pool
    to its share of the cores.  It uses one core for anything else: a shard
    never steps its bank in chunk threads.
    """
    for end in inherited:
        end.close()
    repro.obs.emit._active = None
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _set_blas_threads(max(1, usable_cores() // n_shards))
    repro.distributed.host._core_share = 1
    _ShardServer().serve(conn.recv, conn.send)


class ShardedBank(WorkerBackend):
    """m replicas as ``n_shards`` vectorized banks on a persistent process pool.

    Parameters
    ----------
    model_fn, shards, batch_size, lr, momentum, weight_decay, rngs, bank_dtype:
        As for :class:`~repro.distributed.worker_bank.LoopWorkers`; the
        parent consumes the RNG streams exactly as the in-process chunks
        would (:func:`~repro.distributed.worker_bank.chunk_payloads`), so
        ``"sharded"`` and ``"vectorized"`` runs are byte-identical.
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
        each = [(payload, spec, bounds) for payload, bounds in zip(payloads, self.bounds)]
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
        bank_dtype: str = "float64",
        **run,
    ) -> list[dict]:
        """Validate the setup, set all backend state, return shard payloads.

        Shared by construction and :meth:`rebuild`: everything except the
        pool itself — validation, the shard partition, the per-shard
        ``WorkerBank`` arguments and this object's bookkeeping — happens
        here, so a rebuilt backend is state-identical to a freshly
        constructed one.  Every unsupported-setup check runs before any RNG
        stream (or further ``model_fn`` call) is consumed.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            raise BackendUnsupported("shard processes are forked, and this platform cannot fork")
        template = model_fn()
        try:
            pickle.dumps(template)
        except Exception as err:  # noqa: BLE001 - any pickling failure means loop-only
            raise BackendUnsupported(
                f"model {type(template).__name__} is not picklable and cannot ship "
                f"to shard processes ({err}); use the 'vectorized' or 'loop' backend"
            ) from err
        payloads = self._payloads(model_fn, shards, n_shards, template=template, bank_dtype=bank_dtype, **run)
        self.model = template
        self._initial_flat = template.get_flat_parameters()
        self._bank_dtype = bank_dtype
        self._has_buffers = any(True for _ in template.named_buffers())
        self.n_shards = len(self.bounds)
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

    def _each(self, op: str, *args) -> list:
        with self._rpc_scope(op):
            return [result for _, result in self._replies(op, *args)]

    def _one(self, chunk: int, op: str, *args):
        with self._rpc_scope(op, chunk):
            ((_, result),) = self._replies(op, *args, only=chunk)
            return result

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

    # -- the carrier's overrides --------------------------------------------
    def initial_state(self) -> np.ndarray:
        return self._initial_flat.copy()

    @property
    def _gather_op(self) -> str:
        # The op *name* follows the plane the parent allocated (it is a span
        # field and a profile path of every sharded trace); whether the rows
        # ride in the reply or in the plane is the reply's to say.
        return "get_states" if self._plane is None else "sync_states"

    def mean_state(self) -> "tuple[np.ndarray, int]":
        """:meth:`WorkerBackend.mean_state`'s fold as one RPC: shard i folds while later shards are in flight."""
        with self._rpc_scope("mean_state"):
            return super().mean_state()

    def _rows(self) -> "Iterator[np.ndarray]":
        """Each shard's rows the moment its reply (or shm ready-ack) lands.

        Shards are contiguous worker ranges, so shard order *is* worker
        order.  Over the shm plane the children wrote their rows in place
        and these are views of the parent's own mapping; the pipes carried
        only empty acks.  A consumer works on shard i while later shards
        are still computing or in flight; the bytes moved are counted once
        the last shard's rows are out.
        """
        self._ensure_open()
        moved = 0
        with span("shard_gather"):
            for shard, reply in self._replies(self._gather_op):
                lo, hi = self.bounds[shard]
                rows = self._plane.states[lo:hi] if reply is None else reply
                moved += rows.nbytes
                yield rows
        self._count_moved(moved)

    def broadcast_state(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if self._plane is None:
            super().broadcast_state(flat)
        else:
            self._plane.bcast[:] = flat
            self._each("broadcast_shm")
        self._count_moved(flat.nbytes)

    def worker_buffers(self, worker_id: int) -> dict:
        """Copies of one worker's buffer slices (fetched from its shard)."""
        chunk, local = self._locate(worker_id)
        return self._one(chunk, "worker_buffers", local)

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
