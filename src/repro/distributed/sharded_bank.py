"""The sharded worker bank: m replicas split across a persistent process pool.

``ShardedBank`` is the third execution backend.  It partitions the m workers
into contiguous shards and runs one vectorized
:class:`~repro.distributed.worker_bank.WorkerBank` per shard inside a
persistent pool of worker *processes*, so banks larger than one process'
memory (or one core's arithmetic throughput) split across the machine while
every byte of the trajectory stays identical to the single-process bank —
and hence to the loop reference implementation.

Spawn safety follows the sweep runner's pattern: the child entry point is a
module-level function, every import it needs happens lazily inside the child
(registries repopulate in-process), and the per-shard payload it receives is
pure *state* — the template module, the shard datasets, and the per-worker
generators, all picklable under the ``spawn`` start method (the default, and
the only one available everywhere).  Nothing in the payload is a closure:
``model_fn`` never crosses the process boundary.  The parent consumes
``model_fn`` and the worker RNG streams exactly as the vectorized backend
would (one template plus m-1 stream-harvest replicas when stochastic modules
exist), then ships each shard its slice of datasets, loader generators, and
stream generators; each child rebuilds a shard-local ``WorkerBank`` around
them with :func:`repro.nn.bank.attach_stream_generators`.

Equivalence is structural, not approximate: a shard-local bank performs the
same per-slice NumPy arithmetic on the same per-worker streams the full bank
would, the parent concatenates shard states back in worker order, and the
averaging collective runs in the parent on the identical ``(m, P)`` array —
so parameters, buffers, losses, and RNG stream positions are byte-identical
across all three backends (``tests/test_sharded_bank.py`` pins this down).

Data plane: a pooled backend moves the ``(m, P)`` state bank over one of two
transports.  The default (``transport="auto"`` → ``"shm"`` where available)
is the zero-copy shared-memory state plane from
:mod:`repro.distributed.transport`: children write their state rows in place
and read broadcasts from the same mapping, so the Pipes carry only tiny
control tuples.  ``"pipe"`` keeps the original pickle-over-Pipe path; both
produce byte-identical trajectories, and segment-allocation failures fall
back to Pipes silently (check :attr:`ShardedBank.transport` for the plane
actually in use).  In-process backends (``pooled=False``) have no
serialization boundary at all; since PR 9 they drive their shard servers
through a persistent thread pool (NumPy kernels release the GIL), gathered
in shard index order so reply ordering — and hence bytes — never changes.

Lifecycle: the pool is created at construction and lives until
:meth:`close` (idempotent; also invoked by ``SimulatedCluster.close()``, the
experiment harness' ``finally``, and a ``weakref.finalize`` safety net).
Shared-memory segments are created and unlinked exactly once, by the parent;
children only close their mappings.  Children are daemonic, so an abandoned
backend can never outlive its parent.  One consequence: a *daemonic* parent
— e.g. a sweep-pool worker executing a cell with ``backend="sharded"`` under
``--jobs N`` — is itself forbidden from spawning children, so there the same
shard servers run in-process (``pooled=False``): identical partition,
arithmetic, and stored bytes, whether a cell ran serially or inside the pool.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.api.registries import BACKENDS
from repro.data.bank_loader import common_effective_batch
from repro.data.synthetic import Dataset
from repro.distributed.backends import BackendUnsupported, WorkerBackend
from repro.distributed.transport import ShmStatePlane, buffer_spec, resolve_transport
from repro.nn.bank import attach_bank_streams, bank_compatible
from repro.nn.layers import Module
from repro.obs.metrics import counter_inc, observed
from repro.obs.tracer import instant, span
from repro.utils.seeding import check_random_state
from repro.utils.timer import profiled

__all__ = ["ShardedBank", "ShardWorkerView", "shard_slices"]

#: Commands whose ``("ok", None)`` acks the parent never inspects.  They are
#: sent fire-and-forget: the ack stays queued in the pipe and the *next*
#: command drains it, saving one blocking round-trip per training round
#: (broadcast ends every averaging step; its ack overlaps the next
#: ``local_period`` instead of stalling the parent).
_DEFERRED_ACK_OPS = frozenset({"broadcast", "broadcast_shm", "set_lr", "reset_momentum"})


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


class _ShardServer:
    """Executes shard commands against one shard-local ``WorkerBank``.

    The single implementation behind both transports: a pooled shard process
    wraps one in ``_shard_main``'s command loop, and a :class:`ShardedBank`
    constructed where child processes are forbidden (inside a daemonic
    sweep-pool worker) holds them directly and executes in-process — same
    partition, same arithmetic, same bytes.
    """

    def __init__(self, payload: dict):
        from repro.distributed.worker_bank import WorkerBank

        # The parent ships stream_rngs whenever the template has stream
        # modules, so WorkerBank never falls back to calling model_fn here.
        self.bank = WorkerBank(
            model_fn=None,
            shards=payload["shards"],
            batch_size=payload["batch_size"],
            lr=payload["lr"],
            momentum=payload["momentum"],
            weight_decay=payload["weight_decay"],
            rngs=payload["loader_rngs"],
            template=payload["template"],
            stream_rngs=payload["stream_rngs"],
            bank_dtype=payload.get("bank_dtype", "float64"),
        )
        # Shared-memory state plane (pooled shm transport only): this shard
        # owns plane rows [lo, hi) and attaches from the picklable spec the
        # parent put in the payload.  Attach-only: the parent is the sole
        # owner/unlinker of the segments.
        self._plane = (
            ShmStatePlane.attach(payload["plane"]) if payload.get("plane") else None
        )
        self._bounds = payload.get("plane_bounds")

    def close_plane(self) -> None:
        """Unmap this shard's plane attachment (never unlinks; idempotent)."""
        if self._plane is not None:
            self._plane.close()
            self._plane = None

    def execute(self, op: str, args: tuple):
        bank = self.bank
        if op == "local_period":
            return bank.local_period(*args)
        if op == "get_states":
            # The live slab, not a copy: every consumer copies it (pickling
            # over the pipe, concatenation in the parent) or only reads it
            # (the in-process mean fold), before the next command can step.
            return bank.bank.slab
        if op == "sync_states":
            # shm gather: write this shard's rows into the shared plane and
            # ack with no payload — the parent reads its own mapping.
            lo, hi = self._bounds
            self._plane.states[lo:hi] = bank.bank.slab
            return None
        if op == "broadcast":
            return bank.broadcast_state(*args)
        if op == "broadcast_shm":
            # shm broadcast: the parent wrote the averaged model into the
            # plane before sending this (fire-and-forget) command; copy out
            # so the bank never aliases the shared mapping.
            return bank.broadcast_state(np.array(self._plane.bcast, dtype=float))
        if op == "get_worker_flat":
            return bank.bank.worker_flat(*args)
        if op == "set_worker_flat":
            return bank.bank.set_worker_flat(*args)
        if op == "get_worker_buffers":
            return bank.bank.worker_buffers(*args)
        if op == "put_worker_buffers":
            # shm buffer fetch: pack the worker's running statistics into
            # its plane row; the parent unpacks from its own mapping.
            local_id = args[0]
            self._plane.write_worker_buffers(
                self._bounds[0] + local_id, bank.bank.worker_buffers(local_id)
            )
            return None
        if op == "set_lr":
            return bank.set_lr(*args)
        if op == "reset_momentum":
            return bank.reset_momentum()
        if op == "rng_fingerprint":
            return bank.rng_fingerprint()
        if op == "rebuild":
            # Replace the shard-local bank with one built from a fresh
            # payload — the pool (this process) stays alive across methods.
            # The parent destroyed (and possibly resized) the plane, so drop
            # the stale attachment before re-attaching via the new payload.
            self.close_plane()
            self.__init__(args[0])
            return None
        raise ValueError(f"unknown shard command {op!r}")


def _shard_main(conn, payload: dict) -> None:
    """Child entry point: build one shard-local ``WorkerBank``, serve commands.

    Module-level (picklable by reference) so it works under every
    multiprocessing start method; the ``WorkerBank`` import inside
    :class:`_ShardServer` is local so a spawned interpreter pays it lazily
    and the component registries repopulate inside the child, mirroring the
    sweep runner's workers.
    """
    try:
        server = _ShardServer(payload)
        conn.send(("ready", None))
    except Exception:  # noqa: BLE001 - construction failures travel to the parent
        conn.send(("error", traceback.format_exc()))
        return

    try:
        while True:
            try:
                op, args = conn.recv()
            except (EOFError, KeyboardInterrupt):
                return
            if op == "close":
                conn.send(("ok", None))
                return
            try:
                conn.send(("ok", server.execute(op, args)))
            except Exception:  # noqa: BLE001 - errors travel back, the child survives
                conn.send(("error", traceback.format_exc()))
    finally:
        # Unmap (never unlink) the shm plane on any exit path, so the
        # parent's unlink is the last reference going away.
        server.close_plane()


class ShardWorkerView:
    """Per-worker handle into a :class:`ShardedBank` (Worker-like surface)."""

    def __init__(self, backend: "ShardedBank", worker_id: int):
        self.worker_id = worker_id
        self._backend = backend

    def get_parameters(self) -> np.ndarray:
        return self._backend._worker_request(self.worker_id, "get_worker_flat")

    def set_parameters(self, flat: np.ndarray) -> None:
        self._backend._worker_request(self.worker_id, "set_worker_flat", np.asarray(flat, dtype=float))

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
        return f"ShardWorkerView(id={self.worker_id}, steps={self.local_steps_taken})"


class ShardedBank(WorkerBackend):
    """m replicas as ``n_shards`` vectorized banks on a persistent process pool.

    Parameters
    ----------
    model_fn, shards, batch_size, lr, momentum, weight_decay, rngs, template:
        As for :class:`~repro.distributed.worker_bank.WorkerBank`; the
        parent consumes ``model_fn`` and the RNG streams exactly as the
        single-process bank would, so ``"sharded"`` and ``"vectorized"``
        runs are byte-identical.
    n_shards:
        Worker processes to partition the m replicas over (clamped to m).
    mp_context:
        Multiprocessing start method (default ``"spawn"``, the portable
        choice that genuinely exercises the payload's spawn safety).
    transport:
        Pooled data plane for the state bank: ``"shm"`` (zero-copy
        shared-memory segments), ``"pipe"`` (pickle over the control
        pipes), or ``"auto"`` (shm where available).  Trajectories are
        byte-identical either way; :attr:`transport` reports the plane
        actually in use (``"inproc"`` when there is no pool at all).
    """

    name = "sharded"

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
        n_shards: int = 2,
        mp_context: str = "spawn",
        bank_dtype: str = "float64",
        transport: str = "auto",
    ):
        resolved = resolve_transport(transport)  # validate before any work
        payloads = self._prepare(
            model_fn,
            shards,
            batch_size=batch_size,
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            rngs=rngs,
            template=template,
            n_shards=n_shards,
            bank_dtype=bank_dtype,
        )

        self._conns, self._procs = [], []
        self._servers: "list[_ShardServer] | None" = None
        self._executor: "ThreadPoolExecutor | None" = None
        self._plane: "ShmStatePlane | None" = None
        self._closed = False
        #: Fire-and-forget commands whose acks are still queued in the pipes
        #: (one per connection each), drained by the next synchronizing
        #: command in FIFO order.  See :data:`_DEFERRED_ACK_OPS`.
        self._deferred: list[str] = []
        #: Whether the shards run on a real process pool.  Daemonic parents
        #: (e.g. the sweep runner's multiprocessing.Pool workers) may not
        #: spawn children, so there the same shard servers run in-process —
        #: identical partition and arithmetic, so a cell's stored bytes do
        #: not depend on whether the sweep ran serially or on a pool.
        self.pooled = not multiprocessing.current_process().daemon
        if not self.pooled:
            # Each server must own an isolated template + generators — the
            # pickle round-trip mirrors exactly what crossing a process
            # boundary does for the pooled path (shard banks attach their
            # stream slices to *their* template, never to a shared one).
            self._servers = [
                _ShardServer(pickle.loads(pickle.dumps(payload))) for payload in payloads
            ]
            #: In-process shards compute on a persistent thread pool — the
            #: bank kernels are NumPy calls that release the GIL, so sweep-
            #: pool cells get real shard parallelism.  Results are always
            #: gathered in shard index order (see ``_inproc_results``), so
            #: reply ordering — and hence every stored byte — matches the
            #: serial execution this replaces.
            if len(self._servers) > 1:
                self._executor = ThreadPoolExecutor(
                    max_workers=len(self._servers), thread_name_prefix="repro-shard"
                )
            self.transport = "inproc"
            return

        self.transport = self._create_plane(payloads, resolved)
        ctx = multiprocessing.get_context(mp_context)
        try:
            for payload in payloads:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_main, args=(child_conn, payload), daemon=True
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
            for index, conn in enumerate(self._conns):
                status, detail = conn.recv()
                if status != "ready":
                    raise RuntimeError(
                        f"shard process {index} failed to construct its bank:\n{detail}"
                    )
        except BaseException:
            self.close()
            raise

        self._finalizer = weakref.finalize(
            self, _shutdown_pool, list(self._conns), list(self._procs), self._plane
        )

    def _create_plane(self, payloads: list, resolved: str) -> str:
        """Allocate the shm state plane and annotate the payloads with it.

        Returns the transport actually secured: allocation failure (a full
        ``/dev/shm``, say) downgrades to ``"pipe"`` rather than failing the
        run.  Called before any child spawns, so the attach recipe rides
        inside the spawn payloads and stays SPAWN001-clean.
        """
        if resolved != "shm":
            return "pipe"
        try:
            self._plane = ShmStatePlane.create(
                n_workers=len(self.workers),
                n_params=self._initial_flat.size,
                state_dtype=self._bank_dtype,
                buffer_spec=buffer_spec(self.model) if self._has_buffers else (),
            )
        except (OSError, ValueError, RuntimeError):  # pragma: no cover - platform-dependent
            return "pipe"
        spec = self._plane.spec()
        for payload, bounds in zip(payloads, self.shard_slices):
            payload["plane"] = spec
            payload["plane_bounds"] = bounds
        return "shm"

    def _prepare(
        self,
        model_fn: Callable[[], Module],
        shards: Sequence[Dataset | None],
        *,
        batch_size: int,
        lr: float,
        momentum: float,
        weight_decay: float,
        rngs: Sequence | None,
        template: Module | None,
        n_shards: int,
        bank_dtype: str,
    ) -> list[dict]:
        """Validate the setup, set all backend state, return shard payloads.

        Shared by construction and :meth:`rebuild`: everything except the
        pool itself — validation, RNG/stream consumption, the shard
        partition, per-shard payload dicts, and this object's bookkeeping —
        happens here, so a rebuilt backend is state-identical to a freshly
        constructed one.
        """
        if not shards:
            raise ValueError("need at least one shard (use [None, ...] for data-free runs)")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if rngs is None:
            rngs = [None] * len(shards)
        if len(rngs) != len(shards):
            raise ValueError(f"{len(shards)} shards but {len(rngs)} RNG streams")
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
            # (and "auto" can fall back) before any process is spawned.
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
        self.local_steps_taken = 0
        self.last_losses = np.full(m, np.nan)
        self.shard_slices = shard_slices(m, n_shards)
        self.n_shards = len(self.shard_slices)

        # Consume model_fn / streams exactly as the vectorized bank would:
        # stochastic modules get the m per-worker generators the loop
        # replicas would own; each shard then receives its contiguous slice.
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
                "loader_rngs": None if loader_rngs is None else loader_rngs[lo:hi],
                "stream_rngs": (
                    [[mod._bank_rngs[i] for i in range(lo, hi)] for mod in stream_mods]
                    if stream_mods
                    else None
                ),
                "bank_dtype": bank_dtype,
            })

        self.workers = tuple(ShardWorkerView(self, i) for i in range(m))
        return payloads

    def rebuild(
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
        n_shards: int = 2,
        bank_dtype: str = "float64",
        transport: str = "auto",
    ) -> "ShardedBank":
        """Reuse the live pool for a fresh run instead of respawning it.

        Re-runs the full construction-time preparation (validation, RNG and
        stream consumption, the shard partition, payloads) and ships each
        live shard a ``rebuild`` command that swaps in a bank built from its
        new payload.  The resulting backend is state-identical to a freshly
        constructed one — process spawn is the only thing skipped — so
        trajectories stay byte-identical to fresh-pool runs.  The worker
        count may change between runs; the shard *count* must match the live
        pool (a pool cannot grow or shrink processes).  The shm state plane
        is reallocated for the new ``(m, P)`` geometry (and the transport
        may switch between runs): the parent destroys the old segments, the
        ``rebuild`` command makes each child drop its stale attachment.
        """
        self._ensure_open()
        if not shards:
            raise ValueError("need at least one shard (use [None, ...] for data-free runs)")
        resolved = resolve_transport(transport)
        live = self.pool_size
        requested = len(shard_slices(len(shards), n_shards))
        if requested != live:
            raise ValueError(
                f"cannot rebuild a {live}-process pool into {requested} shard(s); "
                f"construct a fresh ShardedBank instead"
            )
        payloads = self._prepare(
            model_fn,
            shards,
            batch_size=batch_size,
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            rngs=rngs,
            template=template,
            n_shards=n_shards,
            bank_dtype=bank_dtype,
        )
        if self._servers is not None:
            # In-process transport: same pickle round-trip a real process
            # boundary would apply, same isolation guarantees.  The thread
            # pool is sized by shard count, which cannot change — keep it.
            self._servers = [
                _ShardServer(pickle.loads(pickle.dumps(payload))) for payload in payloads
            ]
            return self
        # Geometry (and possibly the transport choice) changed: drop the old
        # plane — children close their stale attachments inside the rebuild
        # command below, and POSIX keeps unlinked segments mapped until then.
        if self._plane is not None:
            self._plane.destroy()
            self._plane = None
        self.transport = self._create_plane(payloads, resolved)
        # The finalizer captured the previous plane; re-arm it with the new one.
        self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, list(self._conns), list(self._procs), self._plane
        )
        # Pipelined like _request_all: every shard starts rebuilding before
        # any reply is awaited, and every reply is drained even on failure
        # (including any deferred acks still queued from the previous run).
        for conn, payload in zip(self._conns, payloads):
            conn.send(("rebuild", (payload,)))
        errors = self._drain_deferred_acks()
        replies = [conn.recv() for conn in self._conns]
        errors += [
            f"shard process {index} failed to rebuild its bank:\n{detail}"
            for index, (status, detail) in enumerate(replies)
            if status != "ok"
        ]
        if errors:
            raise RuntimeError("\n".join(errors))
        return self

    # -- pool plumbing -------------------------------------------------------
    @property
    def pool_size(self) -> int:
        """Number of live shard servers (pool processes, or in-process servers)."""
        return len(self._servers) if self._servers is not None else len(self._conns)

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedBank is closed; its process pool is gone")

    def _drain_deferred_acks(self) -> list[str]:
        """Receive the pending acks of fire-and-forget commands, oldest first.

        Callers invoke this *after* sending their own command: the pipes are
        FIFO, so each connection's queue holds the deferred acks ahead of the
        new reply, and draining here leaves exactly that reply queued.
        Returns error strings instead of raising so the caller can finish
        consuming its own replies (keeping the protocol in sync) and raise
        once with everything that went wrong.
        """
        deferred, self._deferred = self._deferred, []
        errors: list[str] = []
        for index, conn in enumerate(self._conns):
            for past_op in deferred:
                status, detail = conn.recv()
                if status != "ok":
                    errors.append(
                        f"shard process {index} failed during deferred "
                        f"{past_op!r}:\n{detail}"
                    )
                instant("shard_rpc", op=past_op, shard=index, phase="drain_ack")
        return errors

    def _inproc_results(self, op: str, args: tuple) -> Iterator:
        """Yield each in-process server's result, in shard index order.

        With more than one server the executions run concurrently on the
        persistent thread pool (the bank kernels release the GIL); gathering
        ``Future.result()`` in submission order keeps reply ordering — and
        first-error propagation — identical to the serial loop it replaces.
        """
        if self._executor is None:
            for server in self._servers:
                yield server.execute(op, args)
            return
        futures = [
            self._executor.submit(server.execute, op, args) for server in self._servers
        ]
        for future in futures:
            yield future.result()

    def _request_all(self, op: str, *args) -> list:
        """Send one command to every shard, then gather the replies in order.

        All shards receive the command before any reply is awaited, so
        compute-bound commands (``local_period``) genuinely overlap across
        the pool.  Commands whose replies carry no payload (``broadcast``,
        ``set_lr``, ``reset_momentum``) do not even wait for their acks: the
        parent returns immediately and the *next* command drains the queued
        acks after sending itself, so the shards run the deferred command and
        its successor back-to-back without an intervening parent wake-up —
        one fewer blocking round-trip per training round.  Every reply is
        drained even when some shard errors — a partially-read round would
        leave stale replies queued in the pipes and silently desynchronize
        the request/reply protocol; a deferred failure therefore surfaces on
        the next synchronizing command, attributed to the op that failed.
        """
        self._ensure_open()
        # Shard processes never report into the parent's profiler; this scope
        # measures the full round-trip (serialize, compute, deserialize) as
        # the parent observes it.  Deferred ops only pay serialization here;
        # their wait lands in the next synchronizing op's scope.
        deferred = op in _DEFERRED_ACK_OPS
        with span("shard_rpc", op=op, shard="all", pooled=self.pooled,
                  deferred=deferred, transport=self.transport), \
                observed("shard_rpc_seconds"), profiled(f"shard_rpc.{op}"):
            if self._servers is not None:
                return list(self._inproc_results(op, args))
            for conn in self._conns:
                conn.send((op, args))
            if deferred:
                self._deferred.append(op)
                return [None] * len(self._conns)
            errors = self._drain_deferred_acks()
            replies = [conn.recv() for conn in self._conns]
            errors += [
                f"shard process {index} failed:\n{detail}"
                for index, (status, detail) in enumerate(replies)
                if status != "ok"
            ]
            if errors:
                raise RuntimeError("\n".join(errors))
            return [result for _, result in replies]

    def _request_shard(self, shard_index: int, op: str, *args):
        self._ensure_open()
        with span("shard_rpc", op=op, shard=shard_index, pooled=self.pooled,
                  deferred=False, transport=self.transport), \
                observed("shard_rpc_seconds"), profiled(f"shard_rpc.{op}"):
            if self._servers is not None:
                return self._servers[shard_index].execute(op, args)
            conn = self._conns[shard_index]
            conn.send((op, args))
            errors = self._drain_deferred_acks()
            status, result = conn.recv()
            if status != "ok":
                errors.append(f"shard process {shard_index} failed:\n{result}")
            if errors:
                raise RuntimeError("\n".join(errors))
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

    def close(self) -> None:
        """Shut the process pool down; safe to call more than once.

        In-process shard servers (daemonic parents) have no pool; closing
        drops them, stops their thread pool, and marks the backend unusable.
        The shm state plane is destroyed (closed *and* unlinked) here — the
        parent is its sole owner, so this is the exactly-once unlink site
        (with the ``weakref.finalize`` safety net covering abandonment).
        """
        if getattr(self, "_closed", True):
            return
        self._closed = True
        self._servers = None
        executor = getattr(self, "_executor", None)
        if executor is not None:
            executor.shutdown(wait=True)
            self._executor = None
        if hasattr(self, "_finalizer"):
            self._finalizer.detach()
        _shutdown_pool(self._conns, self._procs, getattr(self, "_plane", None))
        self._plane = None

    # -- WorkerBackend protocol ----------------------------------------------
    @property
    def batch_size(self) -> int:
        return self._batch_size

    def shard_sizes(self) -> "list[int] | None":
        return None if self._shard_sizes is None else list(self._shard_sizes)

    def initial_state(self) -> np.ndarray:
        return self._initial_flat.copy()

    def local_period(self, tau: int) -> np.ndarray:
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        losses = np.concatenate(self._request_all("local_period", tau))
        self.local_steps_taken += tau
        self.last_losses = losses
        return losses

    def get_stacked_states(self) -> np.ndarray:
        # Shards are contiguous worker ranges, so concatenation in shard
        # order *is* worker order — the (m, P) array the averaging collective
        # reduces is byte-identical to the single-process bank's.  Over the
        # shm plane the children write their rows in place and the parent
        # copies out of its own mapping; the pipes carry only empty acks.
        with observed("shard_gather_seconds"):
            if self._plane is not None:
                self._request_all("sync_states")
                states = self._plane.states.copy()
                counter_inc("bytes_via_shm", states.nbytes)
                return states
            states = np.concatenate(self._request_all("get_states"), axis=0)
        if self.pooled:
            counter_inc("bytes_over_pipe", states.nbytes)
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
        self._ensure_open()
        acc: "np.ndarray | None" = None
        nbytes = 0
        with span("shard_rpc", op="mean_state", shard="all", pooled=self.pooled,
                  deferred=False, transport=self.transport), \
                observed("shard_rpc_seconds"), observed("shard_gather_seconds"), \
                profiled("shard_rpc.mean_state"):
            if self._servers is not None:
                for block in self._inproc_results("get_states", ()):
                    acc = _fold_rows(acc, block)
                    nbytes += block.nbytes
            elif self._plane is not None:
                for conn in self._conns:
                    conn.send(("sync_states", ()))
                errors = self._drain_deferred_acks()
                for index, conn in enumerate(self._conns):
                    status, detail = conn.recv()
                    if status != "ok":
                        errors.append(f"shard process {index} failed:\n{detail}")
                        continue
                    lo, hi = self.shard_slices[index]
                    acc = _fold_rows(acc, self._plane.states[lo:hi])
                if errors:
                    raise RuntimeError("\n".join(errors))
                nbytes = self._plane.states.nbytes
                counter_inc("bytes_via_shm", nbytes)
            else:
                for conn in self._conns:
                    conn.send(("get_states", ()))
                errors = self._drain_deferred_acks()
                for index, conn in enumerate(self._conns):
                    status, block = conn.recv()
                    if status != "ok":
                        errors.append(f"shard process {index} failed:\n{block}")
                        continue
                    acc = _fold_rows(acc, block)
                    nbytes += block.nbytes
                if errors:
                    raise RuntimeError("\n".join(errors))
                counter_inc("bytes_over_pipe", nbytes)
        acc /= acc.dtype.type(len(self.workers))
        return acc, nbytes

    def broadcast_state(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if self._plane is None:
            self._request_all("broadcast", flat)
            if self.pooled:
                counter_inc("bytes_over_pipe", flat.nbytes)
            return
        # Back-to-back broadcasts with no synchronizing command between them
        # would overwrite the plane while a shard may not have read it yet;
        # drain the pending acks first (an ack proves the read happened).
        # The normal round structure (broadcast → local_period → gather)
        # never takes this branch.
        if "broadcast_shm" in self._deferred:
            errors = self._drain_deferred_acks()
            if errors:
                raise RuntimeError("\n".join(errors))
        self._plane.bcast[:] = flat
        self._request_all("broadcast_shm")
        counter_inc("bytes_via_shm", flat.nbytes)

    def set_lr(self, lr: float) -> None:
        self._request_all("set_lr", lr)

    def reset_momentum(self) -> None:
        self._request_all("reset_momentum")

    def worker_buffers(self, worker_id: int) -> dict:
        """Copies of one worker's buffer slices (fetched from its shard).

        Over the shm plane the shard packs the row in place and acks empty;
        the parent unpacks from its own mapping (same names, shapes, dtype,
        and bytes as the pickled dict the Pipe transport returns).
        """
        if self._plane is not None and self._has_buffers:
            self._worker_request(worker_id, "put_worker_buffers")
            buffers = self._plane.read_worker_buffers(worker_id)
            counter_inc("bytes_via_shm", self._plane.buffers[worker_id].nbytes)
            return buffers
        return self._worker_request(worker_id, "get_worker_buffers")

    def materialize(self, flat: np.ndarray, worker_id: int = 0) -> Module:
        self.model.set_flat_parameters(flat)
        if self._has_buffers:
            # Running statistics live in the shard processes; fetch the
            # requested worker's slices so eval sees the stats its loop/bank
            # counterpart would.
            buffers = self._worker_request(worker_id, "get_worker_buffers")
            for name, value in buffers.items():
                self.model.set_buffer(name, value)
        return self.model

    def evaluate_with_state(self, flat: np.ndarray, fn: Callable[[Module], float]):
        # The parent template is scratch space — the shard banks hold the
        # ground truth — so no save/restore is needed.
        return fn(self.materialize(flat))

    def rng_fingerprint(self) -> dict:
        merged = {"loaders": [], "streams": []}
        for fingerprint in self._request_all("rng_fingerprint"):
            merged["loaders"].extend(fingerprint["loaders"])
            merged["streams"].extend(fingerprint["streams"])
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedBank(n_workers={len(self.workers)}, n_shards={self.n_shards}, "
            f"pooled={self.pooled}, transport={self.transport}, closed={self._closed})"
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
