"""The process layout as one value, and the slot that reuses its pool across runs.

Forking the sharded backend's pool is a fixed cost of a short run: each
shard process is forked, sizes its BLAS pool and is then sent its bank.  A
method lineup (``run_experiment`` over four methods) or a serial sweep would
pay that cost once per run even though every run wants an
identically-shaped pool.  A scheduler helper (``repro.experiments.parallel``)
is a fork that never acquires a pool through a handle it inherited: a sweep
hands its handle to the parent's cells only, and a lineup whose layout
:attr:`~BackendHandle.may_shard` stays on the parent.

:class:`BackendHandle` is how a process layout — backend name and shard
count — reaches a cluster: whole, as one argument.  It also turns the pool
into a reusable resource.  A run
resolves its execution backend *through* a handle instead of building one
directly; whenever two consecutive runs resolve to sharded pools with the
same process count, the second run reuses the first's live processes via
:meth:`~repro.distributed.sharded_bank.ShardedBank.rebuild` — each shard
swaps in a bank built from a fresh payload, so the trajectory is
byte-identical to a fresh-pool run and only the fork is skipped.

Ownership is explicit — whoever builds a handle closes it: a
:class:`~repro.distributed.cluster.SimulatedCluster` given a handle never
closes the backend it received, the handle releases its pool in
:meth:`BackendHandle.close` (the harness holds it in a ``with`` block around
the run or the lineup).
"""

from __future__ import annotations

from repro.api.registries import BACKENDS
from repro.distributed.sharded_bank import ShardedBank
from repro.distributed.worker_bank import WorkerBackend, shard_slices

__all__ = ["BackendHandle"]


class BackendHandle:
    """A slot that carries a live sharded pool from one run to the next.

    ``spec`` is a registered backend name (``"auto"``, ``"loop"``,
    ``"vectorized"``, ``"sharded"``), ``n_shards`` the pool size of a
    sharded run (clamped to the worker count).  The backends are
    byte-identical, so neither can change a trajectory.  The handle is also
    a context manager; exiting closes whatever pool it still holds.

    In-process backends are built fresh each time and closed by
    :meth:`release` when their run ends (their chunk threads, if any, are
    joined) — reuse only changes process lifecycle for sharded runs, never
    arithmetic or RNG consumption.
    """

    def __init__(self, spec: str = "auto", *, n_shards: int = 2):
        self.spec = spec
        self.n_shards = n_shards
        self._pool: "ShardedBank | None" = None

    @property
    def layout(self) -> tuple:
        """The process layout this slot resolves to (equal layouts can share a pool)."""
        return (self.spec, self.n_shards)

    @property
    def may_shard(self) -> bool:
        """Whether a run on this layout forks shard processes: ``"sharded"`` is chosen by name only."""
        return self.spec == "sharded"

    def acquire(self, **kwargs) -> WorkerBackend:
        """Resolve one run's backend, reusing the held pool when possible.

        ``kwargs`` are the per-run construction arguments (``model_fn``,
        ``shards``, ``batch_size``, ``lr``, ``momentum``, ``weight_decay``,
        ``rngs``, ``bank_dtype``).  The backend's ``name`` is what runs, so
        an ``"auto"`` layout's reads ``"vectorized"`` or ``"loop"``.
        """
        if self.may_shard:
            return self._sharded(**kwargs)
        return BACKENDS.build(self.spec, **kwargs)

    def _sharded(self, **kwargs) -> ShardedBank:
        """Rebuild the held pool in place, or retire it and build a fresh one."""
        kwargs.update(n_shards=self.n_shards)
        pool = self._pool
        if pool is not None and not pool._closed:
            shards = kwargs["shards"]
            if shards and len(shard_slices(len(shards), self.n_shards)) == pool.pool_size:
                try:
                    return pool.rebuild(**kwargs)
                except (RuntimeError, OSError):
                    # A dead or desynchronized pool (e.g. a shard process
                    # killed by a previous failed run) is not worth saving —
                    # retire it and fork a fresh one below.  Setup errors
                    # (BackendUnsupported, ValueError) propagate: the pool is
                    # still healthy.
                    pass
            # Wrong process count for the next run, or the rebuild failed —
            # a pool cannot grow, shrink, or heal, so release it.
            pool.close()
            self._pool = None
        self._pool = BACKENDS.build("sharded", **kwargs)
        return self._pool

    def release(self, backend: WorkerBackend) -> None:
        """The run that acquired ``backend`` is over: close it, unless it is the pool kept for the next run."""
        if backend is not self._pool:
            backend.close()

    def close(self) -> None:
        """Release the held pool, if any.  Idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "BackendHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        held = "live pool" if self._pool is not None and not self._pool._closed else "empty"
        return f"BackendHandle(spec={self.spec!r}, n_shards={self.n_shards}, {held})"
