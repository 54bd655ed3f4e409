"""Zero-copy data plane for the sharded backend: the shared-memory state plane.

Pickling the full ``(m, P)`` float bank through ``Connection.send``/``recv``
twice per training round (gather + broadcast) makes transport — not
arithmetic — dominate a sharded run, so the pool keeps its state here instead:
one :class:`multiprocessing.shared_memory.SharedMemory` segment holds the
stacked worker states and a second holds the broadcast vector.  Shard
children write their ``[lo, hi)`` state rows in place and read broadcasts
from the same mapping, so the Pipes carry only tiny ``(op, args)`` control
tuples and the per-round pickled payload drops from O(m·P) to O(1).
(Per-worker buffers — BatchNorm running statistics, fetched once per
evaluation — stay on the pipe.)

Ownership is asymmetric by design: the parent *creates* the segments and is
the only side that ever ``unlink``\\ s them (exactly once, from ``close()``
or its ``weakref.finalize`` safety net); children *attach* via the picklable
:meth:`ShmStatePlane.spec` recipe carried by the ``rebuild`` command and only
``close()`` their mapping.  POSIX keeps an unlinked segment alive until the
last mapping closes, so teardown order can never corrupt a reader.

Sizing caveat: the states segment is ``m × P`` elements of the bank dtype in
``/dev/shm`` (a tmpfs, typically capped at half of RAM).  Allocation failure
— or an interpreter built without ``multiprocessing.shared_memory`` — makes
:meth:`ShmStatePlane.create` raise, and the pool falls back to pickling the
rows over its Pipes for that run rather than failing it.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - minimal builds without _posixshmem
    _shared_memory = None

__all__ = ["ShmStatePlane"]


class ShmStatePlane:
    """One sharded run's two shared-memory segments: states and broadcast.

    ``states`` is the ``(m, P)`` stacked worker bank in the bank dtype —
    each shard child owns rows ``[lo, hi)`` and writes them in place on a
    ``sync_states`` command, so the parent's gather is a read of its own
    mapping.  ``bcast`` is the ``(P,)`` float64 averaged model the parent
    writes before the ``broadcast_shm`` command.

    NumPy views over the mappings are created lazily and dropped in
    :meth:`close` before the segments unmap — ``mmap`` refuses to close
    while exported buffers are live.
    """

    def __init__(
        self,
        *,
        n_workers: int,
        n_params: int,
        state_dtype,
        segments: "dict[str, str] | None" = None,
    ):
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self.n_workers = int(n_workers)
        self.n_params = int(n_params)
        self.state_dtype = np.dtype(state_dtype)
        #: Creator side: the only side allowed to :meth:`unlink`.
        self.owner = segments is None
        self._views: dict = {}
        self._segments: dict = {}
        try:
            for key, (shape, dtype) in self._shapes().items():
                if self.owner:
                    nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
                    segment = _shared_memory.SharedMemory(create=True, size=nbytes)
                else:
                    segment = _shared_memory.SharedMemory(name=segments[key])
                self._segments[key] = segment
        except BaseException:
            # Partial construction must not leak segments: close what was
            # mapped, and (owner only) remove it from the system.
            self.destroy()
            raise

    def _shapes(self) -> dict:
        return {
            "states": ((self.n_workers, self.n_params), self.state_dtype),
            # Broadcasts arrive as float64 regardless of the bank dtype
            # (ShardedBank.broadcast_state casts, exactly like the Pipe
            # transport); children downcast on apply, so bytes match.
            "bcast": ((self.n_params,), np.dtype(np.float64)),
        }

    @classmethod
    def create(cls, *, n_workers, n_params, state_dtype) -> "ShmStatePlane":
        """Allocate fresh segments (parent side; the owner)."""
        return cls(n_workers=n_workers, n_params=n_params, state_dtype=state_dtype)

    @classmethod
    def attach(cls, spec: dict) -> "ShmStatePlane":
        """Map the segments named by a :meth:`spec` recipe (child side)."""
        return cls(
            n_workers=spec["n_workers"],
            n_params=spec["n_params"],
            state_dtype=spec["state_dtype"],
            segments=spec["segments"],
        )

    def spec(self) -> dict:
        """Picklable attach recipe shipped with each shard's ``rebuild`` command."""
        return {
            "segments": {key: segment.name for key, segment in self._segments.items()},
            "n_workers": self.n_workers,
            "n_params": self.n_params,
            "state_dtype": self.state_dtype.str,
        }

    # -- mapped views --------------------------------------------------------
    def _view(self, key: str) -> np.ndarray:
        view = self._views.get(key)
        if view is None:
            shape, dtype = self._shapes()[key]
            view = np.ndarray(shape, dtype=dtype, buffer=self._segments[key].buf)
            self._views[key] = view
        return view

    @property
    def states(self) -> np.ndarray:
        """The ``(m, P)`` stacked worker states, in the bank dtype."""
        return self._view("states")

    @property
    def bcast(self) -> np.ndarray:
        """The ``(P,)`` float64 broadcast vector."""
        return self._view("bcast")

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Drop the NumPy views and unmap the segments (both sides; idempotent)."""
        self._views.clear()
        for segment in self._segments.values():
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - teardown races
                pass

    def unlink(self) -> None:
        """Remove the segments from the system (owner only; idempotent)."""
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already removed
                pass

    def destroy(self) -> None:
        """Full teardown: close the mapping, and unlink if this side owns it."""
        self.close()
        if self.owner:
            self.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmStatePlane(m={self.n_workers}, P={self.n_params}, "
            f"dtype={self.state_dtype.name}, owner={self.owner})"
        )
