"""Virtual time: the simulated cluster's wall clock.

The paper's central object of study is *error versus wall-clock time*.  In
this reproduction the wall clock of the simulated cluster is a
:class:`VirtualClock` advanced by the delay model (``repro.runtime``): each
local gradient step advances it by a sampled compute time, each averaging
step by a sampled communication delay.

Nothing here reads the real clock.  Real-time reads live in
:mod:`repro.obs.emit` (and the tracer's origin) only, so trajectories and
content addresses never depend on when they ran: a run under a jittering
fake ``perf_counter`` and friends saves the same bytes.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotone simulated wall clock measured in seconds.

    The clock only moves forward; ``advance`` rejects negative increments so
    that a buggy delay distribution cannot silently rewind time.
    """

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ValueError(f"start time must be non-negative, got {start}")
        self._now = float(start)
        self._n_advances = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def n_advances(self) -> int:
        """Number of times the clock has been advanced."""
        return self._n_advances

    def advance(self, dt: float) -> float:
        """Move the clock forward by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative duration {dt}")
        self._now += float(dt)
        self._n_advances += 1
        return self._now

    def reset(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"start time must be non-negative, got {start}")
        self._now = float(start)
        self._n_advances = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.4f}, advances={self._n_advances})"
