"""Wall-clock accounting: stopwatches, the per-op profiler, and virtual time.

The paper's central object of study is *error versus wall-clock time*.  In
this reproduction the wall clock of the simulated cluster is a
:class:`VirtualClock` advanced by the delay model (``repro.runtime``): each
local gradient step advances it by a sampled compute time, each averaging
step by a sampled communication delay.  ``Stopwatch`` measures real process
time for the harness itself (used by the pytest-benchmark targets), and
:class:`Profiler` breaks real time down per operation: hot paths (conv
kernels, the fused optimizer step, the averaging collective, shard RPC) wrap
themselves in :func:`profiled` scopes, which cost one dict lookup while no
profiler is active and record nested wall-time totals while one is.

Real-time reads live in this module *only*: the DET002 linter rule bans
``perf_counter`` and friends everywhere else in the simulation paths, so
trajectories and content addresses can never depend on when they ran.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

__all__ = ["Profiler", "Stopwatch", "VirtualClock", "profiled"]


@dataclass
class Stopwatch:
    """Simple cumulative real-time stopwatch based on ``perf_counter``."""

    elapsed: float = 0.0
    _started_at: float | None = field(default=None, init=False)

    def start(self) -> "Stopwatch":
        if self._started_at is not None:
            raise RuntimeError("Stopwatch already running")
        self._started_at = time.perf_counter()  # repro: ignore[DET002] real-time stopwatch for the harness itself
        return self

    def stop(self) -> float:
        if self._started_at is None:
            raise RuntimeError("Stopwatch not running")
        self.elapsed += time.perf_counter() - self._started_at  # repro: ignore[DET002] real-time stopwatch for the harness itself
        self._started_at = None
        return self.elapsed

    def reset(self) -> None:
        self.elapsed = 0.0
        self._started_at = None

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class _Scope:
    """One ``with profiled(op):`` activation; records into its profiler.

    Entering the same scope object again continues that activation: the time
    adds up and the call is counted once (a kernel that works in blocks).
    """

    __slots__ = ("_profiler", "_op", "_t0", "_calls")

    def __init__(self, profiler: "Profiler", op: str):
        self._profiler = profiler
        self._op = op
        self._calls = 1

    def __enter__(self) -> "_Scope":
        stack = self._profiler._stack
        stack.append(f"{stack[-1]}/{self._op}" if stack else self._op)
        self._t0 = time.perf_counter()  # repro: ignore[DET002] the profiler is the sanctioned real-time reader
        return self

    def __exit__(self, *exc) -> None:
        dt = time.perf_counter() - self._t0  # repro: ignore[DET002] the profiler is the sanctioned real-time reader
        path = self._profiler._stack.pop()
        with self._profiler._lock:
            stats = self._profiler._stats
            entry = stats.get(path)
            if entry is None:
                stats[path] = [self._calls, dt]
            else:
                entry[0] += self._calls
                entry[1] += dt
        self._calls = 0


class Profiler:
    """Per-op wall-time profiler with nested scopes.

    Hot paths mark themselves with ``with profiled("conv2d.bank_forward"):``
    — a no-op returning a shared ``nullcontext`` unless a profiler is active.
    Scopes nest: an op recorded inside another scope accumulates under the
    slash-joined path (``local_period/conv2d.bank_forward``), so the report
    separates e.g. forward-pass conv time from the same kernel run during
    evaluation.  Activate with :meth:`enable` (or ``with Profiler() as p:``),
    then read :meth:`table` / :meth:`to_dict` / :meth:`to_json`.

    One profiler is active per process at a time; shard processes of the
    sharded backend therefore do not report into the parent's profiler — the
    parent's ``shard_rpc.*`` scopes measure request/reply round-trips, which
    is the quantity the parent can actually act on.

    Thread safety: the nesting stack is thread-local (the in-process sharded
    transport drives its shard servers on a thread pool, and each thread's
    scopes must nest under that thread's own path, never a sibling's) while
    the stats table is shared under a lock, so concurrent scopes accumulate
    into one report.  Both costs are paid only while a profiler is active —
    the disabled path is still the shared ``nullcontext``.
    """

    #: The process-wide active profiler, or ``None`` (profiling disabled).
    _active: "Profiler | None" = None

    def __init__(self):
        self._stats: dict[str, list] = {}  # path -> [calls, total_seconds]
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def _stack(self) -> list:
        """This thread's scope-nesting stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- activation ---------------------------------------------------------
    def enable(self) -> "Profiler":
        """Make this the active profiler; returns self."""
        Profiler._active = self
        return self

    def disable(self) -> "Profiler":
        """Stop recording (only if this profiler is the active one)."""
        if Profiler._active is self:
            Profiler._active = None
        return self

    def __enter__(self) -> "Profiler":
        return self.enable()

    def __exit__(self, *exc) -> None:
        self.disable()

    def record(self, op: str) -> _Scope:
        """Context manager timing one ``op`` activation (honors nesting)."""
        return _Scope(self, op)

    # -- reporting ----------------------------------------------------------
    def to_dict(self) -> dict:
        """``{op_path: {"calls": n, "total_seconds": t, "mean_seconds": t/n}}``,
        sorted by total time descending."""
        return {
            path: {
                "calls": calls,
                "total_seconds": total,
                "mean_seconds": total / calls,
            }
            for path, (calls, total) in sorted(
                self._stats.items(), key=lambda item: -item[1][1]
            )
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), indent=2, **kwargs)

    def table(self) -> str:
        """Aligned per-op text table sorted by total time descending."""
        rows = self.to_dict()
        if not rows:
            return "(no profiled operations recorded)"
        grand = sum(entry["total_seconds"] for entry in rows.values())
        width = max(len("op"), *(len(path) for path in rows))
        header = f"{'op':<{width}}  {'calls':>8}  {'total (s)':>10}  {'mean (ms)':>10}  {'%':>6}"
        lines = [header, "-" * len(header)]
        for path, entry in rows.items():
            share = 100.0 * entry["total_seconds"] / grand if grand else 0.0
            lines.append(
                f"{path:<{width}}  {entry['calls']:>8}  {entry['total_seconds']:>10.4f}  "
                f"{1e3 * entry['mean_seconds']:>10.4f}  {share:>6.1f}"
            )
        return "\n".join(lines)


#: Shared disabled-path context manager: ``profiled`` must cost next to
#: nothing when no profiler is active, so it returns this singleton instead
#: of constructing anything.
_NULL_SCOPE = nullcontext()


def profiled(op: str):
    """Scope ``op`` under the active profiler, or do nothing.

    The disabled path is one attribute read and a return — cheap enough to
    leave in per-step hot paths (layer kernels, the optimizer step)
    unconditionally.
    """
    profiler = Profiler._active
    return _NULL_SCOPE if profiler is None else profiler.record(op)


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
