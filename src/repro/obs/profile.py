"""The per-op wall-time profiler: a row table fed by spans.

Spans whose event declares a ``profile`` row (:mod:`repro.obs.events`) push
the row's name on entry and pop it with their wall duration on exit; this
module only keeps the nesting paths and the aggregated rows.  It reads no
clock — :mod:`repro.obs.emit` takes the one clock pair per span.
"""

from __future__ import annotations

import json
import threading

from repro.obs.emit import Sink

__all__ = ["Profiler"]


class Profiler(Sink):
    """Per-op wall-time rows with nested paths.

    Hot paths mark themselves with ``with span("conv2d.bank_forward"):`` — a
    no-op unless a profiler is enabled.  Scopes nest: an op recorded inside
    another accumulates under the slash-joined path
    (``cluster.local_period/conv2d.bank_forward``), so the report separates
    e.g. forward-pass conv time from the same kernel run during evaluation.
    Enable with :meth:`enable` (or ``with Profiler() as p:``), then read
    :meth:`table` / :meth:`to_dict` / :meth:`to_json`.

    Shard processes of the sharded backend do not report into the parent's
    profiler — the parent's ``shard_rpc.*`` rows measure request/reply
    round-trips, which is the quantity the parent can actually act on.

    Thread safety: the nesting stack is thread-local (each thread's scopes
    nest under that thread's own path, never a sibling's — their rows stay
    top-level) while the row table is shared under a lock, so concurrent
    scopes accumulate into one report.
    """

    _slot = 2

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

    def push(self, op: str) -> None:
        """Enter ``op`` on this thread's path."""
        stack = self._stack
        stack.append(f"{stack[-1]}/{op}" if stack else op)

    def pop(self, calls: int, seconds: float) -> None:
        """Leave the innermost op, adding ``calls`` and ``seconds`` to its row."""
        path = self._stack.pop()
        with self._lock:
            entry = self._stats.get(path)
            if entry is None:
                self._stats[path] = [calls, seconds]
            else:
                entry[0] += calls
                entry[1] += seconds

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
            return "(no profile rows recorded)"
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
