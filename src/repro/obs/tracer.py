"""Structured event tracing with dual virtual/wall timestamps.

The paper's whole argument is an error-*runtime* trade-off, so every span a
:class:`Tracer` records carries two clocks: the simulated
:class:`~repro.utils.timer.VirtualClock` (what the error-runtime frontier is
plotted against) and the real wall clock (what the reproduction actually
costs to run).  Where the two diverge — an averaging step that is cheap in
virtual time but slow in wall time, a shard RPC that blocks the parent — is
exactly what the tooling in :mod:`repro.obs.tooling` exists to surface.

The tracer is one of three sinks of :mod:`repro.obs.emit`: sites call
``span`` / ``instant`` there, and every emission whose event is declared
``timeline`` in :mod:`repro.obs.events` lands here through :meth:`Tracer.record`.

Determinism contract: apart from the two wall-time fields (``wall_start``,
``wall_dur``), every byte of a flushed trace is a pure function of the
seeded run.  Event names come from the schema in :mod:`repro.obs.events`
(checked at emit time, and at every call site by ``tests/test_obs.py``); virtual
timestamps come from the virtual clock; ``seq`` is the in-process emission
order; field values are run state (τ, round index, labels, content
addresses).  Two seeded runs therefore produce byte-identical
``trace.jsonl`` files modulo the wall fields — the property the
``python -m repro.obs diff`` triage tool and the test suite rely on.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.emit import Sink
from repro.obs.profile import Profiler

__all__ = [
    "Tracer",
    "WALL_FIELDS",
    "read_trace",
    "strip_wall_fields",
    "trace_lines",
]

#: The only nondeterministic keys of an event record; everything else is a
#: pure function of the seeded run.  Tooling and tests strip these before
#: comparing traces.
WALL_FIELDS = ("wall_start", "wall_dur")


class Tracer(Sink):
    """Buffers typed span/instant events; flushes deterministic JSONL.

    One tracer receives events at a time (``enable()`` / ``with Tracer() as
    t:``).  Events are buffered in memory and written by :meth:`flush` as one
    sorted-keys JSON object per line — byte-stable across seeded runs apart
    from the ``wall_*`` fields (see :data:`WALL_FIELDS`).

    Parameters
    ----------
    profile:
        Also run a :class:`~repro.obs.profile.Profiler` while this tracer is
        enabled, and bridge its aggregated per-op rows into the trace as
        ``profile_op`` instant events at :meth:`finish`/:meth:`flush` time —
        so one ``--trace`` run yields both the event timeline and the
        kernel-level breakdown.  Shard processes never report into the
        parent's profiler; their cost appears as ``shard_rpc`` spans instead.
    """

    _slot = 0

    def __init__(self, profile: bool = False):
        self._events: list[dict] = []
        self._wall0 = time.perf_counter()
        self._profiler = Profiler() if profile else None
        self._profile_bridged = False

    # -- activation ---------------------------------------------------------
    def enable(self) -> "Tracer":
        if self._profiler is not None:
            self._profiler.enable()
        return super().enable()

    def disable(self) -> "Tracer":
        if self._profiler is not None:
            self._profiler.disable()
        return super().disable()

    # -- emission -----------------------------------------------------------
    def record(
        self,
        name: str,
        kind: str,
        v_start: "float | None",
        v_dur: "float | None",
        wall_at: "float | None",
        wall_dur: "float | None",
        fields: dict,
    ) -> None:
        """Append one event; ``wall_at`` is a raw ``perf_counter`` reading."""
        self._events.append({
            "name": name,
            "kind": kind,
            "seq": len(self._events),
            "v_start": v_start,
            "v_dur": v_dur,
            "wall_start": None if wall_at is None else wall_at - self._wall0,
            "wall_dur": wall_dur,
            "fields": fields,
        })

    # -- output -------------------------------------------------------------
    def finish(self) -> list[dict]:
        """Bridge pending profiler rows (once) and return the event buffer.

        ``profile_op`` instants carry each slash-joined op path and its call
        count in ``fields`` (both deterministic) and the aggregated wall time
        in ``wall_dur`` — so the nondeterministic value lives in a wall field
        that :func:`strip_wall_fields` removes, keeping the whole stripped
        trace byte-stable.  Rows are emitted sorted by op path.
        """
        if self._profiler is not None and not self._profile_bridged:
            self._profile_bridged = True
            rows = self._profiler.to_dict()
            for op in sorted(rows):
                entry = rows[op]
                self.record(
                    "profile_op", "instant", None, None, None,
                    entry["total_seconds"], {"op": op, "calls": entry["calls"]},
                )
        return self._events

    @property
    def events(self) -> list[dict]:
        """The raw buffered event records (no profiler bridge)."""
        return self._events

    @property
    def profiler(self) -> "Profiler | None":
        """The bridged per-op profiler, when constructed with ``profile=True``."""
        return self._profiler

    def to_jsonl(self) -> str:
        """The trace as JSONL: one sorted-keys JSON object per line."""
        return trace_lines(self.finish())

    def flush(self, path: "str | Path") -> Path:
        """Write the trace to ``path`` (atomically; parents created)."""
        import os

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self.to_jsonl())
        os.replace(tmp, path)
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(events={len(self._events)})"


# -- reading traces back -----------------------------------------------------

def read_trace(path: "str | Path") -> list[dict]:
    """Parse a ``trace.jsonl`` file back into event records."""
    events = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{lineno}: not valid JSON ({err.msg})") from None
        if not isinstance(event, dict) or "name" not in event or "kind" not in event:
            raise ValueError(f"{path}:{lineno}: not a trace event record")
        events.append(event)
    return events


def strip_wall_fields(events: list[dict]) -> list[dict]:
    """Copies of ``events`` with the nondeterministic wall fields removed.

    What remains is byte-stable across seeded runs — the form the
    determinism tests and the ``diff`` tool compare.
    """
    return [{k: v for k, v in e.items() if k not in WALL_FIELDS} for e in events]


def trace_lines(events: list[dict]) -> str:
    """Serialize event records exactly as :meth:`Tracer.to_jsonl` would."""
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
