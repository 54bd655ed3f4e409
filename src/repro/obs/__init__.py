"""repro.obs — structured run telemetry.

One emission surface, one schema, three consumers:

* :mod:`repro.obs.emit` — ``span`` / ``instant`` / ``count`` / ``gauge`` /
  ``observe``: everything an instrumented site calls, over the one switch.
* :mod:`repro.obs.events` — the schema: per event name, whether it is a
  trace record, which profile row, counter and latency histogram it feeds.
* The sinks: :class:`~repro.obs.tracer.Tracer` (typed span/instant events
  with dual virtual/wall timestamps, flushed to deterministic
  ``trace.jsonl``), :class:`~repro.obs.metrics.MetricsRegistry`
  (counters/gauges/histograms with one JSON-compatible snapshot, persisted
  by the run/sweep stores) and :class:`~repro.obs.profile.Profiler`
  (nested per-op wall-time rows behind ``--profile``).
* :mod:`repro.obs.tooling` (and ``python -m repro.obs``) — summary tables,
  Chrome/Perfetto export, and trace diffing for equivalence triage.

Every emission function is zero-overhead while no sink is enabled, so the
calls live in the execution stack unconditionally.
"""

from repro.obs.emit import count, gauge, instant, observe, observe_many, span
from repro.obs.events import EVENT_NAMES, EVENTS, Event, validate_event_name
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.tooling import diff_traces, summarize_trace, summary_table, to_chrome_trace
from repro.obs.tracer import (
    WALL_FIELDS,
    Tracer,
    read_trace,
    strip_wall_fields,
    trace_lines,
)

__all__ = [
    "EVENTS",
    "EVENT_NAMES",
    "Event",
    "MetricsRegistry",
    "Profiler",
    "Tracer",
    "WALL_FIELDS",
    "count",
    "diff_traces",
    "gauge",
    "instant",
    "observe",
    "observe_many",
    "read_trace",
    "span",
    "strip_wall_fields",
    "summarize_trace",
    "summary_table",
    "to_chrome_trace",
    "trace_lines",
    "validate_event_name",
]
