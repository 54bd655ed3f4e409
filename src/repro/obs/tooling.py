"""Trace tooling: summary tables, Chrome/Perfetto export, trace diffing.

Three consumers of the same ``trace.jsonl`` event records:

* :func:`summarize_trace` / :func:`summary_table` — per-event-type rollup
  (count, virtual vs wall totals) for a quick "where did this run spend its
  time" read in the terminal.
* :func:`to_chrome_trace` — the Chrome trace-event JSON format, loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.  Span events appear on
  two tracks: one positioned by the wall clock (what the process really
  did, ``shard_rpc`` stalls included) and one by the virtual clock (what
  the simulated cluster experienced) — scrolling between them is the
  fastest way to see where the two diverge.  A span that a helper process
  ran beside the parent's gets its own wall-track lane (``tid``).
  ``profile_op`` rows from the bridged per-op profiler come along as
  counter-style args.
* :func:`diff_traces` — compares the deterministic projection of two traces
  (wall fields stripped, see :data:`~repro.obs.tracer.WALL_FIELDS`): first
  structural divergence, per-event-name count deltas, and a round-timeline
  comparison of virtual start/duration — the debugging primitive for
  backend-equivalence triage ("the sharded run's round 17 diverged; what
  happened before it?").
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.obs.tracer import strip_wall_fields

__all__ = [
    "TraceDiff",
    "diff_traces",
    "summarize_trace",
    "summary_table",
    "to_chrome_trace",
]


# -- summary ------------------------------------------------------------------

def summarize_trace(events: list[dict]) -> dict[str, dict]:
    """Per-event-name rollup: counts and virtual/wall duration totals.

    Returns ``{name: {"count", "spans", "instants", "v_total", "wall_total",
    "wall_mean"}}`` sorted by name; duration totals are ``None`` when no
    event of that name carried the corresponding clock.
    """
    rollup: dict[str, dict] = {}
    for event in events:
        entry = rollup.setdefault(
            event["name"],
            {"count": 0, "spans": 0, "instants": 0,
             "v_total": None, "wall_total": None, "wall_mean": None},
        )
        entry["count"] += 1
        entry["spans" if event["kind"] == "span" else "instants"] += 1
        if event.get("v_dur") is not None:
            entry["v_total"] = (entry["v_total"] or 0.0) + event["v_dur"]
        if event.get("wall_dur") is not None:
            entry["wall_total"] = (entry["wall_total"] or 0.0) + event["wall_dur"]
    for entry in rollup.values():
        if entry["wall_total"] is not None and entry["spans"]:
            entry["wall_mean"] = entry["wall_total"] / entry["spans"]
    return dict(sorted(rollup.items()))


def summary_table(events: list[dict]) -> str:
    """The :func:`summarize_trace` rollup as an aligned text table."""
    rollup = summarize_trace(events)
    if not rollup:
        return "(empty trace)"

    def fmt(value, spec: str) -> str:
        return "-" if value is None else format(value, spec)

    width = max(len("event"), *(len(name) for name in rollup))
    header = (
        f"{'event':<{width}}  {'count':>7}  {'spans':>7}  {'virtual (s)':>12}  "
        f"{'wall (s)':>10}  {'wall mean (ms)':>14}"
    )
    lines = [header, "-" * len(header)]
    for name, entry in rollup.items():
        wall_mean_ms = None if entry["wall_mean"] is None else 1e3 * entry["wall_mean"]
        lines.append(
            f"{name:<{width}}  {entry['count']:>7}  {entry['spans']:>7}  "
            f"{fmt(entry['v_total'], '12.4f'):>12}  "
            f"{fmt(entry['wall_total'], '10.4f'):>10}  "
            f"{fmt(wall_mean_ms, '14.4f'):>14}"
        )
    return "\n".join(lines)


# -- Chrome trace-event export ------------------------------------------------

#: Synthetic pids for the two clock tracks of the Chrome export.
_WALL_PID = 1
_VIRTUAL_PID = 2


def _wall_lanes(events: list[dict]) -> dict[int, int]:
    """The wall-track ``tid`` of every span with a wall start, by event index.

    A tracer records a span when it closes, so a trace is a post-order walk
    of the call tree: a span adopts the run of spans just before it that lie
    inside it.  A helper's item, replayed into the parent's trace, can lie
    inside an item beside it in wall time; it then also holds one of that
    item's children, which no sibling of theirs can, and is left for the
    enclosing span.  That rebuilds the serial-equivalent tree.  By start,
    each span goes on its parent's lane while the parent is that lane's
    innermost open span, else on the lowest lane with nothing open: a serial
    trace is all lane 0, and no lane holds spans that overlap without nesting.
    """
    spans = [
        (index, event["wall_start"], event["wall_start"] + (event.get("wall_dur") or 0.0))
        for index, event in enumerate(events)
        if event["kind"] == "span" and event.get("wall_start") is not None
    ]
    parent: dict[int, int] = {}
    unadopted: list[tuple] = []
    for index, start, end in spans:
        children: list[tuple] = []
        first_child = end
        while unadopted and unadopted[-1][1] >= start and unadopted[-1][2] <= end:
            child, child_start, child_end = unadopted[-1]
            if child_end > first_child and any(
                child_start <= k_start and k_end <= child_end for k_start, k_end in children
            ):
                break
            unadopted.pop()
            parent[child] = index
            children.append((child_start, child_end))
            first_child = min(first_child, child_start)
        unadopted.append((index, start, end))
    lanes: dict[int, int] = {}
    open_spans: list[list] = [[]]  # per lane: the stack of open (index, end)
    for index, start, end in sorted(spans, key=lambda span: (span[1], -span[2], -span[0])):
        for stack in open_spans:
            while stack and stack[-1][1] <= start:
                stack.pop()
        up = parent.get(index)
        lane = lanes.get(up, 0)
        if (open_spans[lane][-1][0] if open_spans[lane] else None) != up:
            lane = next((k for k, stack in enumerate(open_spans) if not stack), len(open_spans))
            if lane == len(open_spans):
                open_spans.append([])
        open_spans[lane].append((index, end))
        lanes[index] = lane
    return lanes


def to_chrome_trace(events: list[dict]) -> dict:
    """Convert trace events to the Chrome trace-event JSON format.

    Span events become complete (``"ph": "X"``) events — on the wall-clock
    track always, and on the virtual-clock track additionally whenever they
    carry virtual timestamps.  Wall-track spans of a serial trace share
    ``tid`` 0; one that overlaps an open span without nesting in it (a
    helper's item) moves to another lane (:func:`_wall_lanes`).  Instants
    become ``"ph": "i"``; ``profile_op`` rows (no timestamps of their own)
    are placed at time 0 on the wall track with their aggregated stats in
    ``args``.  Timestamps are microseconds, per the format.
    """
    trace_events: list[dict] = [
        {"ph": "M", "pid": _WALL_PID, "tid": 0, "name": "process_name",
         "args": {"name": "wall clock"}},
        {"ph": "M", "pid": _VIRTUAL_PID, "tid": 0, "name": "process_name",
         "args": {"name": "virtual clock"}},
    ]
    lanes = _wall_lanes(events)
    for index, event in enumerate(events):
        args = dict(event.get("fields", {}))
        args["seq"] = event.get("seq")
        name = event["name"]
        if event["kind"] == "span":
            if event.get("wall_start") is not None:
                trace_events.append({
                    "ph": "X", "pid": _WALL_PID, "tid": lanes[index], "name": name,
                    "ts": 1e6 * event["wall_start"],
                    "dur": 1e6 * (event.get("wall_dur") or 0.0),
                    "args": args,
                })
            if event.get("v_start") is not None:
                trace_events.append({
                    "ph": "X", "pid": _VIRTUAL_PID, "tid": 0, "name": name,
                    "ts": 1e6 * event["v_start"],
                    "dur": 1e6 * (event.get("v_dur") or 0.0),
                    "args": args,
                })
        else:
            wall_start = event.get("wall_start")
            # profile_op rows keep their aggregated wall time in wall_dur
            # (a strippable wall field); surface it in the viewer's args.
            if event.get("wall_dur") is not None:
                args["total_seconds"] = event["wall_dur"]
            trace_events.append({
                "ph": "i", "pid": _WALL_PID, "tid": 0, "name": name, "s": "g",
                "ts": 0.0 if wall_start is None else 1e6 * wall_start,
                "args": args,
            })
            if event.get("v_start") is not None:
                trace_events.append({
                    "ph": "i", "pid": _VIRTUAL_PID, "tid": 0, "name": name,
                    "s": "g", "ts": 1e6 * event["v_start"], "args": args,
                })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# -- diff ---------------------------------------------------------------------

@dataclass
class TraceDiff:
    """Outcome of :func:`diff_traces` on two traces' deterministic parts."""

    #: Event counts (a vs b) per event name, only where they differ.
    count_deltas: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: Index of the first event whose deterministic record differs, with the
    #: two records (``None`` past the shorter trace's end).
    first_divergence: "tuple[int, dict | None, dict | None] | None" = None
    #: Per-round virtual-timeline mismatches: ``(round_index, a, b)`` where
    #: a/b are ``(v_start, v_dur)`` or ``None`` for a missing round.
    round_mismatches: list = field(default_factory=list)
    lengths: tuple = (0, 0)

    @property
    def identical(self) -> bool:
        """True when the traces agree on everything but wall time."""
        return (
            self.first_divergence is None
            and not self.count_deltas
            and not self.round_mismatches
        )

    def summary(self) -> str:
        if self.identical:
            return (
                f"traces identical modulo wall time "
                f"({self.lengths[0]} events)"
            )
        lines = [f"traces differ: {self.lengths[0]} vs {self.lengths[1]} events"]
        for name, (na, nb) in sorted(self.count_deltas.items()):
            lines.append(f"  count[{name}]: {na} vs {nb}")
        if self.first_divergence is not None:
            index, ea, eb = self.first_divergence
            lines.append(f"  first divergence at event {index}:")
            lines.append(f"    a: {'<end of trace>' if ea is None else json.dumps(ea, sort_keys=True)}")
            lines.append(f"    b: {'<end of trace>' if eb is None else json.dumps(eb, sort_keys=True)}")
        for round_index, ta, tb in self.round_mismatches[:10]:
            lines.append(
                f"  round {round_index}: virtual (start, dur) "
                f"{ta if ta is not None else '<missing>'} vs "
                f"{tb if tb is not None else '<missing>'}"
            )
        if len(self.round_mismatches) > 10:
            lines.append(
                f"  ... {len(self.round_mismatches) - 10} more round mismatch(es)"
            )
        return "\n".join(lines)


def _round_timeline(events: list[dict]) -> dict[int, tuple]:
    """``{round_index: (v_start, v_dur)}`` from a trace's ``round`` spans."""
    timeline = {}
    for event in events:
        if event["name"] == "round" and event["kind"] == "span":
            timeline[event["fields"].get("round", len(timeline) + 1)] = (
                event.get("v_start"),
                event.get("v_dur"),
            )
    return timeline


def diff_traces(events_a: list[dict], events_b: list[dict]) -> TraceDiff:
    """Compare two traces' deterministic projections (wall fields stripped).

    Backend-equivalence triage: two seeded runs that should be byte-identical
    (e.g. vectorized vs a re-run, or two sharded layouts) must produce
    identical deterministic traces; when they do not, the first divergence
    and the round-timeline mismatches point at *when* the runs parted ways.
    """
    a = strip_wall_fields(events_a)
    b = strip_wall_fields(events_b)
    diff = TraceDiff(lengths=(len(a), len(b)))

    counts_a: dict[str, int] = {}
    counts_b: dict[str, int] = {}
    for event in a:
        counts_a[event["name"]] = counts_a.get(event["name"], 0) + 1
    for event in b:
        counts_b[event["name"]] = counts_b.get(event["name"], 0) + 1
    for name in sorted(set(counts_a) | set(counts_b)):
        na, nb = counts_a.get(name, 0), counts_b.get(name, 0)
        if na != nb:
            diff.count_deltas[name] = (na, nb)

    for index in range(max(len(a), len(b))):
        ea = a[index] if index < len(a) else None
        eb = b[index] if index < len(b) else None
        if ea != eb:
            diff.first_divergence = (index, ea, eb)
            break

    timeline_a = _round_timeline(a)
    timeline_b = _round_timeline(b)
    for round_index in sorted(set(timeline_a) | set(timeline_b)):
        ta = timeline_a.get(round_index)
        tb = timeline_b.get(round_index)
        if ta != tb:
            diff.round_mismatches.append((round_index, ta, tb))
    return diff
