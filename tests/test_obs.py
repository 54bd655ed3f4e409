"""repro.obs: the emission surface, its three sinks, tooling, CLI, and the wiring.

The load-bearing properties, in test order:

* Determinism — two seeded runs produce byte-identical traces once the
  ``wall_*`` fields are stripped (the contract ``python -m repro.obs diff``
  and every downstream tool relies on), and the sharded backend's trace
  tells the same virtual-time story as the vectorized one.
* Zero overhead when disabled — ``span`` returns one shared null singleton
  and the other helpers return at once while no sink is enabled, so
  instrumentation can live in per-round hot paths.
* One surface, three consumers — a span takes one clock pair that the
  tracer, the registry and the profiler share; each sink owns one slot of
  the one switch and gives exactly that slot back.
* Telemetry never contaminates results — ``RunStore`` payloads only carry a
  metrics snapshot when one was attached, and sweep metrics live in a
  sidecar file outside the byte-identity contract.
"""

from __future__ import annotations

import ast
import io
import json
import logging
import re
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.configs import make_config
from repro.experiments.harness import run_experiment, run_method
from repro.obs import (
    EVENT_NAMES,
    EVENTS,
    MetricsRegistry,
    Profiler,
    Tracer,
    WALL_FIELDS,
    count,
    diff_traces,
    emit,
    gauge,
    instant,
    observe,
    observe_many,
    read_trace,
    span,
    strip_wall_fields,
    summarize_trace,
    summary_table,
    to_chrome_trace,
    trace_lines,
    validate_event_name,
)
from repro.obs.cli import main as obs_main
from repro.obs.emit import _NULL_SPAN
from repro.obs.metrics import STANDARD_METRICS, Counter, Gauge, Histogram
from repro.utils.results import RunStore
from repro.utils.timer import VirtualClock


def _tiny_config(**overrides):
    """A shrunken smoke config: one method, seconds of wall time."""
    overrides.setdefault("methods", ("sync-sgd",))
    overrides.setdefault("wall_time_budget", 8.0)
    return make_config("smoke", n_train=120, n_test=40, **overrides)


def _traced_run(config, profile=False):
    with Tracer(profile=profile) as tracer:
        run_experiment(config)
    return tracer.finish()


# -- tracer unit behavior -----------------------------------------------------


class TestTracer:
    def test_span_records_virtual_and_wall_clocks(self):
        clock = VirtualClock()
        with Tracer() as tracer:
            with span("round", clock=clock, round=1, tau=4):
                clock.advance(2.5)
            instant("eval", clock=clock, round=1)
        events = tracer.events
        assert [e["name"] for e in events] == ["round", "eval"]
        assert [e["seq"] for e in events] == [0, 1]
        round_event = events[0]
        assert round_event["kind"] == "span"
        assert round_event["v_start"] == 0.0
        assert round_event["v_dur"] == 2.5
        assert round_event["wall_dur"] >= 0.0
        assert round_event["fields"] == {"round": 1, "tau": 4}
        assert events[1]["kind"] == "instant"
        assert events[1]["v_start"] == 2.5

    def test_clockless_span_has_null_virtual_fields(self):
        with Tracer() as tracer:
            with span("experiment", n_methods=2):
                pass
        (event,) = tracer.events
        assert event["v_start"] is None and event["v_dur"] is None

    def test_unknown_event_name_rejected_at_emit(self):
        with Tracer():
            with pytest.raises(ValueError, match="unknown trace event name"):
                instant("not_an_event")
        with pytest.raises(ValueError, match="registered names"):
            validate_event_name("nope")
        assert validate_event_name("round") == "round"

    def test_every_emission_site_in_src_names_a_declared_event(self):
        # The emit-time check fires only on branches some test runs; this walk
        # reaches every call site.  A call through a name imported from
        # repro.obs must pass a literal, and every literal must be in the schema.
        root = Path(__file__).resolve().parents[1] / "src" / "repro"
        sites, computed = [], []
        for path in sorted(root.rglob("*.py")):
            if path.relative_to(root).parts[0] == "obs":
                continue
            tree = ast.parse(path.read_text())
            imported = {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.obs")
                for alias in node.names if alias.name in ("span", "instant")
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                direct = isinstance(node.func, ast.Name) and node.func.id in imported
                if not (direct or isinstance(node.func, ast.Attribute) and node.func.attr in ("span", "instant")):
                    continue
                first = node.args[0] if node.args else None
                site = f"{path.relative_to(root)}:{node.lineno}"
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    sites.append((first.value, site))
                elif direct:
                    computed.append(site)
        assert len(sites) >= 25  # the trainer's "eval" span has one site
        assert computed == []
        assert [(name, site) for name, site in sites if name not in EVENT_NAMES] == []

    def test_disabled_helpers_are_shared_null_singletons(self):
        assert emit._active is None
        assert span("round") is _NULL_SPAN
        assert span("eval", round=3) is span("communicate")
        assert instant("round") is None  # no tracer: pure no-op
        # the null scope is reusable as a context manager
        with span("round", tau=2):
            pass

    def test_nested_tracers_restore_the_outer_one(self):
        outer, inner = Tracer(), Tracer()
        with outer:
            instant("round", round=1)
            with inner:
                instant("eval", round=1)
            assert emit._active == (outer, None, None)
            instant("round", round=2)
        assert emit._active is None
        assert [e["name"] for e in outer.events] == ["round", "round"]
        assert [e["name"] for e in inner.events] == ["eval"]

    def test_jsonl_roundtrip_and_atomic_flush(self, tmp_path):
        clock = VirtualClock()
        with Tracer() as tracer:
            with span("round", clock=clock, round=1):
                clock.advance(1.0)
        path = tracer.flush(tmp_path / "deep" / "trace.jsonl")
        assert path.is_file() and not list(tmp_path.glob("**/*.tmp"))
        events = read_trace(path)
        assert events == tracer.finish()
        assert trace_lines(events) == path.read_text()

    def test_read_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "round", "kind": "span"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(bad)
        bad.write_text('{"no_name_key": 1}\n')
        with pytest.raises(ValueError, match="not a trace event record"):
            read_trace(bad)

    def test_strip_wall_fields_removes_exactly_the_wall_keys(self):
        clock = VirtualClock()
        with Tracer() as tracer:
            with span("round", clock=clock):
                clock.advance(1.0)
        (stripped,) = strip_wall_fields(tracer.events)
        assert set(WALL_FIELDS) & set(stripped) == set()
        assert set(tracer.events[0]) - set(stripped) == set(WALL_FIELDS)
        # the originals are untouched
        assert "wall_start" in tracer.events[0]

    def test_profiler_rows_bridge_once_into_wall_dur(self):
        tracer = Tracer(profile=True)
        with tracer:
            with span("im2col"):
                pass
            with span("im2col"):
                pass
        events = tracer.finish()
        tracer.finish()  # idempotent: the bridge runs once
        profile_rows = [e for e in events if e["name"] == "profile_op"]
        assert len(profile_rows) == 1
        (row,) = profile_rows
        assert row["kind"] == "instant"
        assert row["fields"] == {"op": "im2col", "calls": 2}
        # the nondeterministic total lives in a strippable wall field
        assert row["wall_dur"] > 0.0
        assert strip_wall_fields([row])[0]["fields"] == row["fields"]


# -- metrics registry ---------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_primitives(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.to_dict() == 3.5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)
        g = Gauge()
        g.set(4)
        g.set(2.0)
        assert g.to_dict() == 2.0
        h = Histogram(buckets=(0.1, 1.0))
        assert h.to_dict()["min"] is None
        h.observe(0.05)   # -> le_0.1
        h.observe(0.5)    # -> le_1
        h.observe(100.0)  # -> le_inf overflow
        payload = h.to_dict()
        assert payload["buckets"] == {"le_0.1": 1, "le_1": 1, "le_inf": 1}
        assert payload["count"] == 3
        assert payload["min"] == 0.05 and payload["max"] == 100.0
        assert payload["sum"] == pytest.approx(100.55)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("rounds_total")

    def test_helpers_are_noops_while_disabled(self):
        assert emit._active is None
        count("rounds_total")
        gauge("workers", 4)
        observe("shard_rpc_seconds", 0.1)
        assert span("shard_gather") is span("shard_gather")

        class Exploding:
            def __iter__(self):
                raise AssertionError("iterated while metrics disabled")

        observe_many("shard_rpc_seconds", Exploding())  # must not iterate

        def exploding():
            raise AssertionError("gauge reading taken while metrics disabled")

        gauge("consensus_distance", exploding)  # must not call
        with Tracer():  # something is on, but no registry: still not called
            gauge("consensus_distance", exploding)

    def test_helpers_record_while_enabled(self):
        with MetricsRegistry() as registry:
            count("rounds_total", 3)
            gauge("workers", 8)
            gauge("consensus_distance", lambda: 0.25)
            observe_many("straggler_wait_virtual_seconds", [0.1, 0.2])
            with span("shard_rpc", op="mean_state"):
                pass
        snapshot = registry.snapshot()
        assert snapshot["counters"]["rounds_total"] == 3
        assert snapshot["gauges"]["workers"] == 8.0
        assert snapshot["gauges"]["consensus_distance"] == 0.25
        assert snapshot["histograms"]["straggler_wait_virtual_seconds"]["count"] == 2
        assert snapshot["histograms"]["shard_rpc_seconds"]["count"] == 1

    def test_nested_registries_restore_the_outer_one(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with outer:
            count("rounds_total")
            with inner:
                count("rounds_total")
            assert emit._active == (None, outer, None)
            count("rounds_total")
        assert emit._active is None
        assert outer.snapshot()["counters"]["rounds_total"] == 2
        assert inner.snapshot()["counters"]["rounds_total"] == 1

    def test_snapshot_schema_is_stable_and_bridges_plan_cache(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot["version"] == 1
        assert "rounds_total" in snapshot["counters"]
        assert "sweep_cells_executed_total" in snapshot["counters"]
        assert "shard_rpc_seconds" in snapshot["histograms"]
        for key in ("plan_cache_hits", "plan_cache_misses",
                    "plan_cache_conv_plans", "plan_cache_pool_plans"):
            assert key in snapshot["gauges"]
        # JSON-compatible with sorted keys all the way down
        assert json.loads(json.dumps(snapshot, sort_keys=True)) == snapshot


# -- one surface, one switch, three sinks --------------------------------------


class TestOneSurface:
    def test_one_span_reads_the_clock_twice_and_every_consumer_gets_that_duration(
        self, monkeypatch
    ):
        tracer, registry = Tracer(profile=True), MetricsRegistry()  # origin read here
        reads = []

        def fake_clock():
            reads.append(100.0 + 0.375 * len(reads))
            return reads[-1]

        with tracer, registry, monkeypatch.context() as patch:
            patch.setattr(time, "perf_counter", fake_clock)
            with span("shard_rpc", op="mean_state", shard="all"):
                pass
        assert reads == [100.0, 100.375]
        (event,) = tracer.events
        assert event["wall_dur"] == 0.375
        assert registry.snapshot()["histograms"]["shard_rpc_seconds"]["sum"] == 0.375
        assert tracer.profiler.to_dict() == {
            "shard_rpc.mean_state": {
                "calls": 1, "total_seconds": 0.375, "mean_seconds": 0.375,
            }
        }

    def test_only_events_declaring_a_row_enter_the_profile_path(self):
        # A bare timeline span must not push: rows would gain a
        # ``round/...`` prefix and every profile_op row would change.
        with Tracer(profile=True) as tracer:
            with span("round", round=1), span("average", n_workers=2), span("im2col"):
                pass
        assert sorted(tracer.profiler.to_dict()) == ["cluster.average", "cluster.average/im2col"]
        assert [e["name"] for e in tracer.events] == ["average", "round"]  # im2col: no record

    def test_a_reentered_scope_counts_one_call_and_a_raising_body_still_pops(self):
        with Profiler() as profiler:
            gathering = span("im2col")
            for _ in range(3):
                with gathering:
                    pass
            with pytest.raises(RuntimeError, match="boom"):
                with span("conv2d.bank_forward"), span("col2im"):
                    raise RuntimeError("boom")
            with span("bank_sgd.step"):  # top-level again: the path was unwound
                pass
        assert {op: row["calls"] for op, row in profiler.to_dict().items()} == {
            "im2col": 1, "conv2d.bank_forward": 1, "conv2d.bank_forward/col2im": 1,
            "bank_sgd.step": 1,
        }

    def test_profile_paths_are_per_thread_and_rows_are_shared(self):
        # Threads run kernel scopes while the parent sits inside its own:
        # their rows stay top-level, in the one table.
        def shard():
            with span("bank_sgd.step"):
                pass

        with Profiler() as profiler, span("cluster.local_period"):
            threads = [threading.Thread(target=shard) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            shard()
        assert {op: row["calls"] for op, row in profiler.to_dict().items()} == {
            "cluster.local_period": 1, "bank_sgd.step": 2,
            "cluster.local_period/bank_sgd.step": 1,
        }

    def test_an_instant_feeds_timeline_and_counter_only(self):
        # An instant of a span's event name feeds neither histogram nor profile.
        with Tracer(profile=True) as tracer, MetricsRegistry() as registry:
            instant("shard_rpc", op="broadcast", shard=0)
        assert [e["kind"] for e in tracer.events] == ["instant"]
        assert registry.snapshot()["histograms"]["shard_rpc_seconds"]["count"] == 0
        assert tracer.profiler.to_dict() == {}

    def test_a_span_counter_counts_a_body_that_raised(self):
        with MetricsRegistry() as registry:
            with pytest.raises(RuntimeError):
                with span("eval", round=1):
                    raise RuntimeError("diverged")
            instant("eval", round=2)  # instants feed the counter too
        assert registry.snapshot()["counters"]["evals_total"] == 2

    def test_a_scope_binds_its_consumers_when_created(self):
        with Tracer() as tracer:
            scope = span("shard_rpc", op="ping")
            with MetricsRegistry() as late:
                with scope:
                    pass
        assert len(tracer.events) == 1
        assert late.snapshot()["histograms"]["shard_rpc_seconds"]["count"] == 0

    def test_nested_profiler_restores_the_outer_one(self):
        with Profiler() as outer:
            with span("im2col"):
                pass
            with Tracer(profile=True) as inner:
                with span("im2col"):
                    pass
            with span("im2col"):  # the inner tracer's profiler gave the slot back
                pass
        assert emit._active is None
        assert outer.to_dict()["im2col"]["calls"] == 2
        assert inner.profiler.to_dict()["im2col"]["calls"] == 1

    def test_sinks_disable_in_any_order_each_returning_its_own_slot(self):
        tracer, registry, profiler = Tracer().enable(), MetricsRegistry().enable(), Profiler().enable()
        tracer.disable()  # not LIFO: the registry and the profiler stay on
        assert emit._active == (None, registry, profiler)
        with span("shard_rpc", op="ping"):
            pass
        profiler.disable()
        tracer.disable()  # a second disable is a no-op
        assert emit._active == (None, registry, None)
        registry.disable()
        assert emit._active is None
        assert tracer.events == []
        assert registry.snapshot()["histograms"]["shard_rpc_seconds"]["count"] == 1
        assert profiler.to_dict()["shard_rpc.ping"]["calls"] == 1

    def test_every_metric_an_event_names_is_preregistered(self):
        # Else a snapshot's schema would depend on which events fired.
        declared = {("counter", e.counter) for e in EVENTS.values() if e.counter}
        declared |= {("histogram", e.histogram) for e in EVENTS.values() if e.histogram}
        assert declared and declared <= set(STANDARD_METRICS)

    def test_the_wall_clock_is_read_in_two_modules_only(self):
        import repro

        root = Path(repro.__file__).parent
        readers = sorted(
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if re.search(r"perf_counter(_ns)?\(\)", path.read_text())
        )
        assert readers == ["obs/emit.py", "obs/tracer.py"]


# -- determinism and backend parity (integration) -----------------------------


class TestTraceDeterminism:
    def test_two_seeded_runs_trace_byte_identical_modulo_wall(self):
        config = _tiny_config()
        events_a = _traced_run(config, profile=True)
        events_b = _traced_run(config, profile=True)
        lines_a = trace_lines(strip_wall_fields(events_a))
        lines_b = trace_lines(strip_wall_fields(events_b))
        assert lines_a == lines_b
        assert diff_traces(events_a, events_b).identical
        # the run exercised the whole event vocabulary we expect of it
        names = {e["name"] for e in events_a}
        assert {"experiment", "method", "round", "local_steps",
                "communicate", "average", "eval", "profile_op"} <= names
        assert names <= EVENT_NAMES

    def test_sharded_trace_tells_the_same_virtual_story_as_vectorized(self):
        core = ("round", "local_steps", "communicate", "average", "eval")

        def timeline(backend):
            config = _tiny_config(
                backend=backend, backend_shards=2, wall_time_budget=6.0
            )
            with Tracer() as tracer:
                run_method(config, "sync-sgd")
            rows = []
            for event in tracer.events:
                if event["name"] not in core:
                    continue
                fields = {k: v for k, v in event["fields"].items() if k != "backend"}
                rows.append(
                    (event["name"], event["kind"], event["v_start"],
                     event["v_dur"], fields)
                )
            return rows, tracer.events

        vec_rows, _ = timeline("vectorized")
        shard_rows, shard_events = timeline("sharded")
        assert shard_rows == vec_rows
        # the sharded run additionally reports its RPC traffic
        rpc = [e for e in shard_events if e["name"] == "shard_rpc"]
        assert rpc, "sharded run recorded no shard_rpc events"
        assert all(e["fields"]["shard"] in ("all", 0, 1) for e in rpc)

    def test_metrics_counters_are_deterministic_and_plausible(self):
        config = _tiny_config()
        snapshots = []
        for _ in range(2):
            with MetricsRegistry() as registry:
                run_experiment(config)
            snapshots.append(registry.snapshot())
        a, b = snapshots
        assert a["counters"] == b["counters"]
        assert a["counters"]["rounds_total"] > 0
        assert a["counters"]["comm_rounds_total"] > 0
        assert a["counters"]["bytes_averaged_total"] > 0
        assert a["counters"]["evals_total"] >= 2
        assert a["gauges"]["workers"] == config.n_workers
        straggler = a["histograms"]["straggler_wait_virtual_seconds"]
        assert straggler["count"] == b["histograms"][
            "straggler_wait_virtual_seconds"]["count"] > 0


# -- tooling ------------------------------------------------------------------


def _synthetic_events():
    """A small hand-built trace: 2 rounds, an eval, a profile row."""
    def record(seq, name, kind, v_start, v_dur, fields, wall_start=0.5, wall_dur=0.1):
        return {"name": name, "kind": kind, "seq": seq, "v_start": v_start,
                "v_dur": v_dur, "wall_start": wall_start, "wall_dur": wall_dur,
                "fields": fields}

    return [
        record(0, "round", "span", 0.0, 2.0, {"round": 1, "tau": 4}),
        record(1, "round", "span", 2.0, 3.0, {"round": 2, "tau": 4}),
        record(2, "eval", "span", 5.0, 0.0, {"round": 2}),
        {"name": "profile_op", "kind": "instant", "seq": 3, "v_start": None,
         "v_dur": None, "wall_start": None, "wall_dur": 0.25,
         "fields": {"op": "bank/gemm", "calls": 7}},
    ]


class TestTooling:
    def test_summarize_and_table(self):
        rollup = summarize_trace(_synthetic_events())
        assert list(rollup) == ["eval", "profile_op", "round"]
        assert rollup["round"]["count"] == 2
        assert rollup["round"]["v_total"] == 5.0
        assert rollup["round"]["wall_mean"] == pytest.approx(0.1)
        assert rollup["profile_op"]["spans"] == 0
        table = summary_table(_synthetic_events())
        assert "round" in table and "profile_op" in table
        assert summary_table([]) == "(empty trace)"

    def test_chrome_export_structure(self):
        document = to_chrome_trace(_synthetic_events())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metadata} == {"wall clock", "virtual clock"}
        spans = [e for e in events if e["ph"] == "X"]
        # 3 spans × (wall + virtual track) = 6 complete events
        assert len(spans) == 6
        assert {e["pid"] for e in spans} == {1, 2}
        virtual_round = next(
            e for e in spans if e["pid"] == 2 and e["args"].get("round") == 2
        )
        assert virtual_round["ts"] == pytest.approx(2.0e6)
        assert virtual_round["dur"] == pytest.approx(3.0e6)
        (profile,) = [e for e in events if e["name"] == "profile_op"]
        assert profile["ph"] == "i"
        assert profile["args"]["total_seconds"] == 0.25
        json.dumps(document)  # must be valid JSON end to end

    def test_chrome_export_puts_overlapping_spans_on_separate_tids(self):
        # Method b ran on a helper and was replayed after method a: the two
        # overlap in wall time, and b's round lies inside a's wall interval.
        def record(seq, name, wall_start, wall_dur, **fields):
            return {"name": name, "kind": "span", "seq": seq, "v_start": None, "v_dur": None,
                    "wall_start": wall_start, "wall_dur": wall_dur, "fields": fields}

        events = [
            record(0, "round", 0.1, 0.1, method="a"),
            record(1, "method", 0.0, 1.0, method="a"),
            record(2, "round", 0.6, 0.1, method="b"),
            record(3, "method", 0.5, 1.0, method="b"),
            record(4, "experiment", 0.0, 2.0),
        ]
        tids = {
            (e["name"], e["args"].get("method")): e["tid"]
            for e in to_chrome_trace(events)["traceEvents"] if e["ph"] == "X"
        }
        assert tids == {
            ("round", "a"): 0, ("method", "a"): 0, ("experiment", None): 0,
            ("round", "b"): 1, ("method", "b"): 1,
        }
        # A serial trace nests properly: everything stays on tid 0.
        # Method a inside method b's wall interval, holding one of b's rounds.
        inside = [
            record(0, "round", 0.65, 0.05, method="a"),
            record(1, "method", 0.6, 0.3, method="a"),
            record(2, "round", 0.55, 0.07, method="b"),
            record(3, "round", 0.75, 0.05, method="b"),
            record(4, "method", 0.5, 1.0, method="b"),
            record(5, "experiment", 0.0, 2.0),
        ]
        assert {
            (e["name"], e["args"].get("method"), e["tid"])
            for e in to_chrome_trace(inside)["traceEvents"] if e["ph"] == "X"
        } == {
            ("round", "a", 1), ("method", "a", 1), ("experiment", None, 0),
            ("round", "b", 0), ("method", "b", 0),
        }
        events[1]["wall_dur"] = 0.4  # method a ends before method b starts
        assert {e["tid"] for e in to_chrome_trace(events)["traceEvents"]} == {0}

    def test_diff_identical_modulo_wall(self):
        a = _synthetic_events()
        b = [dict(e, wall_start=9.9, wall_dur=9.9) for e in _synthetic_events()]
        diff = diff_traces(a, b)
        assert diff.identical
        assert "identical modulo wall time" in diff.summary()

    def test_diff_surfaces_divergence_counts_and_round_timeline(self):
        a = _synthetic_events()
        b = _synthetic_events()
        b[1]["v_dur"] = 4.5         # round 2's virtual duration changed
        del b[2]                    # and the eval disappeared
        diff = diff_traces(a, b)
        assert not diff.identical
        assert diff.count_deltas == {"eval": (1, 0)}
        index, ea, eb = diff.first_divergence
        assert index == 1 and ea["v_dur"] == 3.0 and eb["v_dur"] == 4.5
        assert diff.round_mismatches == [(2, (2.0, 3.0), (2.0, 4.5))]
        text = diff.summary()
        assert "count[eval]: 1 vs 0" in text and "round 2" in text


# -- the obs CLI --------------------------------------------------------------


class TestObsCli:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        clock = VirtualClock()
        with Tracer() as tracer:
            with span("round", clock=clock, round=1):
                clock.advance(1.0)
            instant("eval", clock=clock, round=1)
        return tracer.flush(tmp_path / "trace.jsonl")

    def test_summary_verb(self, trace_path, capsys):
        assert obs_main(["summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "2 events" in out and "round" in out and "eval" in out

    def test_export_verb_stdout_and_file(self, trace_path, tmp_path, capsys):
        assert obs_main(["export", str(trace_path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["traceEvents"]
        out = tmp_path / "nested" / "trace.chrome.json"
        assert obs_main(["export", str(trace_path), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["displayTimeUnit"] == "ms"

    def test_diff_verb_exit_codes(self, trace_path, tmp_path, capsys):
        twin = tmp_path / "twin.jsonl"
        twin.write_text(trace_path.read_text())
        assert obs_main(["diff", str(trace_path), str(twin)]) == 0
        events = read_trace(trace_path)
        events[0]["fields"]["round"] = 99
        other = tmp_path / "other.jsonl"
        other.write_text(trace_lines(events))
        assert obs_main(["diff", str(trace_path), str(other)]) == 1
        assert "differ" in capsys.readouterr().out

    def test_bad_input_exits_2(self, tmp_path, capsys):
        assert obs_main(["summary", str(tmp_path / "missing.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err
        mangled = tmp_path / "mangled.jsonl"
        mangled.write_text("not json\n")
        assert obs_main(["summary", str(mangled)]) == 2


# -- persistence wiring -------------------------------------------------------


class TestPersistence:
    def test_runstore_payload_omits_metrics_unless_set(self):
        store = RunStore()
        assert "metrics" not in store.to_payload()
        snapshot = MetricsRegistry().snapshot()
        store.metrics = snapshot
        payload = store.to_payload()
        assert payload["metrics"] == snapshot
        rebuilt = RunStore.from_payload(json.loads(json.dumps(payload)))
        assert rebuilt.metrics == snapshot
        assert RunStore.from_payload({"runs": []}).metrics is None

    def test_result_store_metrics_sidecar_and_merge(self, tmp_path):
        from repro.sweep.store import ResultStore

        src = ResultStore(tmp_path / "src")
        src.put("cafe0000", {"name": "smoke"}, {"runs": []})
        snapshot = MetricsRegistry().snapshot()
        assert not src.has_metrics("cafe0000")
        with pytest.raises(KeyError, match="no metrics sidecar"):
            src.metrics("cafe0000")
        src.put_metrics("cafe0000", snapshot)
        assert src.has_metrics("cafe0000")
        assert src.metrics("cafe0000") == snapshot
        # the sidecar travels with a merge but never gates it
        dst = ResultStore(tmp_path / "dst")
        report = dst.merge_from(src)
        assert report.ok
        assert dst.metrics("cafe0000") == snapshot

    def test_sweep_collects_metrics_only_when_asked(self, tmp_path):
        from repro.sweep import ResultStore, SweepSpec, grid, run_sweep

        base = _tiny_config(wall_time_budget=6.0)
        spec = SweepSpec("obs-tiny", base, grid(tau=[1, 2]))
        report = run_sweep(spec, tmp_path / "plain", jobs=1)
        assert report.ok
        plain = ResultStore(tmp_path / "plain")
        assert not any(plain.has_metrics(a) for a in plain.addresses())

        report = run_sweep(spec, tmp_path / "tele", jobs=1, collect_metrics=True)
        assert report.ok
        tele = ResultStore(tmp_path / "tele")
        addresses = tele.addresses()
        assert addresses and all(tele.has_metrics(a) for a in addresses)
        snapshot = tele.metrics(addresses[0])
        assert snapshot["counters"]["rounds_total"] > 0
        # telemetry never changes the stored result bytes
        for address in addresses:
            assert (
                plain._result_path(address).read_text()
                == tele._result_path(address).read_text()
            )


    def test_outcome_instants_follow_pending_order_not_completion_order(
        self, tmp_path, monkeypatch
    ):
        from repro.sweep import SweepSpec, grid
        from repro.sweep.runner import SweepRunner
        from tests.conftest import Placement

        spec = SweepSpec("obs-order", _tiny_config(wall_time_budget=4.0), grid(tau=[1, 2, 4]))

        def traced(store, jobs):
            with Tracer() as tracer:
                report = SweepRunner(store, jobs=jobs).run(spec)
            assert report.ok
            return strip_wall_fields(tracer.events), report.executed

        serial, serial_order = traced(tmp_path / "serial", 1)
        # A helper takes the last cell; the parent replays its events just
        # before that cell's outcome: a --jobs 2 trace is the --jobs 1 trace.
        placement = Placement(monkeypatch)
        parallel, parallel_order = traced(tmp_path / "parallel", 2)
        assert placement.helper_claimed and parallel_order == serial_order
        assert parallel == serial
        instants = [e for e in serial if e["kind"] == "instant"]
        assert {e["name"] for e in instants} == {"sweep_cell"}
        assert [e["fields"]["address"] for e in instants] == serial_order and len(serial_order) == 3


# -- experiment API and CLI wiring --------------------------------------------


class TestEntryPoints:
    def test_experiment_builder_trace(self, tmp_path):
        from repro.api import Experiment

        path = tmp_path / "api" / "trace.jsonl"
        store = (
            Experiment(_tiny_config(wall_time_budget=6.0))
            .trace(path, profile=True)
            .run()
        )
        assert store.names() == ["sync-sgd"]
        events = read_trace(path)
        names = {e["name"] for e in events}
        assert {"experiment", "method", "round", "profile_op"} <= names
        assert emit._active is None  # run() cleaned up after itself

    def test_cli_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.experiments.cli import main

        path = tmp_path / "cli-trace.jsonl"
        assert main([
            "--config", "smoke", "--scale", "0.2",
            "--set", "methods=('sync-sgd',)",
            "--trace", str(path), "--metrics", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out and "metrics snapshot" in out
        events = read_trace(path)
        assert any(e["name"] == "profile_op" for e in events)

    def test_cli_metrics_embedded_in_saved_store(self, tmp_path, capsys):
        from repro.experiments.cli import main

        save = tmp_path / "store.json"
        assert main([
            "--config", "smoke", "--scale", "0.2",
            "--set", "methods=('sync-sgd',)",
            "--metrics", "--save", str(save),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(save.read_text())
        assert payload["metrics"]["counters"]["rounds_total"] > 0
        assert RunStore.load(save).metrics == payload["metrics"]


# -- logging ------------------------------------------------------------------


@pytest.fixture()
def fresh_logging(monkeypatch):
    """Isolate the module-global handler so each test configures from scratch."""
    import repro.utils.logging as rlog

    logger = logging.getLogger("repro")
    saved_handlers = logger.handlers[:]
    saved_level = logger.level
    for handler in saved_handlers:
        logger.removeHandler(handler)
    monkeypatch.setattr(rlog, "_handler", None)
    yield rlog
    for handler in logger.handlers[:]:
        logger.removeHandler(handler)
    for handler in saved_handlers:
        logger.addHandler(handler)
    logger.setLevel(saved_level)


class TestLogging:
    def test_repeat_configure_reapplies_level_and_keeps_one_handler(self, fresh_logging):
        stream = io.StringIO()
        fresh_logging.configure_logging(level=logging.DEBUG, stream=stream)
        logger = fresh_logging.get_logger("obs.level")
        logger.debug("visible")
        fresh_logging.configure_logging(level=logging.WARNING, stream=io.StringIO())
        logger.debug("filtered")
        logger.warning("loud")
        output = stream.getvalue()
        assert "visible" in output and "filtered" not in output and "loud" in output
        assert len(logging.getLogger("repro").handlers) == 1
