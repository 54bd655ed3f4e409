"""Tests of the end-to-end benchmark's own machinery (collected by tier-1).

Nothing here asserts a timing.  The one test that runs the program
(``run.py --quick``) checks names, shapes and correctness flags only.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
import counts
import measure
import run
import spans
import traced_main
from layers import span_metrics
from workloads import END_TO_END, PER_LAYER, QUICK_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- span arithmetic ------------------------------------------------------------

def test_self_time_on_a_synthetic_nest():
    #  root 0..10
    #    a 1..4        (child b 2..3)
    #    a 5..9        (children c 5..7 and c 6..8 overlap: covered 5..8)
    rows = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["c", 5.0, 7.0, 3],
        ["c", 6.0, 8.0, 3],
    ]
    selfs = spans.self_times(rows)
    assert selfs == pytest.approx([10 - 3 - 4, 3 - 1, 1, 4 - 3, 2, 2])
    rolled = spans.aggregate(rows, contexts=["a"])
    assert rolled["a"] == {"self_s": pytest.approx(3.0), "calls": 2}
    assert rolled["root"]["self_s"] == pytest.approx(3.0)
    # Spans below a context name are also filed under "name<context".
    assert rolled["c<a"]["calls"] == 2 and rolled["b<a"]["calls"] == 1
    assert "root<a" not in rolled
    # Without overlap, self times partition the root's duration exactly.
    sequential = rows[:5]
    assert sum(spans.self_times(sequential)) == pytest.approx(10.0)


def test_spans_round_trip_through_the_file(tmp_path):
    recorder = spans.SpanRecorder()
    outer = recorder.begin("outer")
    recorder.wrap(lambda: None, "inner")()
    recorder.end(outer)
    path = tmp_path / "w.spans.jsonl"
    spans.write_spans(path, recorder.spans, "w")
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "workload"}
    back = spans.read_spans(path)
    assert [row[0] for row in back] == ["outer", "inner"] and back[1][3] == 0


# -- wrapping layers from outside -----------------------------------------------

@pytest.fixture
def fake_layer():
    module = types.ModuleType("bench_e2e_fake_layer")

    class Base:
        def step(self):
            return "stepped"

        def rows(self):
            yield from (1, 2, 3)

    class Child(Base):
        pass

    module.Base, module.Child = Base, Child
    module.helper = lambda: "helped"
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_install_wraps_resolvable_targets_and_reports_the_rest(fake_layer):
    recorder = spans.SpanRecorder()
    unresolved = traced_main.install(recorder, {
        "fake.step_s": ["bench_e2e_fake_layer:Base.step", "bench_e2e_fake_layer:Child.step"],
        "fake.rows_s": ["bench_e2e_fake_layer:Base.rows"],
        "fake.helper_s": ["bench_e2e_fake_layer:helper"],
        "fake.gone_s": ["bench_e2e_fake_layer:Base.removed", "bench_e2e_no_such_module:f"],
    })
    assert unresolved == ["bench_e2e_fake_layer:Base.removed", "bench_e2e_no_such_module:f"]
    assert fake_layer.Child().step() == "stepped"  # inherited: wrapped once, on Base
    assert list(fake_layer.Base().rows()) == [1, 2, 3]  # a generator: one span per resume
    assert fake_layer.helper() == "helped"
    names = [row[0] for row in recorder.spans]
    assert names.count("fake.step_s") == 1
    assert names.count("fake.rows_s") == 4
    assert names.count("fake.helper_s") == 1
    assert all(row[2] is not None for row in recorder.spans)


def test_unresolvable_layer_target_gives_null_not_an_exception():
    gone = traced_main.LAYER_TARGETS["optim.step_s"][0]
    metrics = span_metrics([["nn.backward_s", 0.0, 1.0, -1]], unresolved=[gone])
    assert metrics["optim.step_s"] is None
    assert metrics["optim.step_calls"] is None  # the count rides on the same spans
    assert metrics["bench.layers_unresolved"] == 1
    assert metrics["nn.backward_s"] == pytest.approx(1.0)
    assert metrics["nn.backward_calls"] == 1


def test_eval_forward_counts_only_spans_under_an_evaluation():
    rows = [
        ["distributed.evaluate_self_s", 0.0, 3.0, -1],
        ["nn.eval_forward_s", 0.5, 2.5, 0],
        ["nn.eval_forward_s", 4.0, 5.0, -1],  # a forward outside any evaluation
    ]
    metrics = span_metrics(rows, unresolved=[])
    assert metrics["nn.eval_forward_s"] == pytest.approx(2.0)
    assert metrics["distributed.evaluate_self_s"] == pytest.approx(1.0)


@pytest.mark.parametrize("target", sorted(
    {t for targets in traced_main.LAYER_TARGETS.values() for t in targets}))
def test_every_layer_target_resolves_today(target):
    traced_main.resolve(target)


# -- names and the BENCHMARK.json contract --------------------------------------

def test_names_and_benchmark_json_agree():
    layer_names = [name for name, _unit, _better in PER_LAYER]
    e2e_names = [name for name, *_rest in END_TO_END]
    for name in [*layer_names, *e2e_names, *WORKLOADS, *QUICK_WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(layer_names)) == len(layer_names)
    assert set(traced_main.LAYER_TARGETS) | set(traced_main.COUNT_METRICS) <= set(layer_names)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1] == "benchmarks/e2e/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert ("setup_s", "s", "lower") in [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    runs = 4 + 22 * len(spec["workloads"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert runs * spec["run_seconds"] < 3420


# -- first-principles counts ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_param_count_matches_the_real_model(name):
    from repro.models.registry import build_model

    g = WORKLOADS[name].geometry
    if g.model == "cnn":
        model = build_model("vgg_lite_cnn", n_features=g.n_features, n_classes=g.n_classes, rng=0)
    else:
        model = build_model("mlp", n_features=g.n_features, n_classes=g.n_classes,
                            hidden_sizes=g.hidden, rng=0)
    assert counts.param_count(g) == model.num_parameters()


def test_counts_from_first_principles():
    g = WORKLOADS["avg_bound"].geometry
    assert counts.param_count(g) == 103_946
    # 192->512->10 MLP: first layer forward + dW, second forward + dW + dX.
    assert counts.train_flop_per_sample(g) == 2 * 192 * 512 * 2 + 2 * 512 * 10 * 3
    assert counts.train_gflop(g, local_steps=10) == pytest.approx(
        10 * 16 * 2 * counts.train_flop_per_sample(g) / 1e9)
    assert counts.average_gb(g, rounds=1) == pytest.approx(16 * 103_946 * 8 * 3 / 1e9)


# -- output checks ------------------------------------------------------------------

def _point(iteration, loss, acc="NaN", t=0.0):
    return {"iteration": iteration, "train_loss": loss, "test_accuracy": acc,
            "wall_time": t, "tau": 1, "lr": 0.1, "extra": {}}


def test_failure_accounting(tmp_path):
    good = {"name": "sync-sgd", "config": {"backend": "vectorized"},
            "points": [_point(0, 2.0, 0.1), _point(1, 1.5, t=5.0), _point(2, 1.0, 0.5, t=10.0)]}
    diverged = {"name": "adacomm", "config": {},
                "points": [_point(0, 2.0, 0.1), _point(8, "NaN", 0.1, t=9.0)]}
    path = tmp_path / "runs.json"
    path.write_text(json.dumps({"runs": [good, diverged]}))
    out = checks.read_single(path)
    assert out.ops["sync-sgd"] == {"rounds": 2, "iterations": 2, "evals": 2,
                                   "final_loss": 1.0, "virtual_s": 10.0}
    assert math.isnan(out.ops["adacomm"]["final_loss"])

    w = QUICK_WORKLOADS["smoke"]  # expects sync-sgd, pasgd-tau8, adacomm
    failed, reasons = checks.failed_ops(w, 0, out)
    assert failed == 2  # pasgd-tau8 missing, adacomm non-finite
    assert any("pasgd-tau8" in r for r in reasons) and any("adacomm" in r for r in reasons)
    assert checks.failed_ops(w, 1, out)[0] == w.ops_per_run  # non-zero exit fails every op

    # The digest covers trajectories only: the backend named in config does not move it.
    good["config"]["backend"] = "sharded"
    path.write_text(json.dumps({"runs": [good, diverged]}))
    assert checks.read_single(path).digest == out.digest
    good["points"][1]["train_loss"] = 1.5000000000000002
    path.write_text(json.dumps({"runs": [good, diverged]}))
    assert checks.read_single(path).digest != out.digest


def test_expected_json_is_exact_on_counts_and_close_on_floats(tmp_path):
    record = {"name": "sync-sgd", "config": {},
              "points": [_point(0, 2.0, 0.1), _point(3, 1.0, 0.5, t=10.0)]}
    path = tmp_path / "runs.json"
    path.write_text(json.dumps({"runs": [record]}))
    out = checks.read_single(path)
    want = {"w": checks.expected_entry(out)}
    assert checks.compare_expected("w", out, want) == []
    want["w"]["final_loss"]["sync-sgd"] *= 1 + 1e-12
    assert checks.compare_expected("w", out, want) == []
    want["w"]["final_loss"]["sync-sgd"] *= 1 + 1e-6
    want["w"]["rounds"] += 1
    problems = checks.compare_expected("w", out, want)
    assert len(problems) == 2 and problems[0].startswith("rounds")


# -- samples and compare ------------------------------------------------------------

def test_sample_is_the_two_fastest_runs_at_the_reference_speed():
    runs = [
        types.SimpleNamespace(wall_s=3.0, probes=[0.32, 0.64]),
        types.SimpleNamespace(wall_s=2.0, probes=[0.64, 0.64]),
        types.SimpleNamespace(wall_s=2.2, probes=[0.64, 0.96]),
    ]
    # Probes' median is twice the reference: the machine ran at half speed.
    half_speed = measure.PROBE_REFERENCE_S / 0.64
    assert run.sample(runs, "wall_s") == pytest.approx((2.0 + 2.2) / 2 * half_speed)
    assert run.sample(runs[:1], "wall_s") == pytest.approx(3.0 * measure.PROBE_REFERENCE_S / 0.48)


def test_compare_verdicts():
    bound = dict((name, bound) for name, _u, _b, bound in END_TO_END)["wall_s"]
    base = [2.00, 2.02, 1.98, 2.01, 1.99]
    assert run.verdict(base, [v * (1 + bound + 0.10) for v in base], bound)[0] == "worse"
    assert run.verdict(base, [v * 1.03 for v in base], bound)[0] == "same"
    assert run.verdict(base, [v * 0.70 for v in base], bound)[0] == "same"
    # Spread above the bound and overlapping runs: cannot tell.
    noisy = [1.0, 2.0, 3.0, 1.5, 2.5]
    assert run.verdict(noisy, [v * 1.05 for v in noisy], bound)[0] == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert run.verdict(noisy, [v + 10 for v in noisy], bound)[0] == "worse"


def test_compare_reads_two_result_files(tmp_path, capsys):
    def result(scale, rounds=19):
        entry = {
            "digest": "d", "counts": {"rounds": rounds},
            "per_layer": {"obs.trace_events": 0},
            "end_to_end": {m: {"values": [scale * v for v in (2.0, 2.02, 1.98)]}
                           for m, *_ in END_TO_END},
        }
        return {"workloads": {"cnn_train": entry}}

    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(result(1.0)))
    b.write_text(json.dumps(result(1.03)))
    c.write_text(json.dumps(result(1.50, rounds=20)))
    assert run.compare(str(a), str(b)) == 0
    assert "same" in capsys.readouterr().out
    assert run.compare(str(a), str(c)) == 1
    shown = capsys.readouterr().out
    assert "worse" in shown and "exact counts DIFFER: rounds" in shown


# -- the whole thing, small -----------------------------------------------------------

def test_quick_suite_emits_every_metric(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == list(QUICK_WORKLOADS)
    for name, entry in result["workloads"].items():
        assert entry["ops_failed"] == 0 and entry["ops_attempted"] > 0, name
        assert list(entry["per_layer"]) == [n for n, _u, _b in PER_LAYER]
        assert entry["per_layer"]["bench.layers_unresolved"] == 0
        assert None not in entry["per_layer"].values()
        for metric, *_ in END_TO_END:
            assert entry["end_to_end"][metric]["median"] > 0
    for name, _unit, _better in PER_LAYER:  # printed by name, with the unit
        assert name in proc.stdout
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]["smoke"]["wall_s"]) == {"value", "unit"}
    # The campaign was executed once and re-read once; the single config ran 3 methods.
    assert result["workloads"]["smoke_2x2"]["per_layer"]["sweep.cells_executed"] == 4
    assert result["workloads"]["smoke"]["per_layer"]["experiments.methods_run"] == 3
    assert not list((HERE / "out").glob("tmp-*")), "a per-run temp dir was left behind"


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark's own files.
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "expected.json").write_text((HERE / "expected.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cnn_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
