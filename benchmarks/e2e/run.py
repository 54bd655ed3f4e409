"""End-to-end, layer-attributed benchmark of ``python -m repro``.

Three ways in:

* the whole suite (what a person runs)::

      python benchmarks/e2e/run.py [--seed 7] [--reps 5] [--only NAME ...]

  every workload through the public CLI in a fresh interpreter, telemetry
  off, ``--reps`` times each, interleaved round-robin; then one traced run
  per workload for the per-layer numbers.  Prints every metric by name with
  its unit, checks the outputs, writes ``out/result.json``.

* one workload for a fixed time (what the driver of ``BENCHMARK.json`` runs)::

      python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

  the last line of stdout is one JSON object ``{"correct", "attempted",
  "failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
  per-layer metrics with ``--trace 1``.

* ``python benchmarks/e2e/run.py compare A.json B.json`` — two suite results
  side by side, each (workload, metric) judged ``same`` / ``worse`` /
  ``unresolved`` against the benchmark's own bounds.

It needs ``src/repro`` in the same checkout and exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import checks
import measure
from layers import layer_metrics
from workloads import BUDGET_SCALE, END_TO_END, PER_LAYER, QUICK_WORKLOADS, WORKLOADS, Workload

# One *sample* of an end-to-end metric is made from this many fresh-process
# runs (``sample`` below).  The suite makes exactly this many per sample; a
# timed invocation makes at least this many and goes on until ``--seconds``
# are used up.
RUNS_PER_SAMPLE = 3
EXPECTED_SEED = 7


# -- statistics ---------------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Median, quartiles, min, max and n of one metric's samples."""
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values), "n": len(values), "values": list(values),
    }


def probed_rep(w: Workload, seed: int, label: str, before: "float | None" = None):
    """``measure.run_rep`` between two speed probes.

    ``before`` is the probe that ended just now, when the caller has one:
    back-to-back repeats share the probe between them.
    """
    before = measure.run_probe() if before is None else before
    rep = measure.run_rep(w, seed, label)
    rep.probes = [before, measure.run_probe()]
    return rep


def sample(runs: list, metric: str) -> float:
    """One sample of ``wall_s`` / ``setup_s`` from a few back-to-back runs.

    The mean of the two fastest runs, scaled by how fast the machine was:
    ``PROBE_REFERENCE_S`` over the median of the speed probes taken around
    those runs.  Noise on the shared box is one-sided (a run is slowed, never
    sped up), so the fast end of a few runs is the program's own time — but a
    single minimum over short runs picks lucky outliers, hence two.  Slow
    *regimes* that last minutes hit every run of a sample alike; only the
    probes see those.  Measured on 36-run series of three workloads, ten
    samples of 3 runs spread (quartile distance / median, median over all
    start offsets, worst in brackets) by 8.5-15.8 % [20.8 %] as a plain
    minimum and 6.1-10.2 % [13.1 %] like this; a probe bracketing each single
    run, or an in-process loop as the probe, did not help.
    """
    values = sorted(getattr(run, metric) for run in runs)
    probes = statistics.median(p for run in runs for p in run.probes)
    return statistics.mean(values[:2]) * measure.PROBE_REFERENCE_S / probes


# -- cross-run checks -----------------------------------------------------------

def settle(w: Workload, runs: list, reference: "checks.RunOutputs | None",
           expected: "dict | None") -> None:
    """Apply the checks that span runs; a mismatch fails every op of that run.

    All runs of a workload must give one trajectory digest; a workload with
    ``same_as`` must give its partner's (``reference``); and at the seed
    ``expected.json`` was frozen at, the exact statistics must match it.
    """
    first = runs[0].outputs.digest
    for run in runs:
        if run.outputs.digest != first:
            run.fail_all(w, f"trajectory digest {run.outputs.digest[:12]} differs from "
                            f"the first run's {first[:12]}")
        if reference is not None and run.outputs.digest != reference.digest:
            run.fail_all(w, f"outputs differ from {w.same_as}: {run.outputs.digest[:12]} "
                            f"vs {reference.digest[:12]}")
        if expected is not None:
            problems = checks.compare_expected(w.name, run.outputs, expected)
            if problems:
                run.fail_all(w, "expected.json mismatch: " + "; ".join(problems))


def report_failures(name: str, runs: list) -> None:
    for index, run in enumerate(runs):
        for reason in run.reasons:
            print(f"[{name}] run {index}: {reason}", file=sys.stderr)


def expected_for(seed: int, workloads: dict) -> "dict | None":
    """``expected.json`` applies at its own seed and sizes only."""
    if seed != EXPECTED_SEED or workloads is not WORKLOADS:
        return None
    expected = checks.load_expected()
    if expected.get("budget_scale") != BUDGET_SCALE:
        raise SystemExit("expected.json was frozen at another BUDGET_SCALE; regenerate it "
                         "with --write-expected")
    return expected["workloads"]


# -- the driver's contract: one workload, a fixed time ---------------------------

def timed_reps(w: Workload, seed: int, seconds: float) -> list:
    """Repeat (full run, set-up run) until ``seconds`` of measuring are used."""
    reps = []
    started = time.perf_counter()
    while True:
        before = reps[-1].probes[-1] if reps else None
        reps.append(probed_rep(w, seed, f"r{len(reps)}", before))
        elapsed = time.perf_counter() - started
        # Stop where one more repeat would overshoot by more than half of
        # it — or, on a box too slow for the minimum, at 2.5x the time.
        enough = len(reps) >= RUNS_PER_SAMPLE and elapsed + 0.5 * elapsed / len(reps) >= seconds
        if enough or elapsed >= 2.5 * seconds:
            return reps


def cross_metrics(w: Workload, rep, partner_rep) -> dict:
    """Per-layer metrics that need the partner workload's timing (one pair of runs)."""
    if partner_rep is None:
        return {}
    if w.obs:
        overhead = rep.wall_s - partner_rep.wall_s
        return {
            "obs.overhead_s": overhead,
            "obs.overhead_frac": overhead / partner_rep.wall_s,
            "obs.trace_events": rep.trace_events,
            "obs.trace_bytes": rep.trace_bytes,
        }
    if w.kind == "campaign":
        return {"sweep.jobs2_speedup_x": partner_rep.wall_s / rep.wall_s}
    return {}


def contract_run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    partner = WORKLOADS[w.same_as] if w.same_as else None
    expected = expected_for(seed, WORKLOADS)
    if not trace:
        # The partner's reference run doubles as the discarded warm-up.
        reference = measure.run_reference(partner, seed) if partner else None
        if partner is None:
            measure.run_warm_up(w, seed)
        runs = timed_reps(w, seed, seconds)
        settle(w, runs, reference, expected)
        # Every run made, as measured.
        print("# runs " + json.dumps({
            "wall_s": [r.wall_s for r in runs], "setup_s": [r.setup_s for r in runs],
            "probe_s": [runs[0].probes[0], *(r.probes[1] for r in runs)],
        }), file=sys.stderr)
        metrics = {"wall_s": sample(runs, "wall_s"), "setup_s": sample(runs, "setup_s")}
        units = {name: unit for name, unit, _better, _bound in END_TO_END}
    else:
        partner_rep = measure.run_rep(partner, seed, "partner") if partner else None
        if partner is None:
            measure.run_warm_up(w, seed)
        rep = measure.run_rep(w, seed, "untraced")
        traced = measure.run_traced(w, seed)
        runs = [rep, traced]
        settle(w, runs, partner_rep.outputs if partner_rep else None, expected)
        values = layer_metrics(
            w, traced, rep.child, rep.wall_s, measure.calibrate(),
            measure.time_import(), cross_metrics(w, rep, partner_rep),
        )
        # The contract wants a number for every name: an unresolved layer
        # reads 0 here and is counted in bench.layers_unresolved.
        metrics = {name: 0.0 if value is None else value for name, value in values.items()}
        units = {name: unit for name, unit, _better in PER_LAYER}
    report_failures(w.name, runs)
    failed = sum(run.failed for run in runs)
    return {
        "correct": failed == 0,
        "attempted": w.ops_per_run * len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


# -- the suite ----------------------------------------------------------------------

def suite(workloads: dict, names: list[str], seed: int, reps: int, quick: bool,
          expected: "dict | None") -> dict:
    selected = [workloads[name] for name in names]
    env = measure.environment()
    machine = measure.calibrate()
    env.update(numpy=machine.pop("numpy"), blas=machine.pop("blas"))
    print(f"# nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} pins={env['blas_pins']} seed={seed} reps={reps} "
          f"budget_scale={BUDGET_SCALE}")

    if not quick:
        for w in selected:
            measure.run_warm_up(w, seed)
    # Round-robin at the level of single runs, so slow drift of a shared box
    # spreads over all workloads; sample i of a workload is made from its
    # runs in rounds i*k .. i*k + k - 1.
    per_sample = 1 if quick else RUNS_PER_SAMPLE
    runs: dict[str, list] = {w.name: [] for w in selected}
    for index in range(reps * per_sample):
        for w in selected:
            runs[w.name].append(probed_rep(w, seed, f"r{index}"))
    import_s = measure.time_import(repeats=1 if quick else 3)

    result = {
        "schema": 1, "seed": seed, "reps": reps, "runs_per_sample": per_sample,
        "budget_scale": BUDGET_SCALE, "quick": quick, "env": env, "machine": machine,
        "probe_reference_s": measure.PROBE_REFERENCE_S, "workloads": {},
    }
    for w in selected:
        runs_w = runs[w.name]
        traced = measure.run_traced(w, seed)
        if w.same_as is None:
            reference = None
        elif w.same_as in runs:
            reference = runs[w.same_as][0].outputs
        else:
            reference = measure.run_reference(workloads[w.same_as], seed)
        settle(w, [*runs_w, traced], reference, expected)
        report_failures(w.name, [*runs_w, traced])

        samples = [runs_w[i:i + per_sample] for i in range(0, len(runs_w), per_sample)]
        walls = [r.wall_s for r in runs_w]
        cross = {}
        if w.same_as in runs:
            # Paired per run: the round-robin ran the two back to back.
            pairs = [cross_metrics(w, a, b) for a, b in zip(runs_w, runs[w.same_as])]
            cross = {key: statistics.median(p[key] for p in pairs) for key in pairs[0]}
        middle = sorted(runs_w, key=lambda r: r.wall_s)[len(runs_w) // 2]
        result["workloads"][w.name] = {
            "why": w.why,
            "ops_attempted": w.ops_per_run * (len(runs_w) + 1),
            "ops_failed": sum(r.failed for r in runs_w) + traced.failed,
            "digest": runs_w[0].outputs.digest,
            "counts": checks.expected_entry(runs_w[0].outputs),
            "end_to_end": {
                "wall_s": {"unit": "s", **summarize([sample(s, "wall_s") for s in samples])},
                "setup_s": {"unit": "s", **summarize([sample(s, "setup_s") for s in samples])},
            },
            # Every run made, as measured, in round-robin order.
            "runs": {"wall_s": walls, "setup_s": [r.setup_s for r in runs_w],
                     "probe_s": [r.probes for r in runs_w]},
            "traced_wall_s": traced.child.wall_s,
            "per_layer": layer_metrics(
                w, traced, middle.child, statistics.median(walls), machine, import_s, cross
            ),
        }
    return result


def print_result(result: dict) -> None:
    units = {name: unit for name, unit, _better in PER_LAYER}
    for name, entry in result["workloads"].items():
        print(f"\n== {name}: ops {entry['ops_attempted'] - entry['ops_failed']}/"
              f"{entry['ops_attempted']} ok, digest {entry['digest'][:12]}")
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:34s} {s['median']:12.4f} {s['unit']:8s} "
                  f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, min {s['min']:.4f}, "
                  f"max {s['max']:.4f}, n {s['n']}]")
        print(f"  {'(wall_s, median of all runs)':34s} {statistics.median(entry['runs']['wall_s']):12.4f} s")
        traced_wall = entry["traced_wall_s"]
        for metric, value in entry["per_layer"].items():
            if value is None:
                shown, share = "        null", ""
            else:
                shown = f"{value:12.4f}"
                share = (f"  {100 * value / traced_wall:5.1f} % of the traced run"
                         if units[metric] == "s" and metric.split(".")[0] not in
                         ("runtime", "proc", "obs") else "")
            print(f"  {metric:34s} {shown} {units[metric]:8s}{share}")


def contract_shape(result: dict) -> dict:
    """The suite's result in the shape of one contract line, per workload."""
    entries = result["workloads"].values()
    units = {name: unit for name, unit, _better in PER_LAYER}
    return {
        "correct": all(e["ops_failed"] == 0 for e in entries),
        "attempted": sum(e["ops_attempted"] for e in entries),
        "failed": sum(e["ops_failed"] for e in entries),
        "metrics": {
            name: {
                **{m: {"value": s["median"], "unit": s["unit"]} for m, s in e["end_to_end"].items()},
                **{m: {"value": v, "unit": units[m]} for m, v in e["per_layer"].items()},
            }
            for name, e in result["workloads"].items()
        },
    }


# -- compare --------------------------------------------------------------------------

def verdict(base: list[float], new: list[float], bound: float) -> tuple[str, float, float]:
    """``(same | worse | unresolved, ratio, spread)`` for a lower-is-better metric.

    ``ratio`` is new median / base median.  When either side's quartile
    spread (as a share of its median) exceeds the bound the pair is
    ``unresolved`` — unless every run of one side beats every run of the
    other, which no spread can explain away.
    """
    a, b = summarize(base), summarize(new)
    ratio = b["median"] / a["median"]
    spread = max((a["q3"] - a["q1"]) / a["median"], (b["q3"] - b["q1"]) / b["median"])
    separated = max(new) < min(base) or max(base) < min(new)
    if spread > bound and not separated:
        return "unresolved", ratio, spread
    return ("worse" if ratio - 1.0 > bound else "same"), ratio, spread


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    bounds = {name: bound for name, _unit, _better, bound in END_TO_END}
    bad = 0
    print(f"{'workload':14s} {'metric':8s} {'A median':>10s} {'B median':>10s} "
          f"{'B/A':>7s} {'spread':>7s} {'bound':>6s}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:14s} missing from {path_b}")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, bound in bounds.items():
            va, vb = wa["end_to_end"][metric]["values"], wb["end_to_end"][metric]["values"]
            word, ratio, spread = verdict(va, vb, bound)
            bad += word == "worse"
            print(f"{name:14s} {metric:8s} {statistics.median(va):10.4f} "
                  f"{statistics.median(vb):10.4f} {ratio:6.3f}x {spread:7.3f} {bound:6.2f}  "
                  f"{word} (base A = {statistics.median(va):.4f} s)")
        # Exact counts repeat exactly between two runs of one commit.
        exact_a = {"digest": wa["digest"], **wa["counts"],
                   "obs.trace_events": wa["per_layer"]["obs.trace_events"]}
        exact_b = {"digest": wb["digest"], **wb["counts"],
                   "obs.trace_events": wb["per_layer"]["obs.trace_events"]}
        differing = [key for key in exact_a if exact_a[key] != exact_b[key]]
        if differing:
            bad += 1
            print(f"{name:14s} exact counts DIFFER: {', '.join(differing)}")
        else:
            print(f"{name:14s} exact counts identical ({', '.join(exact_a)})")
    return 1 if bad else 0


# -- entry ------------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload for --seconds and print the contract line")
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help=f"suite: samples per workload (5), each the best of {RUNS_PER_SAMPLE} runs")
    parser.add_argument("--only", action="append", default=[], metavar="WORKLOAD",
                        help="suite: run only this workload (repeatable)")
    parser.add_argument("--quick", action="store_true",
                        help="suite: the smoke config and smoke_2x2, 1 rep (for the tests)")
    parser.add_argument("--out", default=None, help="suite: result path (default out/result.json)")
    parser.add_argument("--write-expected", action="store_true",
                        help="suite at seed 7: freeze the exact statistics into expected.json")
    args = parser.parse_args(argv)

    if not measure.program_present():
        print(f"error: {measure.ROOT / 'src' / 'repro'} not found — the benchmark measures the "
              f"program in its own checkout", file=sys.stderr)
        return 2

    if args.workload is not None:
        line = contract_run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(line))
        return 0

    workloads = QUICK_WORKLOADS if args.quick else WORKLOADS
    unknown = [name for name in args.only if name not in workloads]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {sorted(workloads)}")
    names = [name for name in workloads if not args.only or name in args.only]
    reps = args.reps if args.reps is not None else (1 if args.quick else 5)
    if args.write_expected and (args.seed != EXPECTED_SEED or args.quick or args.only):
        raise SystemExit(f"--write-expected needs the full suite at seed {EXPECTED_SEED}")
    expected = None if args.write_expected else expected_for(args.seed, workloads)
    result = suite(workloads, names, args.seed, reps, args.quick, expected)
    if args.write_expected:
        checks.EXPECTED_PATH.write_text(json.dumps(
            {"seed": args.seed, "budget_scale": BUDGET_SCALE,
             "workloads": {n: e["counts"] for n, e in result["workloads"].items()}},
            indent=1, sort_keys=True) + "\n")
        print(f"wrote {checks.EXPECTED_PATH}; run the suite again to check against it")
        return 0
    print_result(result)
    out = Path(args.out) if args.out else measure.OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out}")
    print(json.dumps(contract_shape(result)))
    return 0 if all(e["ops_failed"] == 0 for e in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
