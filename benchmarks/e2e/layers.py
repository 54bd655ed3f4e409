"""Per-layer metrics: spans + outputs + first-principles counts -> one dict.

``layer_metrics`` returns a value for *every* name in
``workloads.PER_LAYER``.  ``None`` means "could not be measured" — a
``LAYER_TARGETS`` entry that no longer resolves — and is counted in
``bench.layers_unresolved``; ``0`` means the layer did nothing on this
workload (``sweep.*`` on ``cnn_train``), which is itself a finding: it is
how the workloads are told apart.

How the names are filled:

* ``*_s`` of a traced layer — span self time summed over the traced run;
  ``*_calls`` — the span count (``traced_main.COUNT_METRICS``).
* exact counts (``core.rounds``, ``core.evals``, ``runtime.virtual_s``,
  ``sweep.cells_*``) — from the files the program wrote, so they exist for
  shard and pool processes too, where no span can see.
* computed (``nn.train_gflop``, ``distributed.average_gb``) — ``counts.py``.
* ``proc.*`` — from the *untraced* run's ``wait4`` resource usage.
"""

from __future__ import annotations

import counts
from spans import aggregate, read_spans, self_times
from traced_main import COUNT_METRICS, EVAL_CONTEXT, LAYER_TARGETS
from workloads import PER_LAYER, Workload

__all__ = ["span_metrics", "layer_metrics"]


def span_metrics(spans: list[list], unresolved: list[str]) -> dict[str, "float | None"]:
    """The metrics that come straight from spans; also ``bench.layers_unresolved``."""
    rolled = aggregate(spans, contexts=[EVAL_CONTEXT])
    gone = set(unresolved)
    out: dict[str, "float | None"] = {}
    for metric, targets in LAYER_TARGETS.items():
        key = f"{metric}<{EVAL_CONTEXT}" if metric == "nn.eval_forward_s" else metric
        # A partly resolved layer would under-report silently: all or null.
        out[metric] = None if gone & set(targets) else rolled.get(key, {}).get("self_s", 0.0)
    for metric, source in COUNT_METRICS.items():
        out[metric] = None if out[source] is None else rolled.get(source, {}).get("calls", 0)
    out["bench.layers_unresolved"] = len(unresolved)
    return out


def layer_metrics(
    w: Workload,
    traced,
    untraced,
    untraced_wall_s: float,
    machine: dict,
    import_s: float,
    cross: "dict | None" = None,
) -> dict[str, "float | None"]:
    """Every ``PER_LAYER`` metric of one workload.

    ``traced`` is the ``measure.TracedRun``, ``untraced`` the ``ChildResult``
    of an untraced run of the same workload, and ``untraced_wall_s`` the
    untraced wall time the traced one is compared with (the median where
    there are several).  ``cross`` carries what needs a second workload:
    ``obs.overhead_*`` / ``obs.trace_*`` on ``lineup_obs`` and
    ``sweep.jobs2_speedup_x`` on ``sweep_jobs2``.
    """
    spans, meta, outputs = read_spans(traced.spans_path), traced.meta, traced.outputs
    traced_wall_s = traced.child.wall_s
    out = span_metrics(spans, meta.get("unresolved", []))
    iterations = outputs.total("iterations")
    rounds = outputs.total("rounds")
    executed, cached = traced.cells if traced.cells is not None else (0, 0)
    attributed = sum(self_times(spans))
    # The span dump happens after the workload and is not the program's time.
    traced_total = traced_wall_s - meta.get("dump_s", 0.0)
    out.update(
        {
            "experiments.worker_steps_per_s": iterations * w.geometry.n_workers / untraced_wall_s,
            "core.rounds": rounds,
            "core.evals": outputs.total("evals"),
            "runtime.virtual_s": outputs.total("virtual_s"),
            "nn.train_gflop": counts.train_gflop(w.geometry, iterations),
            "distributed.average_gb": counts.average_gb(w.geometry, rounds),
            "sweep.cells_executed": executed,
            "sweep.cells_cached": cached,
            "sweep.cells_per_s": executed / untraced_wall_s,
            "sweep.jobs2_speedup_x": 0.0,
            "obs.overhead_s": 0.0,
            "obs.overhead_frac": 0.0,
            "obs.trace_events": 0,
            "obs.trace_bytes": 0,
            "proc.cpu_s": untraced.cpu_s,
            "proc.cpu_util": untraced.cpu_s / untraced.wall_s,
            "proc.peak_rss_mb": untraced.peak_rss_mb,
            "proc.import_s": import_s,
            "machine.gemm_gflops": machine["machine.gemm_gflops"],
            "machine.copy_gbps": machine["machine.copy_gbps"],
            "bench.unattributed_frac": 1.0 - attributed / traced_total,
            "bench.trace_overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
        }
    )
    out.update(cross or {})
    missing = {name for name, _unit, _better in PER_LAYER} - set(out)
    if missing:
        raise AssertionError(f"per-layer metrics without a value: {sorted(missing)}")
    return {name: out[name] for name, _unit, _better in PER_LAYER}
