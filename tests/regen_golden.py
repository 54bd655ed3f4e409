"""Golden-trajectory fixtures: generation logic + regeneration entry point.

The golden suite (``tests/test_golden.py``) byte-compares the full JSON
payload of small seeded end-to-end harness runs against fixtures committed
under ``tests/golden/``.  Any refactor that preserves the simulator's
physics leaves the fixtures untouched; any change that moves a single float
shows up as a byte diff against known-good trajectories.

When a change *intentionally* alters trajectories (a new RNG consumer, a
config-schema change, a different default), regenerate and commit::

    PYTHONPATH=src python -m tests.regen_golden

The payloads are deterministic by construction: seeded NumPy end to end, no
timestamps, canonical JSON (sorted keys, fixed indentation, trailing
newline) — the same bytes on every run of the same environment, and across
backends.  One caveat: bitwise float reproducibility of matmul-heavy
trajectories is only guaranteed per NumPy/BLAS build; on a machine with a
different BLAS (e.g. Accelerate vs OpenBLAS) a golden mismatch with no code
change means *regenerate locally and diff* — an empty diff after
regeneration confirms the tree is fine and only the platform differs.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.configs import ExperimentConfig, make_config
from repro.experiments.harness import run_experiment
from repro.obs import MetricsRegistry, Tracer, strip_wall_fields, trace_lines

__all__ = [
    "GOLDEN_DIR",
    "golden_configs",
    "golden_payload",
    "render_golden",
    "trace_configs",
    "render_trace_projection",
    "main",
]

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_configs() -> dict[str, ExperimentConfig]:
    """The fixture workloads: small, fast, and collectively broad.

    Dense + conv + batch-norm/dropout models, multiple methods (fixed τ and
    ADACOMM), both bank-backend paths — so a regression anywhere in the
    data/nn/optim/distributed/harness stack moves at least one fixture.
    """
    base = dict(n_train=160, n_test=60, momentum=0.9)
    return {
        "smoke_mlp_sync_adacomm": make_config(
            "smoke", **base, wall_time_budget=20.0, methods=("sync-sgd", "adacomm")
        ),
        "smoke_cnn_tau4": make_config(
            "smoke", **base, model="vgg_lite_cnn", wall_time_budget=15.0,
            methods=("pasgd-tau4",),
        ),
        "smoke_bn_dropout_tau2": make_config(
            "smoke", **base, wall_time_budget=15.0, methods=("pasgd-tau2",),
            model_kwargs={"batch_norm": True, "dropout": 0.2},
        ),
        # The §6 method family: gossip (shorthand and 2-round MH), damped
        # async folds, and elastic dropout with a deadline that bites (14
        # dropped worker-rounds against 8 from p=0.3 alone).  m = 6 is the
        # smallest cluster where the MH chordal ring is not complete.
        "smoke_method_family": make_config(
            "smoke", **base, n_workers=6, wall_time_budget=25.0,
            methods=(
                "gossip-ring-tau4",
                "gossip:topology=mh,tau=2,rounds=2",
                "async:tau=2,damping=0.5",
                "elastic:p=0.3,tau=4,deadline=4.3",
            ),
        ),
        # Block momentum is lineup-wide, so it cannot share a config with
        # gossip.  160 samples over m = 3 shard as 54/53/53, so the
        # shard-size weights differ from uniform.
        "smoke_block_momentum_elastic": make_config(
            "smoke", **base, n_workers=3, wall_time_budget=25.0, lr=0.05,
            block_momentum_beta=0.3, weighting="shard_size",
            methods=("pasgd-tau4", "elastic:p=0.2,tau=4"),
        ),
    }


def golden_payload(config: ExperimentConfig) -> dict:
    """Run one fixture workload end to end and return its full payload."""
    return {"config": config.to_dict(), "runs": run_experiment(config).to_payload()}


def render_golden(payload: dict) -> str:
    """Canonical byte form of a fixture: sorted keys, indent 2, one trailing NL."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def trace_configs() -> dict[str, ExperimentConfig]:
    """Telemetry fixtures: what a fully instrumented run *says*, not what it computes.

    (a) one method of every collective on the bank backend — every event
    type but ``shard_rpc`` / ``sweep_cell``; (b) a conv net on the loop
    backend, whose ``profile_op`` rows are the kernel scopes.  Sharded runs
    stay out: ``transport`` is a span field and host-dependent.
    """
    return {
        "trace_smoke_method_lineup": make_config(
            "smoke",
            methods=(
                "sync-sgd", "gossip-ring-tau4", "async-tau4",
                "elastic:p=0.3,tau=4", "adacomm",
            ),
        ),
        "trace_smoke_cnn_loop": make_config(
            "smoke", model="vgg_lite_cnn", backend="loop", n_workers=2,
            wall_time_budget=40.0,
        ),
    }


#: Histograms of real seconds: only how many samples they took is deterministic.
_WALL_HISTOGRAMS = ("shard_rpc_seconds", "shard_gather_seconds")


def render_trace_projection(config: ExperimentConfig) -> str:
    """The deterministic projection of one run under tracer + profiler + registry.

    Line 1 is the metrics snapshot — counters, gauges, virtual-time
    histograms, and the sample *counts* of the wall-time ones; the
    ``plan_cache_*`` gauges are left out (process-wide cache state, not run
    state).  Every further line is one trace event with its wall fields
    stripped, ``profile_op`` rows (op path, calls) included — the form
    ``python -m repro.obs diff`` compares.
    """
    with Tracer(profile=True) as tracer, MetricsRegistry() as registry:
        run_experiment(config)
    snapshot = registry.snapshot()
    metrics = {
        "counters": snapshot["counters"],
        "gauges": {
            k: v for k, v in snapshot["gauges"].items() if not k.startswith("plan_cache_")
        },
        "histograms": {
            k: {"count": v["count"]} if k in _WALL_HISTOGRAMS else v
            for k, v in snapshot["histograms"].items()
        },
    }
    return (
        json.dumps({"metrics": metrics}, sort_keys=True) + "\n"
        + trace_lines(strip_wall_fields(tracer.finish()))
    )


def _write(path: Path, content: str) -> None:
    changed = not path.exists() or path.read_text() != content
    path.write_text(content)
    print(f"[golden] {'wrote  ' if changed else 'kept   '} {path}")


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, config in golden_configs().items():
        _write(GOLDEN_DIR / f"{name}.json", render_golden(golden_payload(config)))
    for name, config in trace_configs().items():
        _write(GOLDEN_DIR / f"{name}.jsonl", render_trace_projection(config))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
