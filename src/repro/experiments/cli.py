"""Command-line entry point: ``python -m repro --config <name>``.

Runs one experiment (all methods) and prints the paper-style summary:
loss-vs-wall-clock checkpoints, time-to-target-loss speed-ups, and the best
test accuracies; optionally saves the full run store to JSON for plotting.

The experiment is composed declaratively from the ``repro.api`` registries:

* ``--config`` takes a named config *or* a path to a JSON file produced by
  ``ExperimentConfig.to_dict()`` / ``Experiment.save()``;
* ``--model`` swaps the model by registry name;
* ``--backend`` selects the worker-execution engine (``auto``, ``loop``,
  ``vectorized``, or ``sharded`` — see ``--list backends``; the sharded pool
  size comes from ``--set backend_shards=N``);
* ``--bank-dtype`` selects the bank storage precision (``float64`` is the
  byte-identical default; ``float32`` trades byte-equality for memory
  bandwidth);
* ``--profile`` runs the experiment under the per-op profiler and prints the
  sorted timing table (plus machine-readable JSON) after the summary;
* ``--trace PATH`` records a structured event trace to ``PATH`` (inspect,
  export, or diff it with ``python -m repro.obs``); combined with
  ``--profile`` the per-op rows are bridged into the trace;
* ``--metrics`` collects a run-metrics snapshot (counters, gauges, latency
  histograms) and prints it; with ``--save`` it is embedded in the saved
  store, and with ``--sweep`` each executed cell gets a ``metrics.json``
  sidecar next to its result;
* ``--set key=value`` (repeatable) overrides any config field, with values
  parsed as Python literals (``--set n_workers=4 --set delay=pareto``; ``nan``
  and ``inf`` are floats); every field's type and domain is checked before
  anything runs;
* ``--list {configs,models,datasets,delays,schedules,scalings,lr_schedules,backends,sweeps}``
  prints the registered names and exits.

Campaigns (``python -m repro --sweep <name>``) run a whole grid of
experiments against a persistent, content-addressed result store:

* ``--sweep`` names a registered campaign (see ``--list sweeps``);
* ``--jobs N`` keeps up to N processes busy on cells, the parent included
  (sweep-only: a single run places its lineup's methods the same way);
* ``--store DIR`` selects the store directory (default ``sweeps``); cells
  already in the store are skipped, so re-running a campaign only renders —
  every table and curve is produced from the store, never from memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro.api.registries import SWEEPS, all_registries
from repro.experiments.configs import (
    ExperimentConfig,
    _apply_scale,
    available_configs,
    make_config,
)
from repro.experiments.figures import (
    loss_vs_time_series,
    summarize_series,
    sweep_loss_curves,
)
from repro.experiments.harness import run_experiment
from repro.experiments.tables import (
    accuracy_table,
    format_table,
    sweep_summary_table,
    time_to_loss_table,
)
from repro.utils.cli import key_value_parser

__all__ = ["build_parser", "main"]


def _config_arg(value: str) -> str:
    """Accept a named config or a path to a JSON config file."""
    if value in available_configs() or value.endswith(".json") or os.path.exists(value):
        return value
    raise argparse.ArgumentTypeError(
        f"unknown config {value!r}; pass one of {available_configs()} or a JSON file path"
    )


# Flags that override one config field each: (flag, config field, argparse
# options).  The parser, ``_load_config`` and ``--sweep``'s refusal of
# single-run flags are all driven from this table.
_CONFIG_FLAGS: list[tuple[str, str, dict]] = [
    ("--model", "model", dict(
        metavar="NAME",
        help="override the model by registry name (see --list models)")),
    ("--backend", "backend", dict(
        metavar="NAME",
        help="worker-execution backend: auto, loop, vectorized, or sharded "
             "(see --list backends; auto picks vectorized when supported and "
             "escalates to sharded at large n_workers)")),
    ("--bank-dtype", "bank_dtype", dict(
        help="bank storage dtype: float64 (byte-identical default) or "
             "float32 (reduced precision, parity within tolerance)")),
    ("--seed", "seed", dict(type=int, help="override the config seed")),
]


def _flag_dest(flag: str) -> str:
    """The ``argparse.Namespace`` attribute a ``--some-flag`` lands in."""
    return flag.lstrip("-").replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce one ADACOMM experiment on the simulated cluster.",
    )
    parser.add_argument(
        "--config",
        default="vgg_cifar10_fixed_lr",
        type=_config_arg,
        metavar="NAME|PATH.json",
        help="named experiment configuration (see --list configs) or a JSON config file",
    )
    for flag, _, options in _CONFIG_FLAGS:
        parser.add_argument(flag, default=None, **options)
    parser.add_argument("--profile", action="store_true",
                        help="profile per-op time (im2col, GEMM, optimizer, averaging, "
                             "shard RPC, ...) and print the table after the run")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record a structured event trace of the run to PATH "
                             "(trace.jsonl; inspect with python -m repro.obs); with "
                             "--profile the per-op rows are bridged into the trace")
    parser.add_argument("--metrics", action="store_true",
                        help="collect run metrics (rounds, bytes averaged, RPC latency "
                             "histograms, ...) and print the snapshot; with --save the "
                             "snapshot is embedded in the saved store, and with --sweep "
                             "each cell gets a metrics.json sidecar in the store")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        type=key_value_parser("--set"), metavar="KEY=VALUE",
                        help="override any config field (repeatable), e.g. --set n_workers=4")
    parser.add_argument("--sweep", default=None, metavar="NAME",
                        help="run a registered experiment campaign instead of a single "
                             "config (see --list sweeps); results land in --store")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="busy processes for --sweep cells, the parent included "
                             "(default 1); sweep-only: a single run places its lineup's "
                             "methods the same way, on every usable core")
    parser.add_argument("--store", default="sweeps", metavar="DIR",
                        help="result-store directory for --sweep (default ./sweeps); "
                             "completed cells found here are never re-executed")
    parser.add_argument("--list", dest="list_what", default=None,
                        choices=["configs", *sorted(all_registries())],
                        help="print the registered names of one component kind and exit")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the wall-clock budget, the AdaComm interval and "
                             "the training-set size (e.g. 0.25 for a quick run)")
    parser.add_argument("--target-loss", type=float, default=None,
                        help="training-loss target used for the speed-up table")
    parser.add_argument("--save", type=str, default=None,
                        help="path to save the full run store as JSON")
    parser.add_argument("--points", type=int, default=8,
                        help="number of loss-curve checkpoints to print per method")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Build the experiment config from --config/--scale/--seed/--model/--set.

    Every bad input, the lineup included, ends in one ``error: ...`` line.
    """
    if args.config.endswith(".json") or os.path.isfile(args.config):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = ExperimentConfig.from_dict(json.load(fh))
        except (OSError, TypeError, ValueError) as err:
            # unreadable file, missing/mistyped fields, bad JSON, bad names
            raise SystemExit(f"error: cannot load config {args.config!r}: {err}") from err
    else:
        config = make_config(args.config)

    overrides = dict(args.overrides)
    for flag, field, _ in _CONFIG_FLAGS:
        value = getattr(args, _flag_dest(flag))
        if value is not None:
            overrides[field] = value
    try:
        config = _apply_scale(config, args.scale)
        if overrides:
            try:
                config = config.with_overrides(**overrides)
            except TypeError as err:
                raise SystemExit(f"error: invalid --set override: {err}") from err
        return config.validate()  # every field's domain, the lineup included
    except ValueError as err:
        raise SystemExit(f"error: {err}") from err


def _run_sweep(args: argparse.Namespace, parser_defaults: argparse.Namespace) -> int:
    """Execute (or resume) a named campaign, then render from the store alone."""
    from repro.sweep import ResultStore, SweepRunner

    # A campaign's cells are fixed by its registered spec; accepting the
    # single-run composition flags here would silently do nothing (and the
    # content-addressed store would then serve the unintended results as
    # cache hits forever), so reject them loudly instead.
    single_run = [
        ("--config", "config"),
        *((flag, _flag_dest(flag)) for flag, _, _ in _CONFIG_FLAGS),
        ("--profile", "profile"), ("--set", "overrides"), ("--scale", "scale"),
        ("--save", "save"),
    ]
    ignored = [
        flag
        for flag, attr in single_run
        if getattr(args, attr) != getattr(parser_defaults, attr)
    ]
    if ignored:
        raise SystemExit(
            f"error: {', '.join(ignored)} cannot be combined with --sweep; campaign "
            f"cells are defined by the registered spec (see repro.sweep.campaigns)"
        )

    try:
        spec = SWEEPS.build(args.sweep)
    except ValueError as err:
        raise SystemExit(f"error: {err}") from err

    store = ResultStore(args.store)
    jobs = 1 if args.jobs is None else args.jobs
    print(f"running sweep {spec.name!r}: {spec.n_cells} cells over "
          f"axes {dict(spec.axes)}, jobs={jobs}, store={store.root}")
    runner = SweepRunner(store, jobs=jobs, progress=print, collect_metrics=args.metrics)
    if args.trace is not None:
        from repro.obs.tracer import Tracer

        with Tracer() as tracer:
            report = runner.run(spec)
        print(f"wrote trace ({len(tracer.events)} events) to {tracer.flush(args.trace)}")
    else:
        report = runner.run(spec)
    for address, error in report.failed.items():
        print(f"\ncell {address} FAILED:\n{error}")

    # Everything below renders from the persistent store, never from memory;
    # cells are read and parsed exactly once and shared by every view.
    addresses = sorted({*report.executed, *report.cached})
    if not addresses:
        return 1 if report.failed else 0

    cells = list(store.cells(addresses))
    records = [rec for cell in cells for rec in cell.runs]
    if args.target_loss is not None:
        target = args.target_loss
    else:
        start = max(r.points[0].train_loss for r in records if r.points)
        best = min(r.best_loss() for r in records)
        target = best + 0.25 * (start - best)

    print()
    print(format_table(
        ["cell", "method", "best loss", "best acc (%)", f"t(loss<={target:.3g}) (s)"],
        sweep_summary_table(cells, target_loss=target),
        title=f"Campaign {spec.name!r} — rendered from {store.root}",
    ))
    print()
    for label, series in sweep_loss_curves(cells).items():
        checkpoints = ", ".join(
            f"{loss:.3f}@{t:.0f}s" for t, loss in summarize_series(series, max(2, args.points // 2))
        )
        print(f"  {label}: {checkpoints}")
    return 1 if report.failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs is not None and args.sweep is None:
        raise SystemExit("error: --jobs applies to --sweep only; a single run places "
                         "its lineup's methods itself")
    if args.jobs is not None and args.jobs < 1:
        raise SystemExit(f"error: --jobs must be >= 1, got {args.jobs}")
    if args.points < 2:
        raise SystemExit(f"error: --points must be >= 2, got {args.points}")
    if args.target_loss is not None and not math.isfinite(args.target_loss):
        raise SystemExit(f"error: --target-loss must be finite, got {args.target_loss}")

    if args.list_what is not None:
        names = (
            available_configs()
            if args.list_what == "configs"
            else all_registries()[args.list_what].names()
        )
        print("\n".join(names))
        return 0

    if args.sweep is not None:
        return _run_sweep(args, parser.parse_args([]))

    config = _load_config(args)
    print(f"running experiment {config.name!r}: model={config.model}, "
          f"{config.n_workers} workers, alpha={config.alpha}, "
          f"budget={config.wall_time_budget:.0f}s, lr={config.lr}, "
          f"backend={config.backend}")

    # Telemetry composition: --trace owns the profiler when both are given
    # (its rows are bridged into the trace); --metrics runs a registry whose
    # snapshot is printed and, with --save, embedded in the saved store.
    from contextlib import ExitStack

    tracer = registry = profiler = None
    with ExitStack() as stack:
        if args.trace is not None:
            from repro.obs.tracer import Tracer

            tracer = stack.enter_context(Tracer(profile=args.profile))
            profiler = tracer.profiler
        elif args.profile:
            from repro.obs.profile import Profiler

            profiler = stack.enter_context(Profiler())
        if args.metrics:
            from repro.obs.metrics import MetricsRegistry

            registry = stack.enter_context(MetricsRegistry())
        store = run_experiment(config)

    for record in store:
        print(f"\n=== {record.name} ===")
        for t, loss in summarize_series(loss_vs_time_series(record), n_points=args.points):
            print(f"  t = {t:8.1f} s   train loss = {loss:.4f}")

    # Pick a default target between the initial loss and the best final loss.
    if args.target_loss is not None:
        target = args.target_loss
    else:
        start = max(r.points[0].train_loss for r in store if r.points)
        best = min(r.best_loss() for r in store)
        target = best + 0.25 * (start - best)

    print()
    print(format_table(
        ["method", f"time to loss <= {target:.3g} (s)", "best loss"],
        time_to_loss_table(store, target_loss=target),
        title="Time to target training loss",
    ))
    print()
    print(format_table(
        ["method", "best test accuracy (%)"],
        accuracy_table(store),
        title="Best test accuracy within the budget",
    ))
    if "adacomm" in store and "sync-sgd" in store:
        speedup = store.speedup("adacomm", "sync-sgd", target_loss=target)
        print(f"\nADACOMM speed-up over fully synchronous SGD at loss {target:.3g}: {speedup:.2f}x")

    if profiler is not None:
        print()
        print(profiler.table())
        print()
        print(profiler.to_json())

    if tracer is not None:
        print(f"\nwrote trace ({len(tracer.finish())} events) to {tracer.flush(args.trace)}")
    if registry is not None:
        snapshot = registry.snapshot()
        store.metrics = snapshot
        print("\nmetrics snapshot:")
        print(json.dumps(snapshot, indent=2, sort_keys=True))

    if args.save:
        store.save(args.save)
        print(f"\nsaved run store to {args.save}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
