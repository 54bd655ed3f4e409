"""The traced run: time every layer of ``repro`` from outside, then run the CLI.

    python traced_main.py --workload NAME --spans-out spans.jsonl \
        --meta-out meta.json [--bench-seed S --bench-scale X] <cli flags...>

``LAYER_TARGETS`` maps each per-layer time metric to the public callables
that make up that layer, by dotted name.  Every target is resolved, replaced
in place by a span-recording wrapper (``spans.SpanRecorder.wrap``), and then
``repro.experiments.cli.main`` runs exactly as the untraced workload does.
Nothing under ``src/`` is edited: the layers do not know they are timed.

A target that no longer resolves (ROADMAP items 2 and 3 will move several)
is reported in the meta file instead of raising; its metric reads ``null``
and ``bench.layers_unresolved`` counts it, so the end-to-end metrics and the
other layers survive the refactor.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

from spans import SpanRecorder, write_spans

__all__ = ["LAYER_TARGETS", "COUNT_METRICS", "EVAL_CONTEXT", "resolve", "install"]

# metric (span name) -> targets "module:attr" or "module:Class.attr".
# Module-level functions are patched where they are *looked up*: a name
# imported with ``from x import f`` is a binding of the importing module.
LAYER_TARGETS: dict[str, list[str]] = {
    "experiments.cli_self_s": ["repro.experiments.cli:main"],
    "experiments.run_method_self_s": ["repro.experiments.harness:run_method"],
    "data.build_dataset_s": [
        "repro.experiments.configs:ExperimentConfig.build_dataset",
        "repro.data.synthetic:Dataset.split",
        "repro.distributed.cluster:partition_dataset",
    ],
    "data.next_batches_s": ["repro.data.bank_loader:BankLoader.next_batches"],
    "core.train_self_s": [
        "repro.core.trainer:PASGDTrainer.train",
        "repro.core.trainer:AsyncPASGDTrainer.train",
    ],
    "core.schedule_s": [
        "repro.core.schedules:FixedCommunicationSchedule.next_tau",
        "repro.core.schedules:FixedCommunicationSchedule.observe",
        "repro.core.schedules:AdaCommSchedule.next_tau",
        "repro.core.schedules:AdaCommSchedule.observe",
    ],
    "distributed.local_period_self_s": [
        "repro.distributed.cluster:SimulatedCluster.run_local_period"
    ],
    "distributed.average_s": ["repro.distributed.cluster:SimulatedCluster.average_models"],
    "distributed.async_round_s": ["repro.distributed.cluster:SimulatedCluster.run_async_round"],
    "distributed.evaluate_self_s": [
        "repro.distributed.cluster:SimulatedCluster.evaluate_synchronized"
    ],
    "distributed.cluster_init_s": [
        "repro.distributed.cluster:SimulatedCluster.__init__",
        "repro.distributed.reuse:BackendHandle.__enter__",
    ],
    "distributed.close_s": [
        "repro.distributed.cluster:SimulatedCluster.close",
        "repro.distributed.reuse:BackendHandle.close",
    ],
    "distributed.shard_wait_s": [
        "repro.distributed.sharded_bank:ShardedBank.local_period",
        "repro.distributed.sharded_bank:ShardedBank.mean_state",
        "repro.distributed.sharded_bank:ShardedBank.broadcast_state",
    ],
    "distributed.shard_init_s": [
        "repro.distributed.sharded_bank:ShardedBank.__init__",
        "repro.distributed.sharded_bank:ShardedBank.rebuild",
    ],
    "nn.bank_loss_s": [
        "repro.models.cnn:SmallCNN.bank_loss",
        "repro.models.mlp:MLP.bank_loss",
    ],
    "nn.backward_s": ["repro.nn.tensor:Tensor.backward"],
    # Counted only where an evaluation is among the ancestors (EVAL_CONTEXT).
    "nn.eval_forward_s": [
        "repro.models.cnn:SmallCNN.loss",
        "repro.models.cnn:SmallCNN.forward",
        "repro.models.mlp:MLP.loss",
        "repro.models.mlp:MLP.forward",
    ],
    "optim.step_s": ["repro.optim.bank_sgd:BankSGD.step"],
    "runtime.sample_s": [
        "repro.runtime.simulator:RuntimeSimulator.sample_local_period",
        "repro.runtime.simulator:RuntimeSimulator.sample_communication",
        "repro.runtime.simulator:RuntimeSimulator.sample_async_period",
    ],
    "sweep.spec_cells_s": ["repro.sweep.spec:SweepSpec.cells"],
    "sweep.store_put_s": ["repro.sweep.store:ResultStore.put"],
    "sweep.store_read_s": [
        "repro.sweep.store:ResultStore.cells",
        "repro.sweep.store:ResultStore.__contains__",
        "repro.sweep.store:ResultStore.addresses",
    ],
    "sweep.runner_self_s": ["repro.sweep.runner:SweepRunner.run"],
    "utils.to_payload_s": [
        "repro.utils.results:RunStore.to_payload",
        "repro.utils.results:RunStore.save",
    ],
    "obs.flush_s": ["repro.obs.tracer:Tracer.finish", "repro.obs.tracer:Tracer.flush"],
}

# count metric -> the time metric whose spans it counts.
COUNT_METRICS: dict[str, str] = {
    "experiments.methods_run": "experiments.run_method_self_s",
    "data.next_batches_calls": "data.next_batches_s",
    "distributed.average_calls": "distributed.average_s",
    "distributed.evaluate_calls": "distributed.evaluate_self_s",
    "nn.bank_loss_calls": "nn.bank_loss_s",
    "nn.backward_calls": "nn.backward_s",
    "optim.step_calls": "optim.step_s",
    "runtime.sample_calls": "runtime.sample_s",
    "sweep.store_put_calls": "sweep.store_put_s",
}

# ``nn.eval_forward_s`` is the model's loss/forward *under* this span.
EVAL_CONTEXT = "distributed.evaluate_self_s"

IMPORT_SPAN = "bench.import"


def resolve(target: str):
    """``(owner, attr_name, raw_attribute)`` of a dotted target.

    ``owner`` is the module, or the class in the MRO that actually defines
    the attribute — an inherited method is wrapped once, on its definer.
    Raises ``ImportError`` / ``AttributeError`` when the target is gone.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if inspect.isclass(owner):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return klass, attr, vars(klass)[attr]
        raise AttributeError(f"{target}: no attribute {attr!r}")
    return owner, attr, getattr(owner, attr)


def install(recorder: SpanRecorder, targets: "dict[str, list[str]] | None" = None) -> list[str]:
    """Wrap every resolvable target; returns the targets that did not resolve."""
    unresolved: list[str] = []
    for metric, names in (LAYER_TARGETS if targets is None else targets).items():
        for target in names:
            try:
                owner, attr, raw = resolve(target)
            except (ImportError, AttributeError):
                unresolved.append(target)
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if getattr(fn, "_span", None) is not None:
                continue  # reached through inheritance: the definer is already wrapped
            traced = recorder.wrap(fn, metric)
            traced._span = metric
            if isinstance(raw, (staticmethod, classmethod)):
                traced = type(raw)(traced)
            setattr(owner, attr, traced)
    return unresolved


def main(argv: list[str]) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--meta-out", required=True)
    own, rest = parser.parse_known_args(argv)

    recorder = SpanRecorder()
    index = recorder.begin(IMPORT_SPAN)
    import campaign_shim

    shim, cli_argv = campaign_shim.split_args(rest)
    if shim.bench_scale is not None:
        campaign_shim.register_bench_family(shim.bench_seed, shim.bench_scale)
    import repro.experiments.cli as cli

    unresolved = install(recorder)
    recorder.end(index)

    code = cli.main(cli_argv)

    t_end = time.perf_counter()
    write_spans(own.spans_out, recorder.spans, own.workload)
    Path(own.meta_out).write_text(
        json.dumps(
            {
                "workload": own.workload,
                "unresolved": unresolved,
                # Process start is not visible from here; the parent adds
                # interpreter start-up by timing the whole child.
                "main_s": t_end - t_start,
                "dump_s": time.perf_counter() - t_end,
                "n_spans": len(recorder.spans),
            }
        )
    )
    return code


# ``--jobs 2`` pool workers re-import this file as ``__mp_main__``: they must
# neither wrap anything nor run the workload again.
if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
