"""Experiment harness: configs, runners, and paper-style tables/figures.

``configs`` defines the named experiment settings (vgg-lite / resnet-lite,
4 / 8 workers, fixed / variable learning rate) whose delay parameters are
calibrated to the paper's Figure 8 communication/computation ratios.
``harness`` runs a set of methods (fully synchronous SGD, fixed-τ PASGD,
ADACOMM) under one config and collects their :class:`RunRecord` trajectories.
``tables`` and ``figures`` turn stores of run records into the text tables
and data series that the CLI and ``claims`` print.
"""

from repro.experiments.configs import (
    ExperimentConfig,
    available_configs,
    config_spec,
    make_config,
)
from repro.experiments.harness import (
    MethodSpec,
    default_methods,
    parse_method_spec,
    run_experiment,
    run_method,
)
from repro.experiments.tables import (
    format_table,
    accuracy_table,
    speedup_table,
    sweep_summary_table,
    time_to_loss_table,
)
from repro.experiments.figures import (
    loss_vs_time_series,
    tau_vs_time_series,
    comm_comp_breakdown,
    sweep_error_runtime_frontier,
    sweep_loss_curves,
)

__all__ = [
    "ExperimentConfig",
    "make_config",
    "available_configs",
    "config_spec",
    "MethodSpec",
    "parse_method_spec",
    "run_experiment",
    "run_method",
    "default_methods",
    "format_table",
    "accuracy_table",
    "speedup_table",
    "time_to_loss_table",
    "loss_vs_time_series",
    "tau_vs_time_series",
    "comm_comp_breakdown",
    "sweep_summary_table",
    "sweep_loss_curves",
    "sweep_error_runtime_frontier",
]
