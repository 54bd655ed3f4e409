"""repro — reproduction of ADACOMM (Wang & Joshi, MLSys 2019).

"Adaptive Communication Strategies to Achieve the Best Error-Runtime
Trade-off in Local-Update SGD" analyses periodic-averaging SGD (PASGD) in
terms of error versus *wall-clock time* and proposes ADACOMM, an adaptive
communication-period schedule.  This package implements the full system from
scratch on NumPy: the autograd/NN substrate, a simulated multi-worker cluster
with a stochastic delay model, PASGD with fixed and adaptive communication
periods, block momentum, the paper's theoretical bounds, and an experiment
harness that regenerates every table and figure of the evaluation section.

Every pluggable component — models, datasets, delay distributions, network
scalings, communication schedules, LR schedules — is resolved by name through
the registries in :mod:`repro.api`, so experiments are data: compose them
with the fluent :class:`Experiment` builder, serialize them with
``ExperimentConfig.to_dict()``/``from_dict()``, or run them from the CLI
(``python -m repro --config smoke --model vgg_lite_cnn --set n_workers=4``).

Quickstart
----------
>>> from repro import make_config, run_experiment
>>> config = make_config("smoke")
>>> store = run_experiment(config)
>>> sorted(store.names())  # doctest: +ELLIPSIS
['adacomm', ...]

Or declaratively, composing any registered model × dataset × delay × method
lineup:

>>> from repro import Experiment
>>> store = (
...     Experiment("smoke")
...     .model("vgg_lite_cnn")
...     .delay("pareto")
...     .methods("sync-sgd", "adacomm")
...     .run()
... )
>>> sorted(store.names())
['adacomm', 'sync-sgd']
"""

from repro.api import Experiment, Registry
from repro.core import (
    AdaCommSchedule,
    FixedCommunicationSchedule,
    PASGDTrainer,
    SequenceCommunicationSchedule,
    TrainerConfig,
    TheoreticalConstants,
    tau_rule,
    error_runtime_bound,
    optimal_communication_period,
)
from repro.distributed import SimulatedCluster
from repro.experiments import (
    ExperimentConfig,
    available_configs,
    config_spec,
    default_methods,
    make_config,
    parse_method_spec,
    run_experiment,
    run_method,
)
from repro.obs import MetricsRegistry, Tracer, read_trace
from repro.optim import SGD, BlockMomentum, ConstantLR, MultiStepLR, TauGatedStepLR
from repro.sweep import ResultStore, SweepRunner, SweepSpec, grid, paired, run_sweep
from repro.runtime import (
    ConstantDelay,
    ExponentialDelay,
    NetworkModel,
    RuntimeSimulator,
    speedup_constant_delays,
)
from repro.utils import RunRecord, RunStore

__version__ = "1.0.0"

__all__ = [
    "Experiment",
    "Registry",
    "AdaCommSchedule",
    "FixedCommunicationSchedule",
    "SequenceCommunicationSchedule",
    "PASGDTrainer",
    "TrainerConfig",
    "TheoreticalConstants",
    "tau_rule",
    "error_runtime_bound",
    "optimal_communication_period",
    "SimulatedCluster",
    "ExperimentConfig",
    "available_configs",
    "config_spec",
    "default_methods",
    "make_config",
    "parse_method_spec",
    "run_experiment",
    "run_method",
    "SGD",
    "BlockMomentum",
    "ConstantLR",
    "MultiStepLR",
    "TauGatedStepLR",
    "ConstantDelay",
    "ExponentialDelay",
    "NetworkModel",
    "RuntimeSimulator",
    "speedup_constant_delays",
    "MetricsRegistry",
    "Tracer",
    "read_trace",
    "RunRecord",
    "RunStore",
    "SweepSpec",
    "ResultStore",
    "SweepRunner",
    "run_sweep",
    "grid",
    "paired",
    "__version__",
]
