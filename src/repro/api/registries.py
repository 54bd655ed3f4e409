"""The registries every pluggable component of ``repro`` registers into.

One :class:`~repro.api.registry.Registry` instance per component axis:

========================  ======================================  =========================
registry                  registered by                           example names
========================  ======================================  =========================
``MODELS``                ``repro.models.registry``               ``mlp``, ``vgg_lite_cnn``
``DATASETS``              ``repro.data.synthetic``                ``synth_cifar10``
``DELAYS``                ``repro.runtime.distributions``         ``pareto``
``NETWORK_SCALINGS``      ``repro.runtime.network``               ``ring_allreduce``
``COMM_SCHEDULES``        ``repro.core.schedules``                ``adacomm``
``LR_SCHEDULES``          ``repro.optim.lr_schedules``            ``tau_gated``
``BACKENDS``              ``repro.distributed.worker_bank`` /     ``auto``, ``loop``,
                          ``repro.distributed.sharded_bank``      ``vectorized``, ``sharded``
``SWEEPS``                ``repro.sweep.campaigns``               ``tau_error_runtime``
========================  ======================================  =========================

Each registry lazily imports its defining module on first lookup, so the
registries are usable without importing the full ``repro`` package, and the
defining modules can import this one without a cycle.
"""

from __future__ import annotations

import importlib

from repro.api.registry import Registry

__all__ = [
    "MODELS",
    "DATASETS",
    "DELAYS",
    "NETWORK_SCALINGS",
    "COMM_SCHEDULES",
    "LR_SCHEDULES",
    "BACKENDS",
    "SWEEPS",
    "all_registries",
]


def _importer(*modules: str):
    def _populate() -> None:
        for module in modules:
            importlib.import_module(module)

    return _populate


MODELS = Registry("model", populate=_importer("repro.models.registry"))
DATASETS = Registry("dataset", populate=_importer("repro.data.synthetic"))
DELAYS = Registry("delay distribution", populate=_importer("repro.runtime.distributions"))
NETWORK_SCALINGS = Registry("scaling", populate=_importer("repro.runtime.network"))
COMM_SCHEDULES = Registry(
    "communication schedule", populate=_importer("repro.core.schedules")
)
LR_SCHEDULES = Registry("LR schedule", populate=_importer("repro.optim.lr_schedules"))
BACKENDS = Registry(
    "execution backend",
    populate=_importer(
        "repro.distributed.worker_bank",
        "repro.distributed.sharded_bank",
    ),
)
SWEEPS = Registry("sweep", populate=_importer("repro.sweep.campaigns"))


def all_registries() -> dict[str, Registry]:
    """The component registries keyed by the name used in CLI ``--list``."""
    return {
        "models": MODELS,
        "datasets": DATASETS,
        "delays": DELAYS,
        "scalings": NETWORK_SCALINGS,
        "schedules": COMM_SCHEDULES,
        "lr_schedules": LR_SCHEDULES,
        "backends": BACKENDS,
        "sweeps": SWEEPS,
    }
