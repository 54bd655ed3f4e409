"""Named experiment configurations — declarative and JSON-round-trippable.

Each configuration mirrors one experimental setting of the paper (model ×
dataset × delay model × learning-rate schedule × cluster size).  Every
component is referenced *by name* and resolved through the registries in
:mod:`repro.api.registries`, so a config is pure data: ``to_dict()`` /
``from_dict()`` round-trip through JSON, and the named configs themselves are
plain dict specs (``_CONFIG_SPECS``) rather than code.

Two knobs matter most for reproducing the paper's behaviour:

* ``alpha`` — the communication/computation ratio D/Y.  Figure 8 of the paper
  shows VGG-16's communication time is roughly 4× its computation time, while
  ResNet-50's communication is well under its computation; the ``vgg_*``
  configs therefore use α = 4.0 and the ``resnet_*`` configs α = 0.5.
* ``compute_time`` — the mean per-mini-batch compute time Y; all simulated
  wall-clock numbers are expressed in units of Y (set to 1 second).

All sizes here are deliberately small so a full experiment (4 methods ×
hundreds of simulated iterations) runs in seconds with the NumPy backend;
``scale`` multiplies the wall-clock budget and dataset size for
higher-fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.api.registries import (
    BACKENDS,
    DATASETS,
    DELAYS,
    LR_SCHEDULES,
    MODELS,
    NETWORK_SCALINGS,
)
from repro.api.registry import filter_kwargs
from repro.data.synthetic import Dataset
from repro.distributed.collectives import Exact
from repro.distributed.reuse import BackendHandle
from repro.runtime.distributions import DelayDistribution

__all__ = ["ExperimentConfig", "make_config", "available_configs", "config_spec"]

# Fields stored as tuples but serialized as JSON lists.
_TUPLE_FIELDS = ("hidden_sizes", "lr_decay_milestones", "fixed_taus", "methods")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one paper experiment end to end.

    All component fields (``model``, ``dataset``, ``delay``,
    ``network_scaling``, ``lr_schedule``, ``methods``) are registry names —
    see ``repro.api`` — so a config can be serialized with :meth:`to_dict`
    and rebuilt with :meth:`from_dict`.  What a method's communication step
    does (gossip, async, elastic dropout) is named by its method spec, never
    by a lineup-wide field; see :func:`repro.experiments.harness.parse_method_spec`.
    """

    name: str
    # Workload
    dataset: str = "synth_cifar10"
    model: str = "mlp"
    model_kwargs: dict = field(default_factory=dict)
    n_train: int = 2400
    n_test: int = 600
    n_features: int = 64
    class_sep: float = 0.8
    label_noise: float = 0.15
    hidden_sizes: tuple[int, ...] = ()
    n_classes: int = 10
    # Cluster.  ``backend`` selects the worker-execution engine: "loop" steps
    # m banks of one worker (the independent check of the worker axis),
    # "vectorized" runs all replicas as stacked NumPy ops, "sharded" splits
    # the stacked bank over ``backend_shards`` worker processes, and "auto"
    # (default) picks sharded at or above ``auto_shard_threshold`` workers,
    # else vectorized whenever the model supports it — which every
    # registered model does.  All backends are byte-identical, so these
    # knobs change the process layout, never the trajectory.
    n_workers: int = 4
    batch_size: int = 8
    backend: str = "auto"
    backend_shards: int = 2
    auto_shard_threshold: "int | None" = 64
    # Bank storage dtype: "float64" (byte-identical default) or "float32"
    # (opt-in reduced precision — half the memory traffic, parity within
    # tolerance; the loop backend stays the float64 reference regardless).
    bank_dtype: str = "float64"
    # Averaging-collective weighting: "uniform" (paper, eq. 3) or
    # "shard_size" (FedAvg-style, for unbalanced partitions).
    weighting: str = "uniform"
    # Delay model (all times in units of the mean compute time).  ``delay`` is
    # either a registered distribution name, whose parameters are derived from
    # ``compute_time`` / ``compute_time_std_fraction`` (moment matching), or a
    # ``{"kind": name, **params}`` dict giving the parameters explicitly.
    delay: str | dict = "shifted_exponential"
    compute_time: float = 1.0
    compute_time_std_fraction: float = 0.25
    alpha: float = 4.0
    network_scaling: str = "constant"
    # Optimization
    lr: float = 0.4
    weight_decay: float = 1e-4
    momentum: float = 0.0
    block_momentum_beta: float = 0.0
    variable_lr: bool = False
    lr_schedule: str | None = None  # overrides ``variable_lr`` when set
    lr_decay_milestones: tuple[float, ...] = (3.0, 6.0, 9.0)
    lr_decay_gamma: float = 0.1
    # Budgets / schedules
    wall_time_budget: float = 1800.0
    adacomm_interval: float = 120.0
    adacomm_initial_tau: int = 20
    fixed_taus: tuple[int, ...] = (1, 20, 100)
    # Method lineup: ``None`` means the paper default (one entry per
    # ``fixed_taus`` value plus ADACOMM); otherwise a tuple of method specs
    # such as ("sync-sgd", "pasgd-tau20", "adacomm").
    methods: tuple[str, ...] | None = None
    eval_every_rounds: int = 1
    seed: int = 7

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    @property
    def communication_delay(self) -> float:
        """Mean all-node broadcast delay D = α · Y."""
        return self.alpha * self.compute_time

    def build_dataset(self, rng=None) -> Dataset:
        """Instantiate the train+test dataset for this config.

        Resolves ``dataset`` through the ``DATASETS`` registry; kwargs the
        generator does not accept are dropped, so e.g. ``spirals`` (no
        ``n_features``) works unchanged.
        """
        fn = DATASETS.get(self.dataset)
        kwargs = dict(
            n_samples=self.n_train + self.n_test,
            n_features=self.n_features,
            n_classes=self.n_classes,
            class_sep=self.class_sep,
            label_noise=self.label_noise,
            rng=rng if rng is not None else self.seed,
        )
        return fn(**filter_kwargs(fn, kwargs))

    def collective(self) -> Exact:
        """The lineup's own collective: the paper's :class:`Exact` average.

        Method specs that name another collective (``gossip-*``, ``async-*``)
        replace it, and ``elastic:`` adds its dropout to it.
        """
        return Exact(weighting=self.weighting, block_momentum=self.block_momentum_beta)

    def compute_distribution(self) -> DelayDistribution:
        """The compute-time distribution ``F_Y`` named by ``delay``.

        A dict spec ``{"kind": name, **params}`` is built verbatim from the
        ``DELAYS`` registry.  A bare name delegates to the distribution's own
        ``from_moments(mean, std)`` classmethod with ``compute_time`` (mean Y)
        and ``compute_time_std_fraction · compute_time`` (std), so every named
        delay — builtin or third-party ``@DELAYS.register(...)`` — plugs into
        the same two config knobs by defining that one hook.  A malformed
        spec raises ``ValueError``.
        """
        spec = self.delay
        if isinstance(spec, dict):
            params = dict(spec)
            kind = params.pop("kind", None)
            if not isinstance(kind, str):
                raise ValueError(f"delay spec dict must name its 'kind', got {spec!r}")
            factory = DELAYS.get(kind)  # the standard unknown-name error
            try:
                return factory(**params)
            except TypeError as err:  # a misspelled or mistyped parameter
                raise ValueError(f"invalid parameters for delay {kind!r}: {err}") from None

        mean = self.compute_time
        std = self.compute_time_std_fraction * mean
        factory = DELAYS.get(spec)  # raise the standard unknown-name error first
        if std <= 0:
            # Zero spread degenerates to a deterministic delay for every family.
            return DELAYS.build("constant", value=mean)
        from_moments = getattr(factory, "from_moments", None)
        if from_moments is None:
            raise ValueError(
                f"delay distribution {spec!r} has no from_moments(mean, std) hook; pass "
                f"an explicit spec dict like {{'kind': {spec!r}, ...params}} instead"
            )
        try:
            return from_moments(mean, std)
        except NotImplementedError as err:
            raise ValueError(
                f"delay distribution {spec!r} has no moment-matching rule ({err}); pass "
                f"an explicit spec dict like {{'kind': {spec!r}, ...params}} instead"
            ) from None

    def backend_handle(self) -> BackendHandle:
        """A fresh reuse slot for this config's process layout.

        The single place the three layout fields are read: a lineup, a
        serial sweep and a lone ``run_method`` all resolve their backend
        through it.
        """
        return BackendHandle(
            self.backend,
            n_shards=self.backend_shards,
            auto_shard_threshold=self.auto_shard_threshold,
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict of every field.

        Tuples become lists (and are converted back by :meth:`from_dict`).
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output, validating names.

        Unknown keys and component names that are not registered raise
        ``ValueError`` so a typo in a JSON config fails before any training.
        """
        payload = dict(data)
        # A retired layout knob that never changed a trajectory: older saves still load.
        payload.pop("shard_transport", None)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown config fields {unknown}; known fields: {sorted(known)}"
            )
        for key in _TUPLE_FIELDS:
            if payload.get(key) is not None:
                payload[key] = tuple(payload[key])
        config = cls(**payload)
        config.validate()
        return config

    def validate(self) -> "ExperimentConfig":
        """Check component names against their registries and sizes against their ranges."""
        DATASETS.get(self.dataset)
        MODELS.get(self.model)
        # A run whose clock cannot move never ends: the trainer loops until
        # the virtual clock reaches the budget.
        if not self.compute_time > 0:
            raise ValueError(f"compute_time must be positive, got {self.compute_time}")
        if not self.compute_time_std_fraction >= 0:
            raise ValueError(
                f"compute_time_std_fraction must be >= 0, got {self.compute_time_std_fraction}"
            )
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        compute = self.compute_distribution()
        if not compute.mean > 0:
            raise ValueError(f"the compute-time distribution's mean must be positive, got {compute.mean}")
        NETWORK_SCALINGS.get(self.network_scaling)
        if self.lr_schedule is not None:
            LR_SCHEDULES.get(self.lr_schedule)
        if self.backend != "auto":
            BACKENDS.get(self.backend)
        for name in ("n_train", "n_test", "n_features", "n_workers", "batch_size", "eval_every_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(width < 1 for width in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must all be >= 1, got {self.hidden_sizes}")
        if self.methods is not None and not self.methods:
            raise ValueError("methods must name at least one method, got ()")
        if not self.wall_time_budget > 0:
            raise ValueError(f"wall_time_budget must be positive, got {self.wall_time_budget}")
        if self.backend_shards < 1:
            raise ValueError(f"backend_shards must be >= 1, got {self.backend_shards}")
        if self.auto_shard_threshold is not None and self.auto_shard_threshold < 1:
            raise ValueError(
                f"auto_shard_threshold must be >= 1 or None, got {self.auto_shard_threshold}"
            )
        if self.bank_dtype not in ("float64", "float32"):
            raise ValueError(
                f"unknown bank_dtype {self.bank_dtype!r}; choose 'float64' or 'float32'"
            )
        self.collective()  # range checks of weighting and block_momentum_beta
        return self


# -- named configs (declarative specs) ------------------------------------

_VGG_BASE: dict[str, Any] = dict(
    dataset="synth_cifar10",
    alpha=4.0,
    lr=0.4,
    adacomm_initial_tau=20,
    fixed_taus=(1, 20, 100),
)

_RESNET_BASE: dict[str, Any] = dict(
    dataset="synth_cifar10",
    alpha=0.5,
    lr=0.4,
    adacomm_initial_tau=5,
    fixed_taus=(1, 5, 100),
    wall_time_budget=1200.0,
    adacomm_interval=90.0,
)

_CIFAR100: dict[str, Any] = dict(dataset="synth_cifar100", n_classes=100, class_sep=1.2)
_BLOCK_MOMENTUM: dict[str, Any] = dict(momentum=0.9, block_momentum_beta=0.3, lr=0.05)

_CONFIG_SPECS: dict[str, dict[str, Any]] = {
    # Figure 9: VGG-16 (communication-heavy), CIFAR-10/100, fixed & variable LR.
    "vgg_cifar10_fixed_lr": {**_VGG_BASE},
    "vgg_cifar10_variable_lr": {**_VGG_BASE, "variable_lr": True},
    "vgg_cifar100_fixed_lr": {**_VGG_BASE, **_CIFAR100},
    # Figure 10: ResNet-50 (compute-heavy).
    "resnet_cifar10_fixed_lr": {**_RESNET_BASE},
    "resnet_cifar10_variable_lr": {**_RESNET_BASE, "variable_lr": True},
    "resnet_cifar100_fixed_lr": {**_RESNET_BASE, **_CIFAR100},
    # Figure 11: block momentum variants.
    "vgg_cifar10_block_momentum": {**_VGG_BASE, **_BLOCK_MOMENTUM},
    "resnet_cifar10_block_momentum": {**_RESNET_BASE, **_BLOCK_MOMENTUM},
    "resnet_cifar100_block_momentum": {**_RESNET_BASE, **_CIFAR100, **_BLOCK_MOMENTUM},
    # Figures 12–13 (appendix): 8-worker runs with per-worker batch 64.
    "vgg_cifar10_8workers": {
        **_VGG_BASE, "n_workers": 8, "batch_size": 8, "lr": 0.2, "variable_lr": True,
    },
    "resnet_cifar10_8workers": {
        **_RESNET_BASE, "n_workers": 8, "batch_size": 8, "lr": 0.2, "variable_lr": True,
        "adacomm_initial_tau": 10, "fixed_taus": (1, 10, 100),
    },
    # Small smoke-test config for unit/integration tests.
    "smoke": dict(
        dataset="synth_cifar10",
        n_train=240,
        n_test=80,
        n_features=16,
        class_sep=1.5,
        label_noise=0.0,
        hidden_sizes=(16,),
        n_workers=2,
        batch_size=16,
        alpha=1.0,
        wall_time_budget=60.0,
        adacomm_interval=15.0,
        adacomm_initial_tau=8,
        fixed_taus=(1, 8),
        lr=0.2,
    ),
}


def available_configs() -> list[str]:
    """Names accepted by :func:`make_config`."""
    return sorted(_CONFIG_SPECS)


def config_spec(name: str) -> dict[str, Any]:
    """A copy of the declarative spec behind a named config."""
    try:
        return dict(_CONFIG_SPECS[name])
    except KeyError as err:
        raise ValueError(f"unknown config {name!r}; available: {available_configs()}") from err


def _apply_scale(cfg: ExperimentConfig, scale: float) -> ExperimentConfig:
    """Scale the wall-clock budget, AdaComm interval, and training-set size."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if scale == 1.0:
        return cfg
    return cfg.with_overrides(
        wall_time_budget=cfg.wall_time_budget * scale,
        adacomm_interval=cfg.adacomm_interval * scale,
        n_train=max(cfg.n_workers * cfg.batch_size, int(cfg.n_train * scale + 0.5)),
    )


def make_config(name: str, scale: float = 1.0, **overrides) -> ExperimentConfig:
    """Build a named config, optionally scaling its budget/dataset size.

    ``scale`` multiplies the wall-clock budget and the training-set size (in
    both directions: ``scale < 1`` shrinks them for quick runs, ``scale > 1``
    grows them for higher-fidelity reproduction runs).
    """
    cfg = ExperimentConfig(name=name, **config_spec(name))
    cfg = _apply_scale(cfg, scale)
    if overrides:
        cfg = cfg.with_overrides(**overrides)
    return cfg
