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

import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Any, Callable, get_args, get_origin, get_type_hints

from repro.api.registries import (
    BACKENDS,
    DATASETS,
    DELAYS,
    LR_SCHEDULES,
    MODELS,
    NETWORK_SCALINGS,
)
from repro.api.registry import Registry, filter_kwargs
from repro.data.synthetic import LABEL_NOISE, Dataset
from repro.distributed.collectives import Exact
from repro.distributed.reuse import BackendHandle
from repro.optim.lr_schedules import DECAY_GAMMA, check_milestones
from repro.optim.sgd import MOMENTUM, require_finite
from repro.runtime.distributions import DelayDistribution
from repro.utils.domains import AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, Interval

__all__ = ["ExperimentConfig", "make_config", "available_configs", "config_spec"]


def _field(default: Any, domain: Any) -> Any:
    """A field whose value must lie in ``domain``: a registry, a choice tuple or a ``check(name, value)``."""
    return field(default=default, metadata={"domain": domain})


def _backend_name(name: str, value: str) -> None:
    if value != "auto":
        BACKENDS.get(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one paper experiment end to end.

    All component fields (``model``, ``dataset``, ``delay``,
    ``network_scaling``, ``lr_schedule``, ``methods``) are registry names —
    see ``repro.api`` — so a config can be serialized with :meth:`to_dict`
    and rebuilt with :meth:`from_dict`.  What a method's communication step
    does (gossip, async, elastic dropout) is named by its method spec, never
    by a lineup-wide field; see :func:`repro.experiments.harness.parse_method_spec`.

    Each field declares its domain once: its annotation is its type, and its
    metadata the range, name set or registry its value must lie in.
    """

    name: str
    # Workload
    dataset: str = _field("synth_cifar10", DATASETS)
    model: str = _field("mlp", MODELS)
    model_kwargs: dict = field(default_factory=dict)
    n_train: int = _field(2400, AT_LEAST_ONE)
    n_test: int = _field(600, AT_LEAST_ONE)
    n_features: int = _field(64, AT_LEAST_ONE)
    class_sep: float = _field(0.8, NON_NEGATIVE)
    label_noise: float = _field(0.15, LABEL_NOISE)
    hidden_sizes: tuple[int, ...] = _field((), AT_LEAST_ONE)
    n_classes: int = _field(10, Interval(2))
    # Cluster.  ``backend`` selects the worker-execution engine: "loop" steps
    # m banks of one worker (the independent check of the worker axis),
    # "vectorized" runs all replicas as stacked NumPy ops, "sharded" splits
    # the stacked bank over ``backend_shards`` worker processes, and "auto"
    # (default) picks sharded at or above ``auto_shard_threshold`` workers,
    # else vectorized whenever the model supports it — which every
    # registered model does.  All backends are byte-identical, so these
    # knobs change the process layout, never the trajectory.
    n_workers: int = _field(4, AT_LEAST_ONE)
    batch_size: int = _field(8, AT_LEAST_ONE)
    backend: str = _field("auto", _backend_name)
    backend_shards: int = _field(2, AT_LEAST_ONE)
    auto_shard_threshold: int | None = _field(64, AT_LEAST_ONE)
    # Bank storage dtype: "float64" (byte-identical default) or "float32"
    # (opt-in reduced precision — half the memory traffic, parity within
    # tolerance; the loop backend stays the float64 reference regardless).
    bank_dtype: str = _field("float64", ("float64", "float32"))
    # Averaging-collective weighting: "uniform" (paper, eq. 3) or
    # "shard_size" (FedAvg-style, for unbalanced partitions); ``Exact`` owns
    # the names, checked through ``collective()``.
    weighting: str = "uniform"
    # Delay model (all times in units of the mean compute time).  ``delay`` is
    # either a registered distribution name, whose parameters are derived from
    # ``compute_time`` / ``compute_time_std_fraction`` (moment matching), or a
    # ``{"kind": name, **params}`` dict giving the parameters explicitly;
    # ``validate()`` builds it (:meth:`compute_distribution`).
    delay: str | dict = "shifted_exponential"
    # A clock that cannot move never ends a run: the trainer loops until the
    # virtual clock reaches the budget.
    compute_time: float = _field(1.0, POSITIVE)
    compute_time_std_fraction: float = _field(0.25, NON_NEGATIVE)
    alpha: float = _field(4.0, NON_NEGATIVE)
    network_scaling: str = _field("constant", NETWORK_SCALINGS)
    # Optimization
    lr: float = _field(0.4, require_finite)
    weight_decay: float = _field(1e-4, partial(require_finite, zero_ok=True))
    momentum: float = _field(0.0, MOMENTUM)
    block_momentum_beta: float = _field(0.0, MOMENTUM)
    variable_lr: bool = False
    lr_schedule: str | None = _field(None, LR_SCHEDULES)  # overrides ``variable_lr`` when set
    lr_decay_milestones: tuple[float, ...] = _field((3.0, 6.0, 9.0), check_milestones)
    lr_decay_gamma: float = _field(0.1, DECAY_GAMMA)
    # Budgets / schedules
    wall_time_budget: float = _field(1800.0, POSITIVE)
    adacomm_interval: float = _field(120.0, POSITIVE)
    adacomm_initial_tau: int = _field(20, AT_LEAST_ONE)
    fixed_taus: tuple[int, ...] = _field((1, 20, 100), AT_LEAST_ONE)
    # Method lineup: ``None`` means the paper default (one entry per
    # ``fixed_taus`` value plus ADACOMM); otherwise a tuple of method specs
    # such as ("sync-sgd", "pasgd-tau20", "adacomm"); ``validate()`` parses it.
    methods: tuple[str, ...] | None = None
    eval_every_rounds: int = _field(1, AT_LEAST_ONE)
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
        try:
            if from_moments is None:
                raise NotImplementedError("no from_moments(mean, std) hook")
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
        """Rebuild a config from :meth:`to_dict` output and :meth:`validate` it.

        JSON lists become tuples.  Unknown keys, values outside their field's
        type or domain and names that are not registered raise ``ValueError``,
        so a typo in a JSON config fails before any training.
        """
        payload = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
        # A retired layout knob that never changed a trajectory: older saves still load.
        payload.pop("shard_transport", None)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown config fields {unknown}; known fields: {sorted(known)}"
            )
        return cls(**payload).validate()

    def validate(self) -> "ExperimentConfig":
        """Check each field's type and domain, then the cross-field rules, before anything runs."""
        for name, domain in _DOMAINS.items():
            value = getattr(self, name)
            check_type(name, value)
            if value is None or domain is None:
                continue
            if isinstance(domain, Registry):
                domain.get(value)
            elif isinstance(domain, tuple):
                if value not in domain:
                    raise ValueError(f"unknown {name} {value!r}; choose {' or '.join(map(repr, domain))}")
            else:
                domain(name, value)
        for rule in _CROSS_FIELD_RULES:
            rule(self)
        return self


_KINDS = {int: "integers", float: "finite numbers", bool: "booleans", str: "strings", dict: "dicts",
          type(None): "None"}


def _accepts(hint: Any) -> Callable[[Any], bool]:
    """Whether a value has type ``hint``: an int is no bool, a float is finite, and an int is a float."""
    args = get_args(hint)
    if get_origin(hint) is tuple:
        item = _accepts(args[0])
        return lambda value: isinstance(value, tuple) and all(map(item, value))
    if args:  # a union
        arms = [_accepts(arm) for arm in args]
        return lambda value: any(arm(value) for arm in arms)
    if hint is float:
        return lambda value: isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    return lambda value: isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _describe(hint: Any) -> str:
    if get_origin(hint) is tuple:
        return f"tuples of {_describe(get_args(hint)[0])}"
    return " or ".join(_describe(arm) for arm in get_args(hint)) or _KINDS[hint]


# Each field's resolved annotation, read once: its type check and how to name the type.
_TYPES = {name: (_accepts(hint), _describe(hint)) for name, hint in get_type_hints(ExperimentConfig).items()}
_DOMAINS = {f.name: f.metadata.get("domain") for f in fields(ExperimentConfig)}


def check_type(name: str, value: Any, subject: "str | None" = None) -> None:
    """Refuse a ``value`` of another type than config field ``name``'s; the error names ``subject``."""
    accepts, kinds = _TYPES.get(name, (None, None))
    if accepts is not None and not accepts(value):
        raise ValueError(f"{subject or name} takes {kinds}, got {value!r}")


def _train_floor(config: ExperimentConfig) -> int:
    return config.n_workers * config.batch_size


def _data_fills_a_round(config: ExperimentConfig) -> None:
    if config.n_train < _train_floor(config):
        raise ValueError(f"n_train must be >= n_workers * batch_size = {_train_floor(config)}, got {config.n_train}")


def _model_takes_kwargs(config: ExperimentConfig) -> None:
    kwargs = config.model_kwargs
    unknown = kwargs and sorted(set(kwargs) - set(filter_kwargs(MODELS.get(config.model), kwargs)))
    if unknown:
        raise ValueError(f"model_kwargs {unknown} are not arguments of model {config.model!r}")


def _compute_mean_positive(config: ExperimentConfig) -> None:
    mean = config.compute_distribution().mean
    if not mean > 0:
        raise ValueError(f"delay {config.delay!r}: the compute-time distribution's mean must be positive, got {mean}")


def _lineup_parses(config: ExperimentConfig) -> None:
    from repro.experiments.harness import default_methods  # the harness imports this module

    if config.methods == ():
        raise ValueError("methods must name at least one method, got ()")
    try:
        default_methods(config)  # a bad method spec or a shared label
    except ValueError as err:
        if config.methods is not None:
            raise
        raise ValueError(f"fixed_taus {config.fixed_taus}: {err}") from None  # the default lineup's source


#: Rules over several fields, checked once every field lies in its domain.  The
#: collective owns the weighting names (and shares β's range with its field).
_CROSS_FIELD_RULES = (
    _data_fills_a_round, _model_takes_kwargs, _compute_mean_positive, ExperimentConfig.collective, _lineup_parses,
)


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
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if scale == 1.0:
        return cfg
    return cfg.with_overrides(
        wall_time_budget=cfg.wall_time_budget * scale,
        adacomm_interval=cfg.adacomm_interval * scale,
        n_train=max(_train_floor(cfg), int(cfg.n_train * scale + 0.5)),
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
