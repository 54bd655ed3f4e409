"""Running a full paper-style experiment: several methods on one workload.

``run_experiment(config)`` executes the configured method lineup — by default
fully synchronous SGD (τ=1), the fixed-τ PASGD baselines, and ADACOMM — on
the same dataset / delay model / learning-rate schedule and collects all
trajectories into a :class:`RunStore`, from which the table/figure formatters
extract the numbers the paper reports.

Every component is resolved *by name* through the ``repro.api`` registries:
the model from ``MODELS``, the compute-time distribution from ``DELAYS``
(with parameters derived from the config's mean/std knobs by moment
matching), the learning-rate schedule from ``LR_SCHEDULES``, and each method
spec string ("sync-sgd", "pasgd-tau20", "adacomm", or
"<schedule>:key=value,...") from ``COMM_SCHEDULES``.  The worker-execution
backend comes from ``BACKENDS``: the default ``backend="auto"`` runs the
vectorized worker bank for every registered model (CNNs, batch-norm nets,
dropout, and data-free objectives included), in process; the per-worker
loop (m banks of one) serves third-party models without a stacked
definition and shards too ragged to stack.  The sharded multi-process bank
runs only when ``backend="sharded"`` names it.
"""

from __future__ import annotations

import ast
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.api.registries import COMM_SCHEDULES, LR_SCHEDULES, MODELS
from repro.api.registry import filter_kwargs
from repro.core.schedules import CommunicationSchedule
from repro.core.trainer import PASGDTrainer, TrainerConfig
from repro.data.synthetic import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.collectives import AsyncFold, Collective, Exact, Gossip
from repro.distributed.host import usable_cores
from repro.distributed.reuse import BackendHandle
from repro.experiments.configs import ExperimentConfig
from repro.experiments.parallel import run_items
from repro.obs.emit import span
from repro.optim.lr_schedules import LRSchedule
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator
from repro.utils.logging import get_logger
from repro.utils.results import RunRecord, RunStore
from repro.utils.seeding import SeedSequence

__all__ = [
    "MethodSpec",
    "parse_method_spec",
    "default_methods",
    "run_method",
    "run_experiment",
]

logger = get_logger("experiments.harness")


@dataclass(frozen=True)
class MethodSpec:
    """One method to run: a label, a schedule factory, and a collective.

    The schedule decides *when* the workers communicate, the ``collective``
    (``Exact | Gossip | AsyncFold``, see :mod:`repro.distributed.collectives`)
    what a communication does — so one lineup can mix synchronous, gossip,
    async, and elastic methods on the same workload.  A hand-built spec may
    leave it ``None`` to get the experiment config's own collective.
    """

    label: str
    schedule_fn: Callable[[], CommunicationSchedule]
    collective: "Collective | None" = None


def _split_top_level(argstr: str) -> list[str]:
    """Split on commas that are not nested inside (), [] or {}."""
    parts, depth, current = [], 0, []
    for char in argstr:
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def _parse_spec_kwargs(argstr: str) -> dict:
    """Parse ``key=value,key=value`` with Python-literal values (str fallback).

    Commas inside brackets belong to the value, so list-valued arguments like
    ``sequence:taus=[8,4,1]`` parse as one kwarg.
    """
    kwargs: dict = {}
    for part in filter(None, _split_top_level(argstr)):
        key, sep, raw = part.partition("=")
        if not sep:
            raise ValueError(f"argument {part!r} is not of the form key=value")
        try:
            kwargs[key.strip()] = ast.literal_eval(raw.strip())
        except (ValueError, SyntaxError):
            kwargs[key.strip()] = raw.strip()
    return kwargs


#: Method families with a ``<family>[-<body>]-tau<N>`` shorthand, and an
#: example of each for the error message.
_TAU_SHORTHANDS = {"pasgd": "pasgd-tau8", "async": "async-tau8", "gossip": "gossip-ring-tau4"}


def _split_tau_shorthand(name: str) -> "tuple[str, str, int | None]":
    """``(family, body, tau)`` of a shorthand name; other names pass through.

    ``"pasgd-tau8"`` → ``("pasgd", "", 8)``, ``"gossip-ring-tau4"`` →
    ``("gossip", "ring", 4)``, ``"adacomm"`` → ``("adacomm", "", None)``.
    """
    family, dash, rest = name.partition("-")
    if not dash or family not in _TAU_SHORTHANDS:
        return name, "", None
    body, sep, tau = f"-{rest}".rpartition("-tau")
    try:
        if not sep or bool(body) != (family == "gossip"):  # only gossip names a topology
            raise ValueError
        return family, body[1:], int(tau)
    except ValueError:
        raise ValueError(f"malformed tau; e.g. {_TAU_SHORTHANDS[family]!r}") from None


def parse_method_spec(spec: "str | MethodSpec", config: ExperimentConfig) -> MethodSpec:
    """Resolve a method spec string into a :class:`MethodSpec`.

    Accepted forms:

    * ``"sync-sgd"`` — fixed τ = 1;
    * ``"pasgd-tau<N>"`` — fixed τ = N;
    * ``"adacomm"`` — ADACOMM with the config's interval / initial τ;
    * ``"gossip-<topology>-tau<N>"`` or ``"gossip:topology=ring,tau=4,rounds=2"``
      — decentralized gossip averaging over a fixed-τ schedule;
    * ``"async-tau<N>"`` or ``"async:tau=8,damping=0.3"`` — barrier-free
      parameter-server execution with optional staleness damping;
    * ``"elastic:p=0.1,tau=4"`` (and/or ``deadline=<t>``) — fixed-τ averaging
      with seeded per-round worker dropout;
    * ``"<name>"`` or ``"<name>:key=value,..."`` — any schedule registered in
      ``COMM_SCHEDULES`` (e.g. ``"fixed:tau=4"``, ``"adacomm:initial_tau=50"``).

    The spec is the only place a collective is named.  A classic spec gets
    the config's own :class:`Exact` one, ``elastic:`` adds its dropout to
    it, and ``gossip-*`` / ``async-*`` replace it — and refuse a lineup whose
    ``block_momentum_beta > 0`` or ``weighting="shard_size"``, which only an
    exact average can honour, here, where the spec is known.  Every
    ``ValueError`` names the spec, so a bad cell of a campaign is found.
    """
    if isinstance(spec, MethodSpec):
        if spec.collective is not None:
            return spec
        return replace(spec, collective=config.collective())
    try:
        return _resolve_method_spec(spec, config)
    except ValueError as err:
        raise ValueError(f"method spec {spec!r}: {err}") from err


def _resolve_method_spec(spec: str, config: ExperimentConfig) -> MethodSpec:
    """:func:`parse_method_spec` for a string; its errors leave the spec to the caller."""
    name, _, argstr = spec.partition(":")
    kwargs = _parse_spec_kwargs(argstr)
    name, body, tau = _split_tau_shorthand(name)
    if tau is not None:
        kwargs.setdefault("tau", tau)
    collective: Collective = config.collective()
    label: "str | None" = None
    if name == "sync-sgd":
        kwargs.setdefault("tau", 1)
        name = "fixed"
    elif name == "pasgd":
        name = "fixed"
    elif name == "adacomm":
        kwargs.setdefault("initial_tau", config.adacomm_initial_tau)
        kwargs.setdefault("interval_length", config.adacomm_interval)
    elif name == "gossip":
        topology = kwargs.pop("topology", None)
        rounds = int(kwargs.pop("rounds", 1))
        topology = body or topology
        if topology is None:
            raise ValueError("needs a topology; e.g. 'gossip-ring-tau4' or 'gossip:topology=ring,tau=4'")
        kwargs.setdefault("tau", 1)
        collective = Gossip(str(topology), rounds)
        label = f"gossip-{topology}-tau{kwargs['tau']}"
        if rounds != 1:
            label += f"-r{rounds}"
        name = "fixed"
    elif name == "async":
        damping = float(kwargs.pop("damping", 0.0))
        kwargs.setdefault("tau", 1)
        collective = AsyncFold(damping)
        label = f"async-tau{kwargs['tau']}"
        if damping > 0.0:
            label += f"-d{damping:g}"
        name = "fixed"
    elif name == "elastic":
        prob = float(kwargs.pop("p", 0.0))
        deadline = kwargs.pop("deadline", None)
        deadline = float(deadline) if deadline is not None else None
        if prob == 0.0 and deadline is None:
            raise ValueError("needs a dropout probability or deadline; e.g. 'elastic:p=0.1,tau=4'")
        kwargs.setdefault("tau", 1)
        collective = replace(collective, dropout_prob=prob, dropout_deadline=deadline)
        label = f"elastic-tau{kwargs['tau']}"
        if prob > 0.0:
            label += f"-p{prob:g}"
        if deadline is not None:
            label += f"-d{deadline:g}"
        name = "fixed"
    if not isinstance(collective, Exact):
        family = "async execution"
        if isinstance(collective, Gossip):
            family = "decentralized gossip topologies"
        if config.block_momentum_beta > 0:
            raise ValueError(
                f"block momentum post-processes a single global average and is incompatible with {family}"
            )
        if config.weighting != "uniform":
            raise ValueError(
                f"weighting={config.weighting!r} weights a single global average and is "
                f"incompatible with {family}"
            )
    factory = COMM_SCHEDULES.get(name)  # raises with available names if unknown

    kwargs_snapshot = dict(kwargs)

    def schedule_fn(factory=factory, kwargs=kwargs_snapshot) -> CommunicationSchedule:
        return factory(**kwargs)

    # One throwaway instance gives the canonical label ("sync-sgd",
    # "pasgd-tau20", "adacomm", ...); schedules are cheap to construct.  It
    # also validates the arguments up front, where the spec string is known.
    try:
        schedule_label = schedule_fn().label
    except TypeError as err:
        raise ValueError(
            f"missing or invalid arguments ({err}); e.g. 'pasgd-tau8' or 'fixed:tau=8'"
        ) from err
    return MethodSpec(
        label=label if label is not None else schedule_label,
        schedule_fn=schedule_fn,
        collective=collective,
    )


def default_methods(
    config: ExperimentConfig, methods: Sequence["MethodSpec | str"] | None = None
) -> list[MethodSpec]:
    """The method lineup, parsed: ``methods`` if given, else the config's.

    ``config.methods`` names the methods explicitly; when it is ``None`` the
    paper's default lineup is used: one fixed-τ baseline per ``fixed_taus``
    entry (τ=1 is fully synchronous SGD) plus ADACOMM.  Runs are stored by
    label, so two specs that share one (``"pasgd-tau4"``, ``"fixed:tau=4"``)
    are refused here, before anything runs.
    """
    if methods is None:
        methods = config.methods
    if methods is None:
        methods = [
            "sync-sgd" if tau == 1 else f"pasgd-tau{tau}" for tau in config.fixed_taus
        ] + ["adacomm"]
    resolved = [parse_method_spec(spec, config) for spec in methods]
    specs_by_label: dict = {}
    for spec, method in zip(methods, resolved):
        if method.label in specs_by_label:
            raise ValueError(
                f"method specs {specs_by_label[method.label]!r} and {spec!r} share the "
                f"label {method.label!r}; a lineup stores one run per label"
            )
        specs_by_label[method.label] = spec
    return resolved


def _build_lr_schedule(config: ExperimentConfig) -> LRSchedule:
    """Resolve the LR schedule: ``lr_schedule`` name, else the ``variable_lr`` flag."""
    if config.lr_schedule is not None:
        milestones = tuple(config.lr_decay_milestones)
        return LR_SCHEDULES.build_filtered(
            config.lr_schedule,
            lr=config.lr,
            milestones=milestones,
            gamma=config.lr_decay_gamma,
            step_epochs=milestones[0] if milestones else 1.0,
        )
    if config.variable_lr:
        return LR_SCHEDULES.build(
            "tau_gated",
            lr=config.lr,
            milestones=config.lr_decay_milestones,
            gamma=config.lr_decay_gamma,
        )
    return LR_SCHEDULES.build("constant", lr=config.lr)


def _build_model_fn(config: ExperimentConfig, model_seed: int, dataset: Dataset) -> Callable:
    """Model factory resolved from the ``MODELS`` registry.

    Builders have heterogeneous signatures (CNNs take no ``hidden_sizes``,
    linear models no ``hidden_sizes`` either), so the standard kwargs are
    filtered per builder; ``config.model_kwargs`` entries are passed last and
    unconditionally, and ``validate()`` refuses a name the builder does not take.

    The model's input and head are sized from the *built* ``dataset``, which
    wins over ``config.n_features`` / ``config.n_classes``: generators with an
    intrinsic shape (``spirals``' two features, ``synth_cifar10``'s ten
    classes) ignore those knobs, and the model must match the data it will
    actually see.  A regression set (``n_classes`` None) keeps the config's.
    """
    builder = MODELS.get(config.model)
    kwargs = filter_kwargs(
        builder,
        dict(
            n_features=dataset.n_features,
            n_classes=config.n_classes if dataset.n_classes is None else dataset.n_classes,
            hidden_sizes=config.hidden_sizes,
            rng=model_seed,
        ),
    )
    kwargs.update(config.model_kwargs)

    def model_fn():
        return builder(**kwargs)

    return model_fn


def _split_dataset(config: ExperimentConfig, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    dataset = config.build_dataset(rng=rng)
    test_fraction = config.n_test / (config.n_train + config.n_test)
    return dataset.split(test_fraction=test_fraction, rng=rng)


def run_method(
    config: ExperimentConfig,
    method: "MethodSpec | str",
    train_set: Dataset | None = None,
    test_set: Dataset | None = None,
    record_discrepancy: bool = False,
    backend_handle: "BackendHandle | None" = None,
) -> RunRecord:
    """Run one method under ``config`` and return its trajectory.

    ``method`` may be a :class:`MethodSpec` or a method spec string such as
    ``"pasgd-tau20"`` (see :func:`parse_method_spec`).  ``backend_handle``
    opts into backend reuse across calls: the cluster resolves its backend
    through the handle (so a sharded pool forked by one method is rebuilt
    in place for the next) and the *caller* owns the pool's lifetime —
    the per-run ``cluster.close()`` here leaves it alive.
    """
    method = parse_method_spec(method, config)
    seeds = SeedSequence(config.seed)
    if train_set is None or test_set is None:
        train_set, test_set = _split_dataset(config, seeds.generator())

    compute = config.compute_distribution()
    network = NetworkModel(
        base_delay=config.communication_delay, scaling=config.network_scaling
    )
    runtime = RuntimeSimulator(compute, network, config.n_workers, rng=seeds.generator())

    model_fn = _build_model_fn(config, model_seed=seeds.spawn(), dataset=train_set)

    with ExitStack() as stack:
        if backend_handle is None:
            backend_handle = stack.enter_context(config.backend_handle())
        # Closed on exit: shuts an owned process pool down, no-op elsewhere.
        cluster = stack.enter_context(
            SimulatedCluster(
                model_fn=model_fn,
                dataset=train_set,
                runtime=runtime,
                n_workers=config.n_workers,
                batch_size=config.batch_size,
                lr=config.lr,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
                collective=method.collective,
                seed=seeds.spawn(),
                backend=backend_handle,
                bank_dtype=config.bank_dtype,
            )
        )
        iters_per_epoch = max(1, len(train_set) // (config.batch_size * config.n_workers))
        trainer = PASGDTrainer(
            cluster=cluster,
            schedule=method.schedule_fn(),
            lr_schedule=_build_lr_schedule(config),
            train_eval_data=(train_set.X, train_set.y),
            test_eval_data=(test_set.X, test_set.y),
            config=TrainerConfig(
                max_wall_time=config.wall_time_budget,
                eval_every_rounds=config.eval_every_rounds,
                iterations_per_epoch=iters_per_epoch,
                record_discrepancy=record_discrepancy,
            ),
            name=method.label,
        )
        with span(
            "method",
            clock=cluster.clock,
            method=method.label,
            experiment=config.name,
            backend=cluster.backend_name,
        ):
            record = trainer.train()
        record.config.update(
            {
                "experiment": config.name,
                "model": config.model,
                "dataset": config.dataset,
                "alpha": config.alpha,
                "n_workers": config.n_workers,
                "block_momentum": config.block_momentum_beta,
                "variable_lr": config.variable_lr,
                "backend": cluster.backend_name,
            }
        )
        # Method-family fields ride along only when non-default, so records
        # from classic sync methods keep their exact golden-fixture bytes.
        record.config.update(method.collective.record_fields())
        record.config["event_breakdown"] = cluster.breakdown()
        return record


def run_experiment(
    config: ExperimentConfig,
    methods: Sequence["MethodSpec | str"] | None = None,
    record_discrepancy: bool = False,
    backend_handle: "BackendHandle | None" = None,
) -> RunStore:
    """Run all methods on a shared dataset split and collect their records.

    The whole lineup shares one :class:`BackendHandle`, so when the config
    resolves to the sharded backend its process pool is forked once and
    rebuilt in place between methods instead of forked per method
    (byte-identical trajectories either way; see
    ``repro.distributed.reuse``).  Passing ``backend_handle`` extends the
    reuse across *calls* — e.g. a sweep hands every cell its parent runs one
    handle — in which case the caller owns (and must close) the handle.

    The parent runs methods from the front; helper processes, forked from
    it, take them from the back (:func:`~repro.experiments.parallel.run_items`)
    and run the same closure over the parent's config, methods and split.  A
    method is a pure function of (config, spec) and records are stored in
    lineup order, so the bytes equal a serial run's: the clock decides where
    a method runs only.  A layout that may shard keeps the lineup on this
    process: its shards already use the cores, and a helper must not reach
    a pool through the handle it inherited.
    """
    resolved = default_methods(config, methods)
    seeds = SeedSequence(config.seed)
    train_set, test_set = _split_dataset(config, seeds.generator())

    with span("experiment", experiment=config.name, n_methods=len(resolved)), ExitStack() as stack:
        if backend_handle is None:
            backend_handle = stack.enter_context(config.backend_handle())

        def run(index: int) -> RunRecord:
            logger.info("running %s on %s", resolved[index].label, config.name)
            return run_method(
                config,
                resolved[index],
                train_set=train_set,
                test_set=test_set,
                record_discrepancy=record_discrepancy,
                backend_handle=backend_handle,
            )

        n_procs = 1 if backend_handle.may_shard else usable_cores()
        records = list(run_items(len(resolved), run, n_procs))
    return RunStore.from_records(records)
