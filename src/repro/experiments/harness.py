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
dropout, and data-free objectives included), escalating to the sharded
multi-process bank at large cluster sizes (``auto_shard_threshold``); the
per-worker loop (m banks of one) serves third-party models without a
stacked definition and shards too ragged to stack.
"""

from __future__ import annotations

import ast
import multiprocessing
import os
import pickle
import shutil
import sys
import tempfile
import threading
import types
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.api.registries import COMM_SCHEDULES, DELAYS, LR_SCHEDULES, MODELS, all_registries
from repro.api.registry import filter_kwargs
from repro.core.schedules import CommunicationSchedule
from repro.core.trainer import PASGDTrainer, TrainerConfig
from repro.data.synthetic import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.collectives import AsyncFold, Collective, Exact, Gossip
from repro.distributed.reuse import BackendHandle
from repro.distributed.sharded_bank import _blas_cap, usable_cores
from repro.experiments.configs import ExperimentConfig
from repro.obs.emit import span, telemetry_on
from repro.optim.lr_schedules import LRSchedule
from repro.runtime.distributions import DelayDistribution
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
            raise ValueError(f"method spec argument {part!r} is not of the form key=value")
        try:
            kwargs[key.strip()] = ast.literal_eval(raw.strip())
        except (ValueError, SyntaxError):
            kwargs[key.strip()] = raw.strip()
    return kwargs


#: Method families with a ``<family>[-<body>]-tau<N>`` shorthand, and an
#: example of each for the error message.
_TAU_SHORTHANDS = {"pasgd": "pasgd-tau8", "async": "async-tau8", "gossip": "gossip-ring-tau4"}


def _split_tau_shorthand(name: str, spec: str) -> "tuple[str, str, int | None]":
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
        raise ValueError(
            f"method spec {spec!r} has a malformed tau; e.g. {_TAU_SHORTHANDS[family]!r}"
        ) from None


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
    exact average can honour, here, where the spec is known.
    """
    if isinstance(spec, MethodSpec):
        if spec.collective is not None:
            return spec
        return replace(spec, collective=config.collective())
    name, _, argstr = spec.partition(":")
    kwargs = _parse_spec_kwargs(argstr)
    name, body, tau = _split_tau_shorthand(name, spec)
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
        kwargs.setdefault("couple_lr", True)
    elif name == "gossip":
        topology = kwargs.pop("topology", None)
        rounds = int(kwargs.pop("rounds", 1))
        topology = body or topology
        if topology is None:
            raise ValueError(
                f"method spec {spec!r} needs a topology; e.g. 'gossip-ring-tau4' "
                f"or 'gossip:topology=ring,tau=4'"
            )
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
            raise ValueError(
                f"method spec {spec!r} needs a dropout probability or deadline; "
                f"e.g. 'elastic:p=0.1,tau=4'"
            )
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
                "block momentum post-processes a single global average and is "
                f"incompatible with {family} (method spec {spec!r})"
            )
        if config.weighting != "uniform":
            raise ValueError(
                f"weighting={config.weighting!r} weights a single global average and is "
                f"incompatible with {family} (method spec {spec!r})"
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
            f"method spec {spec!r} has missing or invalid arguments ({err}); "
            f"e.g. 'pasgd-tau8' or 'fixed:tau=8'"
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


def _build_compute_distribution(config: ExperimentConfig) -> DelayDistribution:
    """Resolve the compute-time distribution from the config's ``delay`` spec.

    A dict spec ``{"kind": name, **params}`` is built verbatim from the
    ``DELAYS`` registry.  A bare name delegates to the distribution's own
    ``from_moments(mean, std)`` classmethod with ``compute_time`` (mean Y)
    and ``compute_time_std_fraction · compute_time`` (std), so every named
    delay — builtin or third-party ``@DELAYS.register(...)`` — plugs into
    the same two config knobs by defining that one hook.
    """
    spec = config.delay
    if isinstance(spec, dict):
        params = dict(spec)
        try:
            kind = params.pop("kind")
        except KeyError:
            raise ValueError(f"delay spec dict must have a 'kind' key, got {spec!r}") from None
        return DELAYS.build(kind, **params)

    mean = config.compute_time
    std = config.compute_time_std_fraction * mean
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


def _build_model_fn(
    config: ExperimentConfig, model_seed: int, n_features: int | None = None
) -> Callable:
    """Model factory resolved from the ``MODELS`` registry.

    Builders have heterogeneous signatures (CNNs take no ``hidden_sizes``,
    linear models no ``hidden_sizes`` either), so the standard kwargs are
    filtered per builder; ``config.model_kwargs`` entries are passed last and
    unconditionally, so an unknown name there fails loudly.

    ``n_features`` is the feature count of the *built* dataset, which wins
    over ``config.n_features``: generators with an intrinsic dimensionality
    (e.g. ``spirals``) ignore the config knob, and the model must match the
    data it will actually see.
    """
    builder = MODELS.get(config.model)
    kwargs = filter_kwargs(
        builder,
        dict(
            n_features=config.n_features if n_features is None else n_features,
            n_classes=config.n_classes,
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
    through the handle (so a sharded pool spawned by one method is rebuilt
    in place for the next) and the *caller* owns the pool's lifetime —
    the per-run ``cluster.close()`` here leaves it alive.
    """
    method = parse_method_spec(method, config)
    seeds = SeedSequence(config.seed)
    if train_set is None or test_set is None:
        train_set, test_set = _split_dataset(config, seeds.generator())

    compute = _build_compute_distribution(config)
    network = NetworkModel(
        base_delay=config.communication_delay, scaling=config.network_scaling
    )
    runtime = RuntimeSimulator(compute, network, config.n_workers, rng=seeds.generator())

    model_fn = _build_model_fn(
        config, model_seed=seeds.spawn(), n_features=train_set.n_features
    )

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
            rng=seeds.generator(),
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


#: Wall seconds from ``Process.start()`` until a lineup helper can claim its
#: first method: spawn, import NumPy and ``repro``, rebuild the config and the
#: split.  Ten fresh starts on a 2-vCPU VM, BLAS pinned: 0.25-0.36 s, median
#: 0.29.  A lineup starts helpers once it has itself run this long.
_HELPER_BOOT_S = 0.29


def _registry_refs() -> dict:
    """``module:qualname`` of every registered component, keyed ``kind:name``."""
    return {
        f"{kind}:{name}": f"{getattr(entry, '__module__', None)}:{getattr(entry, '__qualname__', repr(entry))}"
        for kind, registry in all_registries().items() if kind != "sweeps"
        for name, entry in ((name, registry.get(name)) for name in registry.names())
    }


def _claim(claims: str, index: int) -> bool:
    """Take method ``index`` of a lineup: of all processes asking, exactly one gets it."""
    try:
        os.close(os.open(os.path.join(claims, str(index)), os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _helper_main(payload: dict, claims: str) -> None:
    """A lineup helper: run unclaimed methods from the back, one pickled record each.

    A helper whose registries map a name to another factory than the
    parent's claims nothing.  A method that raises ends the helper: the
    parent reruns it, so the error reaches the caller as in a serial run.
    """
    if _registry_refs() != payload["registries"]:
        return
    config = ExperimentConfig.from_dict(payload["config"])
    resolved = default_methods(config, payload["methods"])
    train_set, test_set = _split_dataset(config, SeedSequence(config.seed).generator())
    with config.backend_handle() as handle:
        for index in reversed(range(len(resolved))):
            if not _claim(claims, index):
                continue
            try:
                record = run_method(config, resolved[index], train_set, test_set, payload["discrepancy"], handle)
            except Exception:  # noqa: BLE001 - the parent reruns it and raises it there
                return
            path = os.path.join(claims, f"{index}.pkl")
            with open(f"{path}.tmp", "wb") as fh:
                pickle.dump(record, fh)
            os.replace(f"{path}.tmp", path)


class _Helpers:
    """Up to ``n_helpers`` processes that take a lineup's methods from the back.

    Every process claims a method (:func:`_claim`) before running it, so no
    cost model decides who runs what.  A timer spawns the helpers
    :data:`_HELPER_BOOT_S` after the lineup started, if a method is still
    unclaimed (ski rental); it only spawns, every method of the parent runs
    on the main thread.  :meth:`close` stops whatever still runs.
    """

    def __init__(self, config: ExperimentConfig, methods, discrepancy: bool, n_methods: int, n_helpers: int):
        self._payload = {
            "config": config.to_dict(),
            "methods": None if methods is None else list(methods),
            "discrepancy": discrepancy,
            "registries": _registry_refs(),
        }
        self._n_methods, self._n_helpers = n_methods, n_helpers
        self.dir = tempfile.mkdtemp(prefix="repro-lineup-")
        self.procs: list = []
        self._timer = threading.Timer(_HELPER_BOOT_S, self._start)
        self._timer.start()

    def _start(self) -> None:
        n_helpers = min(self._n_helpers, self._n_methods - len(os.listdir(self.dir)))
        # spawn re-imports a parent ``__main__`` that has a file or a module
        # spec; a stand-in with neither keeps an unguarded script (or a
        # notebook cell) from running its top level again in every helper.
        main = sys.modules["__main__"]
        sys.modules["__main__"] = types.ModuleType("__main__")
        try:
            with _blas_cap(n_helpers + 1):
                for _ in range(n_helpers):
                    proc = multiprocessing.get_context("spawn").Process(
                        target=_helper_main, args=(self._payload, self.dir), daemon=True
                    )
                    proc.start()
                    self.procs.append(proc)
        except OSError:  # no process to spare: the parent runs what is left
            pass
        finally:
            sys.modules["__main__"] = main

    def records(self) -> dict:
        """Wait for the helpers; every method they finished, by lineup index."""
        self._timer.join()
        for proc in self.procs:
            proc.join()
        records = {}
        for name in os.listdir(self.dir):
            if name.endswith(".pkl"):
                with open(os.path.join(self.dir, name), "rb") as fh:
                    records[int(name[:-4])] = pickle.load(fh)
        return records

    def close(self) -> None:
        self._timer.cancel()
        self._timer.join()
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join()
        shutil.rmtree(self.dir, ignore_errors=True)


def _helper_count(config: ExperimentConfig, methods, n_methods: int, handle: BackendHandle) -> int:
    """How many helpers may share a lineup; 0 keeps it serial.

    Serial when a helper cannot help (one method; a sharded layout; inside a
    multiprocessing child such as a ``--jobs N`` worker) or cannot be trusted
    (an obs sink on; a hand-built :class:`MethodSpec`; a config that does not
    survive ``to_dict`` / ``from_dict``, the only way it reaches a helper).
    """
    spec, _, threshold = handle.layout
    if (
        n_methods < 2
        or spec == "sharded"
        or (spec == "auto" and threshold is not None and config.n_workers >= threshold)
        or telemetry_on()
        or multiprocessing.parent_process() is not None
        or any(isinstance(method, MethodSpec) for method in methods or ())
    ):
        return 0
    try:
        if ExperimentConfig.from_dict(config.to_dict()) != config:
            return 0
    except (TypeError, ValueError):
        return 0
    return usable_cores() - 1


def run_experiment(
    config: ExperimentConfig,
    methods: Sequence["MethodSpec | str"] | None = None,
    record_discrepancy: bool = False,
    backend_handle: "BackendHandle | None" = None,
) -> RunStore:
    """Run all methods on a shared dataset split and collect their records.

    The whole lineup shares one :class:`BackendHandle`, so when the config
    resolves to the sharded backend its process pool is spawned once and
    rebuilt in place between methods instead of respawned per method
    (byte-identical trajectories either way; see
    ``repro.distributed.reuse``).  Passing ``backend_handle`` extends the
    reuse across *calls* — e.g. the serial sweep path hands every cell one
    handle — in which case the caller owns (and must close) the handle.

    The parent runs methods from the front; helper processes take them from
    the back (:class:`_Helpers`, :func:`_helper_count`).  A method is a pure
    function of (config, spec) and records are stored in lineup order, so the
    bytes equal a serial run's: the clock decides where a method runs only.
    """
    resolved = default_methods(config, methods)
    seeds = SeedSequence(config.seed)
    train_set, test_set = _split_dataset(config, seeds.generator())
    records: dict[int, RunRecord] = {}

    with span("experiment", experiment=config.name, n_methods=len(resolved)), ExitStack() as stack:
        if backend_handle is None:
            backend_handle = stack.enter_context(config.backend_handle())
        n_helpers = _helper_count(config, methods, len(resolved), backend_handle)
        helpers: "_Helpers | None" = None
        if n_helpers:
            helpers = _Helpers(config, methods, record_discrepancy, len(resolved), n_helpers)
            stack.callback(helpers.close)

        def run(index: int) -> None:
            logger.info("running %s on %s", resolved[index].label, config.name)
            records[index] = run_method(
                config,
                resolved[index],
                train_set=train_set,
                test_set=test_set,
                record_discrepancy=record_discrepancy,
                backend_handle=backend_handle,
            )

        for index in range(len(resolved)):
            if helpers is not None and not _claim(helpers.dir, index):
                records.update(helpers.records())  # the helpers hold the rest
                break
            run(index)
        # What no helper finished (it died, or its method raised) runs here,
        # in lineup order, so a failing method raises as in a serial run.
        for index in range(len(resolved)):
            if index not in records:
                run(index)
    return RunStore.from_records(records[index] for index in range(len(resolved)))
