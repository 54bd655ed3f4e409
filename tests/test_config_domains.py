"""Every ``ExperimentConfig`` field's declared domain, fuzzed from both sides.

An out-of-domain value is refused by ``from_dict`` with a ``ValueError`` that
names the field, and by ``python -m repro --set`` with one ``error:`` line
before anything runs.  An in-domain value on a tiny config builds its dataset,
its lineup and its cluster.  The two strategy tables below must cover every
field, so a new field cannot arrive without its domain being fuzzed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.experiments.cli as cli
from repro.api.registries import BACKENDS, DATASETS, DELAYS, LR_SCHEDULES, MODELS, NETWORK_SCALINGS
from repro.core.schedules import AdaCommSchedule
from repro.distributed.cluster import SimulatedCluster
from repro.experiments import harness
from repro.experiments.configs import ExperimentConfig, make_config
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator
from repro.utils.cli import key_value_parser
from repro.utils.seeding import SeedSequence

FIELDS = [f.name for f in fields(ExperimentConfig)]
FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]

#: A refusal names its field, or says it the way its registry or the lineup does.
MENTION = {"network_scaling": "scaling", "lr_schedule": "LR schedule", "methods": "method"}


def _names(name: str, message: str) -> bool:
    return name in message or MENTION.get(name, name) in message

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_NUMBER = st.sampled_from(["1", None, (1.0,), True])
NOT_AN_INT = st.sampled_from([2.5, 3.0, "4", None, True, False])
NOT_A_STR = st.sampled_from([1, 2.0, None, True, ("mlp",)])


def _floats(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


def _unregistered(registry, *also):
    return st.text(max_size=12).filter(lambda name: name not in registry and name not in also)


def _float_outside(lo=None, hi=None, lo_open=False, hi_open=False):
    """Finite floats outside the interval, plus the non-finite and non-numbers."""
    sides = []
    if lo is not None:
        sides.append(_floats(hi=lo, exclude_max=not lo_open))
    if hi is not None:
        sides.append(_floats(lo=hi, exclude_min=not hi_open))
    return st.one_of(*sides, NON_FINITE, NOT_A_NUMBER)


def _int_below(bound):
    return st.one_of(st.integers(max_value=bound - 1), NOT_AN_INT)


# The smoke config: n_train 240, n_workers 2, batch_size 16.
OUT_OF_DOMAIN = {
    "name": NOT_A_STR,
    "dataset": st.one_of(_unregistered(DATASETS), NOT_A_STR),
    "model": st.one_of(_unregistered(MODELS), NOT_A_STR),
    "model_kwargs": st.one_of(
        st.dictionaries(st.sampled_from(["foo", "depth", "n_layers", "lr"]), st.integers(), min_size=1),
        st.sampled_from([None, "x", 1]),
    ),
    # Past the rows one NumPy array of 16 float64 features can hold: 2**59.
    "n_train": st.one_of(st.integers(max_value=31), st.integers(min_value=2**59), NOT_AN_INT),
    "n_test": st.one_of(_int_below(1), st.integers(min_value=2**59)),
    "n_features": _int_below(1),
    "class_sep": _float_outside(lo=0),
    "label_noise": _float_outside(lo=0, hi=1, hi_open=True),
    "hidden_sizes": st.one_of(
        st.lists(st.integers(max_value=0), min_size=1, max_size=3).map(tuple),
        st.sampled_from([(8, 2.5), (True,), 16, "16", None]),
    ),
    "n_classes": _int_below(2),
    "n_workers": st.one_of(st.integers(max_value=0), st.integers(16, 10**6), NOT_AN_INT),
    "batch_size": st.one_of(st.integers(max_value=0), st.integers(121, 10**6), NOT_AN_INT),
    "backend": st.one_of(_unregistered(BACKENDS), NOT_A_STR),
    "backend_shards": _int_below(1),
    "bank_dtype": st.one_of(st.sampled_from(["float16", "int8", "Float64", ""]), NOT_A_STR),
    "weighting": st.one_of(st.sampled_from(["bogus", "Uniform", ""]), NOT_A_STR),
    "delay": st.one_of(
        _unregistered(DELAYS),
        st.sampled_from([
            {"value": 1.0},
            {"kind": "constant", "valu": 1.0},
            {"kind": "constant", "value": "slow"},
            {"kind": "weibull"},
            {"kind": "constant", "value": 0.0},
            {"kind": "uniform", "low": 0.0, "high": 0.0},
            1.0, None, True,
        ]),
    ),
    "compute_time": _float_outside(lo=0, lo_open=True),
    "compute_time_std_fraction": _float_outside(lo=0),
    "alpha": _float_outside(lo=0),
    "network_scaling": st.one_of(_unregistered(NETWORK_SCALINGS), NOT_A_STR),
    "lr": _float_outside(lo=0, lo_open=True),
    "weight_decay": _float_outside(lo=0),
    "momentum": _float_outside(lo=0, hi=1, hi_open=True),
    "block_momentum_beta": _float_outside(lo=0, hi=1, hi_open=True),
    "variable_lr": st.sampled_from([0, 1, "yes", None, 1.0]),
    "lr_schedule": st.one_of(_unregistered(LR_SCHEDULES), st.sampled_from([1, True, ("step",)])),
    "lr_decay_milestones": st.one_of(
        st.lists(_floats(hi=0), min_size=1, max_size=3).map(tuple),
        st.sampled_from([(6.0, 3.0), (1.0, math.nan), (1.0, "2"), 3.0, None]),
    ),
    "lr_decay_gamma": _float_outside(lo=0, hi=1, lo_open=True),
    "wall_time_budget": _float_outside(lo=0, lo_open=True),
    "adacomm_interval": _float_outside(lo=0, lo_open=True),
    "adacomm_initial_tau": _int_below(1),
    "fixed_taus": st.one_of(
        st.lists(st.integers(max_value=0), min_size=1, max_size=3).map(tuple),
        st.sampled_from([(1, 2.5), (True,), 8, None, (4, 4)]),
    ),
    "methods": st.sampled_from([
        (),
        ("quantum-annealing",),
        ("fixed:tau=0",),
        ("pasgd-tau4", "fixed:tau=4"),
        ("gossip-moon-tau4",),
        ("pasgd",),
        "sync-sgd",
        (1,),
    ]),
    "eval_every_rounds": _int_below(1),
    "seed": st.sampled_from([True, False, 7.0, "7", None]),
}

# A tiny config with room on every side: the floor n_workers * batch_size is 8.
TINY = dict(n_train=120, n_test=40, n_features=16, hidden_sizes=(8,), n_workers=2, batch_size=4,
            wall_time_budget=5.0, fixed_taus=(1, 4), adacomm_initial_tau=4)

IN_DOMAIN = {
    "name": st.text(max_size=12),
    "dataset": st.sampled_from(DATASETS.names()),
    "model": st.sampled_from(MODELS.names()),
    "model_kwargs": st.sampled_from([{}, {"rng": 3}]),
    "n_train": st.integers(8, 200),
    "n_test": st.integers(1, 100),
    "n_features": st.integers(1, 64),
    "class_sep": _floats(0, 10),
    "label_noise": _floats(0, 1, exclude_max=True),
    "hidden_sizes": st.lists(st.integers(1, 16), max_size=3).map(tuple),
    "n_classes": st.integers(2, 20),
    "n_workers": st.integers(1, 30),
    "batch_size": st.integers(1, 60),
    # sharded forks shard processes; the equivalence matrix builds it
    "backend": st.sampled_from(["auto", "loop", "vectorized"]),
    "backend_shards": st.integers(1, 8),
    "bank_dtype": st.sampled_from(["float64", "float32"]),
    "weighting": st.sampled_from(["uniform", "shard_size"]),
    "delay": st.one_of(
        st.sampled_from(DELAYS.names()),
        _floats(0.01, 10).map(lambda v: {"kind": "constant", "value": v}),
    ),
    "compute_time": _floats(1e-3, 1e3),
    "compute_time_std_fraction": _floats(0, 2),
    "alpha": _floats(0, 100),
    "network_scaling": st.sampled_from(NETWORK_SCALINGS.names()),
    "lr": _floats(1e-4, 10),
    "weight_decay": _floats(0, 1),
    "momentum": _floats(0, 1, exclude_max=True),
    "block_momentum_beta": _floats(0, 1, exclude_max=True),
    "variable_lr": st.booleans(),
    "lr_schedule": st.one_of(st.none(), st.sampled_from(LR_SCHEDULES.names())),
    "lr_decay_milestones": st.lists(_floats(0.1, 100), max_size=4).map(lambda ms: tuple(sorted(ms))),
    "lr_decay_gamma": _floats(0, 1, exclude_min=True),
    "wall_time_budget": _floats(0.1, 1e4),
    "adacomm_interval": _floats(0.1, 1e4),
    "adacomm_initial_tau": st.integers(1, 100),
    "fixed_taus": st.lists(st.integers(1, 100), max_size=3, unique=True).map(tuple),
    "methods": st.one_of(
        st.none(),
        st.lists(
            st.sampled_from(["sync-sgd", "pasgd-tau4", "adacomm", "gossip-ring-tau2", "async-tau2",
                             "elastic:p=0.1,tau=2", "sequence:taus=[4,2,1]"]),
            min_size=1, max_size=3, unique=True,
        ).map(tuple),
    ),
    "eval_every_rounds": st.integers(1, 50),
    "seed": st.integers(0, 2**31),
}


def _case(table):
    return st.sampled_from(FIELDS).flatmap(lambda name: table[name].map(lambda value: (name, value)))


def test_both_tables_cover_every_field():
    assert set(OUT_OF_DOMAIN) == set(IN_DOMAIN) == set(FIELDS)


def _cli_error(name, value, base: dict) -> str:
    """The one-line exit message of ``--set name=<value>`` over ``base``'s ``--set``s, checking nothing ran."""
    out = io.StringIO()
    must_not_run = mock.Mock(side_effect=AssertionError("the run started before the flags were checked"))
    sets = [arg for key, item in {**base, name: value}.items() for arg in ("--set", f"{key}={item!r}")]
    with mock.patch.object(cli, "run_experiment", must_not_run), contextlib.redirect_stdout(out):
        with pytest.raises(SystemExit) as stop:
            cli.main(["--config", "smoke", *sets])
    assert "running experiment" not in out.getvalue()
    assert isinstance(stop.value.code, str) and "\n" not in stop.value.code
    return stop.value.code


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_case(OUT_OF_DOMAIN))
# The probes that used to trace back mid-run or run regardless ...
@example(case=("lr", -1))
@example(case=("lr", 0))
@example(case=("momentum", 1.5))
@example(case=("weight_decay", -1.0))
@example(case=("label_noise", 2.0))
@example(case=("class_sep", -1.0))
@example(case=("n_workers", 100000))
@example(case=("n_train", 2.5))
@example(case=("model_kwargs", {"foo": 1}))
@example(case=("lr", math.nan))
@example(case=("alpha", math.nan))
@example(case=("compute_time", math.nan))
@example(case=("wall_time_budget", math.inf))
@example(case=("lr_decay_gamma", 0.0))
@example(case=("lr_decay_gamma", 2.0))
@example(case=("lr_decay_milestones", (-1.0,)))
@example(case=("batch_size", 100000))
@example(case=("n_classes", 1))
@example(case=("eval_every_rounds", 1.5))
@example(case=("n_workers", True))
@example(case=("seed", True))
# A field refused only beside another: the third item is the rest of the config.
@example(case=("n_features", 15, {"model": "vgg_lite_cnn"}))  # no square image
@example(case=("n_features", 16, {"model": "vgg_lite_cnn", "model_kwargs": {"image_size": 5}}))
@example(case=("n_features", 16, {"model": "vgg_lite_cnn", "dataset": "spirals"}))  # its 2 features, not 16
@example(case=("n_train", 2400 * 10**300))  # what --scale 1e300 makes of smoke
# ... and the cases hand-listed when the ranges were first checked.
@example(case=("n_workers", 0))
@example(case=("batch_size", 0))
@example(case=("eval_every_rounds", 0))
@example(case=("wall_time_budget", -1))
@example(case=("compute_time", 0))
@example(case=("compute_time", -1.0))
@example(case=("compute_time_std_fraction", -0.5))
@example(case=("alpha", -1))
@example(case=("delay", {"kind": "constant", "value": 0.0}))
@example(case=("delay", {"kind": "uniform", "low": 0.0, "high": 0.0}))
@example(case=("delay", {"value": 1.0}))
@example(case=("delay", {"kind": "constant", "valu": 1.0}))
@example(case=("n_train", 0))
@example(case=("n_test", 0))
@example(case=("n_features", 0))
@example(case=("hidden_sizes", (16, 0)))
@example(case=("methods", ()))
@example(case=("backend_shards", 0))
@example(case=("bank_dtype", "float16"))
@example(case=("weighting", "bogus"))
def test_out_of_domain_value_is_refused_naming_its_field(case):
    name, value, *rest = case
    base = rest[0] if rest else {}
    with pytest.raises(ValueError) as refused:
        ExperimentConfig.from_dict({**make_config("smoke", **base).to_dict(), name: value})
    assert _names(name, str(refused.value))
    message = _cli_error(name, value, base)
    assert message.startswith("error: ") and _names(name, message)


def _build(config: ExperimentConfig) -> None:
    """Everything ``run_method`` builds before its first step, for every method of the lineup."""
    seeds = SeedSequence(config.seed)
    train_set, _ = harness._split_dataset(config, seeds.generator())
    runtime = RuntimeSimulator(
        config.compute_distribution(),
        NetworkModel(base_delay=config.communication_delay, scaling=config.network_scaling),
        config.n_workers,
        rng=seeds.generator(),
    )
    model_fn = harness._build_model_fn(config, model_seed=seeds.spawn(), dataset=train_set)
    harness._build_lr_schedule(config)
    for method in harness.default_methods(config):
        method.schedule_fn()
        with config.backend_handle() as handle, SimulatedCluster(
            model_fn=model_fn, dataset=train_set, runtime=runtime, n_workers=config.n_workers,
            batch_size=config.batch_size, lr=config.lr, momentum=config.momentum,
            weight_decay=config.weight_decay, collective=method.collective, seed=seeds.spawn(),
            backend=handle, bank_dtype=config.bank_dtype,
        ):
            pass


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=_case(IN_DOMAIN))
@example(case=("compute_time_std_fraction", 0))
@example(case=("alpha", 0))
@example(case=("backend", "auto"))
@example(case=("lr_schedule", None))
@example(case=("delay", {"kind": "pareto", "scale": 1.0, "alpha": 3.0}))
@example(case=("lr_decay_milestones", (3, 6)))
def test_in_domain_value_builds_dataset_lineup_and_cluster(case):
    name, value = case
    config = make_config("smoke", **TINY).with_overrides(**{name: value}).validate()
    _build(config)


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value, token", [(math.inf, "Infinity"), (-math.inf, "-Infinity"), (math.nan, "NaN")])
def test_from_dict_refuses_json_non_finite_numbers(name, value, token):
    text = json.dumps({**make_config("smoke").to_dict(), name: value})
    assert f'"{name}": {token}' in text
    with pytest.raises(ValueError, match=f"{name} takes finite numbers, got"):
        ExperimentConfig.from_dict(json.loads(text))


def test_an_int_in_a_float_field_is_kept_as_is():
    config = make_config("smoke", lr=1, alpha=0).validate()
    assert config.to_dict()["lr"] == 1 and isinstance(config.lr, int)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_set_parses_non_finite_floats(raw):
    key, value = key_value_parser("--set")(f"lr={raw}")
    assert key == "lr" and isinstance(value, float) and repr(value) == raw


def test_adacomm_interval_refusal_is_the_schedules_own():
    with pytest.raises(ValueError, match="interval_length must be positive, got -1") as own:
        AdaCommSchedule(interval_length=-1)
    with pytest.raises(ValueError, match="adacomm_interval must be positive, got -1") as field:
        make_config("smoke", adacomm_interval=-1).validate()
    assert str(own.value).split(" must ")[1] == str(field.value).split(" must ")[1]
