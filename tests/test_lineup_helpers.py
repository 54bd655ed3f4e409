"""One process-parallel mechanism: items on the parent plus late-started helpers.

``repro.experiments.parallel.run_items`` runs a list from the front on the
parent and, once the parent has run as long as a helper takes to boot,
spawns helpers that claim items from the back.  ``run_experiment`` uses it
with a lineup's methods as items, ``SweepRunner`` with a campaign's cells.
Every item is a pure function of its payload, so the saved bytes must equal
the serial run's whoever ran which item.  :class:`Placement` forces the
placement: a helper starts after the first method, and the parent holds its
second method until the helper has claimed the last item.
"""

from __future__ import annotations

import ctypes
import glob
import json
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.api.registries import COMM_SCHEDULES, DATASETS
from repro.core.schedules import FixedCommunicationSchedule
from repro.distributed.sharded_bank import _BLAS_ENV, usable_cores
from repro.experiments import harness, parallel
from repro.experiments.cli import main
from repro.experiments.configs import make_config
from repro.experiments.harness import MethodSpec, run_experiment
from repro.obs import MetricsRegistry, Profiler, Tracer
from repro.sweep import SweepSpec, grid, run_sweep, runner
from tests.conftest import Placement

#: No test here may leave a child process or a shared-memory segment behind.
pytestmark = pytest.mark.usefixtures("leaks")

ROOT = Path(__file__).resolve().parents[1]

#: The smoke lineup (3 methods) and a scaled-down paper lineup (4 methods).
LINEUPS = {
    "smoke": ["--config", "smoke", "--scale", "0.3"],
    "vgg_cifar10_fixed_lr": [
        "--config", "vgg_cifar10_fixed_lr", "--scale", "0.05", "--set", "hidden_sizes=(16,)",
    ],
}


def _smoke(**overrides):
    overrides.setdefault("wall_time_budget", 12.0)
    return make_config("smoke", **overrides)


def _json(store) -> str:
    return json.dumps(store.to_payload(), sort_keys=True)


def _serially(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with no core to spare for a helper."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(harness, "usable_cores", lambda: 1)
        return fn(*args, **kwargs)


@pytest.mark.parametrize("backend", ["vectorized", "loop"])
@pytest.mark.parametrize("lineup", sorted(LINEUPS))
def test_a_helper_run_saves_the_serial_bytes(lineup, backend, monkeypatch, tmp_path):
    # The --save file is the whole ``RunStore.to_payload()``.
    argv = [*LINEUPS[lineup], "--backend", backend, "--save"]
    assert _serially(main, [*argv, str(tmp_path / "serial.json")]) == 0
    placement = Placement(monkeypatch)
    assert main([*argv, str(tmp_path / "helper.json")]) == 0
    n_methods = len(json.loads((tmp_path / "serial.json").read_text())["runs"])
    assert len(placement.helpers) == 1 and placement.helper_claimed
    assert len(placement.parent_ran) < n_methods  # the helper ran the rest
    assert (tmp_path / "helper.json").read_bytes() == (tmp_path / "serial.json").read_bytes()


def test_a_killed_helper_costs_time_not_bytes(monkeypatch, leaks):
    config = _smoke()
    serial = _json(_serially(run_experiment, config))
    placement = Placement(monkeypatch, kill=True)
    assert _json(run_experiment(config)) == serial
    (helpers,) = placement.helpers
    assert placement.helper_claimed
    assert [proc.exitcode for proc in helpers.procs] == [-signal.SIGKILL]
    assert len(placement.parent_ran) == 3  # the parent reran the helper's method
    assert not leaks.children(grace=0)


def test_a_method_raising_in_a_helper_raises_in_the_caller(monkeypatch):
    # tau_gated decays the lr only while tau == 1: two decays by 1e-200
    # underflow sync-sgd's lr to 0.0, which set_lr refuses; tau > 1 runs on.
    config = _smoke(
        methods=("pasgd-tau8", "pasgd-tau4", "sync-sgd"), variable_lr=True,
        lr_decay_gamma=1e-200, lr_decay_milestones=(0.1, 0.2),
    )
    with pytest.raises(ValueError) as serial:
        _serially(run_experiment, config)
    placement = Placement(monkeypatch)
    with pytest.raises(type(serial.value), match=f"^{re.escape(str(serial.value))}$"):
        run_experiment(config)
    assert placement.helper_claimed  # the helper took sync-sgd, raised, and left it
    assert placement.parent_ran == ["pasgd-tau8", "pasgd-tau4", "sync-sgd"]


#: Each serial rule: (config, methods, a context to run in).
SERIAL_RULES = {
    "one method": lambda: (_smoke(methods=("sync-sgd",)), None, nullcontext()),
    "tracer on": lambda: (_smoke(), None, Tracer()),
    "metrics on": lambda: (_smoke(), None, MetricsRegistry()),
    "profiler on": lambda: (_smoke(), None, Profiler()),
    "sharded": lambda: (_smoke(backend="sharded"), None, nullcontext()),
    "auto at the shard threshold": lambda: (_smoke(auto_shard_threshold=2), None, nullcontext()),
    "a hand-built MethodSpec": lambda: (
        _smoke(),
        ["sync-sgd", "pasgd-tau8", MethodSpec("tau3", lambda: FixedCommunicationSchedule(3))],
        nullcontext(),
    ),
    "a dataset_fn": lambda: (_smoke(dataset_fn=DATASETS.get("synth_cifar10")), None, nullcontext()),
}


@pytest.mark.parametrize("rule", sorted(SERIAL_RULES))
def test_no_helper_starts_when_a_serial_rule_holds(rule, monkeypatch):
    config, methods, context = SERIAL_RULES[rule]()
    placement = Placement(monkeypatch)
    with context:
        store = run_experiment(config, methods=methods)
    assert placement.helpers == [] and len(placement.parent_ran) == len(store)


def _late_starts_in_a_lineup(item) -> int:
    """How many times a lineup run as scheduler item ``item`` started helpers."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        starts = []
        spawn_later = parallel._spawn_later
        monkeypatch.setattr(parallel, "_spawn_later", lambda *args: starts.append(args) or spawn_later(*args))
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        run_experiment(_smoke())
    return len(starts)


def test_no_helper_starts_inside_a_pool_worker(monkeypatch):
    # A ``--jobs 2`` sweep cell's lineup runs in exactly this: an item of a
    # scheduler on two processes, on the parent or on a helper.
    placement = Placement(monkeypatch)
    lineups = parallel.run_items([0, 1, 2], _late_starts_in_a_lineup, _late_starts_in_a_lineup, 2)
    assert list(lineups) == [0, 0, 0]
    assert placement.helper_claimed  # the helper ran a lineup too


class _DoubledTau(FixedCommunicationSchedule):
    """``"fixed"`` overwritten at run time: a fresh helper would not see it."""

    def __init__(self, tau: int):
        super().__init__(2 * tau)


def test_a_helper_whose_registry_differs_claims_nothing(monkeypatch):
    config = _smoke(methods=("sync-sgd", "pasgd-tau8", "pasgd-tau4"))
    builtin = COMM_SCHEDULES.get("fixed")
    COMM_SCHEDULES.register("fixed", _DoubledTau, overwrite=True)
    try:
        serial = _json(_serially(run_experiment, config))
        placement = Placement(monkeypatch)
        assert _json(run_experiment(config)) == serial
    finally:
        COMM_SCHEDULES.register("fixed", builtin, overwrite=True)
    assert len(placement.helpers) == 1 and not placement.helper_claimed
    assert placement.parent_ran == ["pasgd-tau2", "pasgd-tau16", "pasgd-tau8"]


def test_an_unguarded_script_runs_its_top_level_once(tmp_path):
    log = tmp_path / "top_level.log"
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent(f"""\
        import sys
        sys.path.insert(0, {str(ROOT)!r})
        import pytest
        from repro.experiments.harness import run_experiment
        from tests.conftest import Placement
        from tests.test_lineup_helpers import _smoke

        with open({str(log)!r}, "a") as fh:
            fh.write("top level\\n")
        with pytest.MonkeyPatch.context() as monkeypatch:
            placement = Placement(monkeypatch)
            run_experiment(_smoke())
        print(len(placement.helpers), placement.helper_claimed)
    """))
    proc = subprocess.run(
        [sys.executable, str(script)], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]
    assert log.read_text() == "top level\n"


def _claim_all(claims: str, order: int, start_at: float) -> list:
    indices = list(range(2000))
    random.Random(order).shuffle(indices)
    time.sleep(max(0.0, start_at - time.time()))
    return [index for index in indices if parallel._claim(claims, index)]


def test_every_method_is_claimed_exactly_once_under_contention(tmp_path):
    # Four processes on (at most) two cores race for the same 2000 claims.
    start_at = time.time() + 2.0
    with ProcessPoolExecutor(4, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(_claim_all, str(tmp_path), order, start_at) for order in range(4)]
        claimed = [future.result(timeout=120) for future in futures]
    assert sorted(index for mine in claimed for index in mine) == list(range(2000))


def _blas_threads() -> int:
    """This process's BLAS pool size, read back from NumPy's bundled OpenBLAS."""
    (lib,) = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    get_num_threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
    get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
    return get_num_threads()


_EXECUTE_CELL = runner._execute_cell
_LINEUP_METHOD = harness._lineup_method


def _probe_cell(payload, backend_handle=None):
    """A sweep cell whose metrics sidecar says which process ran it, on how many BLAS threads."""
    address, result, error, _ = _EXECUTE_CELL(payload, backend_handle)
    return address, result, error, {"pid": os.getpid(), "blas_threads": _blas_threads()}


def _probe_method(lineup, index):
    """A lineup helper's method, its record tagged with the helper's BLAS threads."""
    record = _LINEUP_METHOD(lineup, index)
    record.config["blas_threads"] = _blas_threads()
    return record


@pytest.mark.parametrize("caller", ["sweep", "lineup"])
def test_helpers_start_under_the_blas_cap(caller, monkeypatch, tmp_path):
    try:
        _blas_threads()
    except (ValueError, OSError, AttributeError):
        pytest.skip("NumPy does not bundle scipy-openblas here")
    for name in _BLAS_ENV:
        monkeypatch.delenv(name, raising=False)
    placement = Placement(monkeypatch)
    n_procs = 2  # --jobs 2, or a lineup on two usable cores
    if caller == "sweep":
        monkeypatch.setattr(runner, "_execute_cell", _probe_cell)
        spec = SweepSpec("blas", _smoke(n_train=120, n_test=40), grid(tau=[1, 4, 8]))
        report = run_sweep(spec, tmp_path, jobs=n_procs)
        assert report.ok
        readings = [report.store.metrics(address) for address in report.executed]
        helper = [r["blas_threads"] for r in readings if r["pid"] != os.getpid()]
    else:
        monkeypatch.setattr(harness, "_lineup_method", _probe_method)
        store = run_experiment(_smoke())
        helper = [record.config["blas_threads"] for record in store if "blas_threads" in record.config]
    assert placement.helper_claimed and helper
    assert set(helper) == {max(1, usable_cores() // n_procs)}
