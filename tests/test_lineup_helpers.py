"""One process-parallel mechanism: items on the parent plus forked helpers.

``repro.experiments.parallel.run_items`` runs a list from the front on the
parent; helpers forked before the parent's first item wait a fixed delay and
then claim items from the back.  ``run_experiment`` uses it with a lineup's
methods as items, ``SweepRunner`` with a campaign's cells; the parent and
every helper call the same ``run(index)``.  Every item is a pure function of
the parent's state at the fork, so the saved bytes must equal the serial
run's whoever ran which item.  :class:`Placement` forces the placement: the
helper claims at once, and the parent holds its second method until the
helper has claimed the last item.  Telemetry is no serial rule: a helper
records its item's emissions and the parent replays them in item order, so
a trace is the serial trace too.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.api.registries import COMM_SCHEDULES
from repro.core.schedules import FixedCommunicationSchedule
from repro.distributed.host import _BLAS_ENV, _set_blas_threads, usable_cores
from repro.distributed.sharded_bank import ShardedBank
from repro.experiments import harness, parallel
from repro.experiments.cli import main
from repro.experiments.configs import make_config
from repro.experiments.harness import MethodSpec, run_experiment
from repro.obs import Tracer, strip_wall_fields
from repro.sweep import SweepSpec, grid, run_sweep, runner
from tests.conftest import Placement, blas_threads

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


def _traced(fn, *args):
    """``fn(*args)`` under a tracer: its result (or the error it raised) and the stripped trace."""
    with Tracer() as tracer:
        try:
            result = fn(*args)
        except Exception as err:  # noqa: BLE001 - compared by the caller
            result = err
    return result, strip_wall_fields(tracer.events)


def test_a_killed_helper_costs_time_not_bytes(monkeypatch, leaks):
    # The killed helper left no log, so its method is traced once: live, on the parent.
    config = _smoke()
    serial, serial_trace = _traced(_serially, run_experiment, config)
    placement = Placement(monkeypatch, kill=True)
    store, trace = _traced(run_experiment, config)
    assert _json(store) == _json(serial) and trace == serial_trace
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
    serial, serial_trace = _traced(_serially, run_experiment, config)
    assert isinstance(serial, ValueError)
    placement = Placement(monkeypatch)
    error, trace = _traced(run_experiment, config)
    assert type(error) is type(serial) and str(error) == str(serial)
    # The raising helper left no log: sync-sgd is traced once, live on the parent.
    assert trace == serial_trace
    assert placement.helper_claimed  # the helper took sync-sgd, raised, and left it
    assert placement.parent_ran == ["pasgd-tau8", "pasgd-tau4", "sync-sgd"]


#: The config of each serial rule.
SERIAL_RULES = {
    "one method": lambda: _smoke(methods=("sync-sgd",)),
    "sharded": lambda: _smoke(backend="sharded"),
}


@pytest.mark.parametrize("rule", sorted(SERIAL_RULES))
def test_no_helper_starts_when_a_serial_rule_holds(rule, monkeypatch):
    config = SERIAL_RULES[rule]()
    placement = Placement(monkeypatch)
    store = run_experiment(config)
    assert placement.helpers == [] and len(placement.parent_ran) == len(store)


#: Lineups no JSON payload could carry; a helper runs the parent's own objects.
UNSERIALIZABLE_LINEUPS = {
    "a hand-built MethodSpec": lambda: (
        _smoke(),
        ["sync-sgd", "pasgd-tau8", MethodSpec("tau3", lambda: FixedCommunicationSchedule(3))],
    ),
    # to_dict stores the list, from_dict rebuilds a tuple: not the same config.
    "a config JSON does not round-trip": lambda: (_smoke(hidden_sizes=[16]), None),
}


@pytest.mark.parametrize("lineup", sorted(UNSERIALIZABLE_LINEUPS))
def test_helpers_need_no_json_payload(lineup, monkeypatch):
    config, methods = UNSERIALIZABLE_LINEUPS[lineup]()
    serial = _json(_serially(run_experiment, config, methods=methods))
    placement = Placement(monkeypatch)
    store = run_experiment(config, methods=methods)
    assert len(placement.helpers) == 1 and placement.helper_claimed
    assert len(placement.parent_ran) < len(store)  # the helper ran the last method
    assert _json(store) == serial


def _late_starts_in_a_lineup(index: int) -> int:
    """How many times a lineup run as scheduler item ``index`` started helpers."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        starts = []
        fork_helpers = parallel._fork_helpers
        monkeypatch.setattr(parallel, "_fork_helpers", lambda *args: starts.append(args) or fork_helpers(*args))
        monkeypatch.setattr(harness, "usable_cores", lambda: 2)
        run_experiment(_smoke())
    return len(starts)


def test_no_helper_starts_inside_a_pool_worker(monkeypatch):
    # A ``--jobs 2`` sweep cell's lineup runs in exactly this: an item of a
    # scheduler on two processes, on the parent or on a helper.
    placement = Placement(monkeypatch)
    lineups = parallel.run_items(3, _late_starts_in_a_lineup, 2)
    assert list(lineups) == [0, 0, 0]
    assert placement.helper_claimed  # the helper ran a lineup too


class _DoubledTau(FixedCommunicationSchedule):
    """``"fixed"`` overwritten at run time, as a script's ``__main__`` may do."""

    def __init__(self, tau: int):
        super().__init__(2 * tau)


def test_a_helper_sees_a_component_registered_at_run_time(monkeypatch):
    # A forked helper has the parent's registries, whatever registered what.
    config = _smoke(methods=("sync-sgd", "pasgd-tau8", "pasgd-tau4"))
    builtin = COMM_SCHEDULES.get("fixed")
    COMM_SCHEDULES.register("fixed", _DoubledTau, overwrite=True)
    try:
        serial = _json(_serially(run_experiment, config))
        placement = Placement(monkeypatch)
        assert _json(run_experiment(config)) == serial
    finally:
        COMM_SCHEDULES.register("fixed", builtin, overwrite=True)
    assert len(placement.helpers) == 1 and placement.helper_claimed
    assert placement.parent_ran == ["pasgd-tau2", "pasgd-tau16"]
    assert serial != _json(_serially(run_experiment, config))  # the override did act


def test_helpers_fork_from_a_process_with_one_thread(monkeypatch):
    placement = Placement(monkeypatch)
    run_experiment(_smoke())
    assert placement.helper_claimed
    assert [helpers.threads for helpers in placement.helpers] == [1]


def test_a_lineup_shorter_than_the_delay_runs_on_the_parent(monkeypatch, leaks):
    forks, parent_ran = [], []
    fork_helpers, run_method = parallel._fork_helpers, harness.run_method
    pid = os.getpid()

    def recorded_run_method(config, method, *args, **kwargs):
        if os.getpid() == pid:
            parent_ran.append(method.label)
        return run_method(config, method, *args, **kwargs)

    monkeypatch.setattr(harness, "usable_cores", lambda: 2)
    monkeypatch.setattr(harness, "run_method", recorded_run_method)
    monkeypatch.setattr(parallel, "_fork_helpers", lambda *args: forks.append(args) or fork_helpers(*args))
    store = run_experiment(_smoke())  # ≈ 15-25 ms against a 0.1 s delay
    assert len(forks) == 1 and len(parent_ran) == len(store) == 3
    assert not leaks.children(grace=0) and not leaks.segments()


def test_helpers_fork_beside_a_live_sharded_pool(monkeypatch, leaks):
    # A caller's handle keeps its sharded pool live between runs; a vectorized
    # lineup forks a helper beside it, and the next sharded run reuses it.
    sharded_config = _smoke(backend="sharded")
    serial = _serially(run_experiment, _smoke())
    with sharded_config.backend_handle() as handle:
        sharded = run_experiment(sharded_config, backend_handle=handle)
        pool = handle._pool
        placement = Placement(monkeypatch)
        live_at_fork, fork_helpers = [], parallel._fork_helpers
        monkeypatch.setattr(
            parallel, "_fork_helpers", lambda *args: live_at_fork.append(not pool._closed) or fork_helpers(*args),
        )
        assert _json(run_experiment(_smoke())) == _json(serial)
        assert live_at_fork == [True] and placement.helper_claimed
        assert _json(run_experiment(sharded_config, backend_handle=handle)) == _json(sharded)
        assert handle._pool is pool  # rebuilt in place: the helper never reached it
    assert not leaks.segments()


def test_a_sharded_sweep_helper_never_reaches_the_parents_pool(monkeypatch, tmp_path, leaks):
    # The parent's cells share one handle and one pool; the helper's cell
    # opens, and closes, a handle of its own.
    spec = SweepSpec("sharded", _smoke(backend="sharded", n_train=120, n_test=40), grid(tau=[1, 4, 8]))
    serial = run_sweep(spec, tmp_path / "serial")
    placement = Placement(monkeypatch)
    parent_pools = []
    pid, init = os.getpid(), ShardedBank.__init__

    def recorded_init(self, *args, **kwargs):
        if os.getpid() == pid:
            parent_pools.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ShardedBank, "__init__", recorded_init)
    report = run_sweep(spec, tmp_path / "forked", jobs=2)
    assert report.ok and report.executed == serial.executed
    assert len(placement.helpers) == 1 and placement.helper_claimed  # the helper took the last cell
    assert len(parent_pools) == 1
    assert _files(tmp_path / "forked" / "cells") == _files(tmp_path / "serial" / "cells")
    assert not leaks.children(grace=0) and not leaks.segments()


def _files(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}


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


_EXECUTE_CELL = runner._execute_cell


def _probe_cell(cell, collect_metrics, backend_handle=None):
    """A sweep cell whose metrics sidecar says which process ran it, on how many BLAS threads."""
    result, error, _ = _EXECUTE_CELL(cell, collect_metrics, backend_handle)
    return result, error, {"pid": os.getpid(), "blas_threads": blas_threads()}


@pytest.mark.parametrize("caller", ["sweep", "lineup"])
def test_helpers_start_under_the_blas_cap(caller, monkeypatch, tmp_path):
    try:
        blas_threads()
    except (ValueError, OSError, AttributeError):
        pytest.skip("NumPy does not bundle scipy-openblas here")
    for name in _BLAS_ENV:
        monkeypatch.delenv(name, raising=False)
    n_procs = 2  # --jobs 2, or a lineup on two usable cores
    share = max(1, usable_cores() // n_procs)
    outside = _set_blas_threads(share + 1)  # a pool the list must cap, then restore
    try:
        placement = Placement(monkeypatch)
        if caller == "sweep":
            monkeypatch.setattr(runner, "_execute_cell", _probe_cell)
            spec = SweepSpec("blas", _smoke(n_train=120, n_test=40), grid(tau=[1, 4, 8]))
            report = run_sweep(spec, tmp_path, jobs=n_procs)
            assert report.ok
            readings = [report.store.metrics(address) for address in report.executed]
        else:
            run_method = harness.run_method

            def probed(*args, **kwargs):
                record = run_method(*args, **kwargs)
                record.config["probe"] = {"pid": os.getpid(), "blas_threads": blas_threads()}
                return record

            monkeypatch.setattr(harness, "run_method", probed)
            readings = [record.config["probe"] for record in run_experiment(_smoke())]
        after = blas_threads()
    finally:
        _set_blas_threads(outside)
    helper = {r["blas_threads"] for r in readings if r["pid"] != os.getpid()}
    parent = {r["blas_threads"] for r in readings if r["pid"] == os.getpid()}
    assert placement.helper_claimed
    assert helper == parent == {share}
    assert after == share + 1
