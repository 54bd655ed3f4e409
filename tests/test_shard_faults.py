"""Fault matrix for the sharded pool: kill a shard child at each protocol step.

Every parent-side command goes through one request path
(``ShardedBank._replies``), so a child that dies under any of them must
surface the same way: one ``RuntimeError`` naming the shard and the op the
connection was lost under — not a bare ``EOFError('')`` from whichever
``recv`` happened to be waiting.  After each fault the pool must still close
silently (twice), leave no ``/dev/shm`` segment and no child behind (the
shared ``leaks`` detector), and the :class:`BackendHandle` that held it must
spawn a fresh pool whose trajectory equals a never-killed one.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.distributed import BackendHandle
from repro.distributed.sharded_bank import _BLAS_ENV, _blas_cap, usable_cores

from tests.conftest import seeded_backend_kwargs

pytestmark = pytest.mark.usefixtures("leaks")


def _trajectory(pool) -> list:
    first = pool.local_period(3)
    mean, _ = pool.mean_state()
    pool.broadcast_state(mean)
    return [first, mean, pool.local_period(2), pool.get_stacked_states()]


@pytest.fixture(scope="module")
def never_killed() -> list:
    with BackendHandle("sharded", n_shards=2) as handle:
        return _trajectory(handle.acquire(**seeded_backend_kwargs())[1])


def _kill(pool, victim: int) -> None:
    proc = pool._procs[victim]
    proc.kill()
    proc.join(timeout=10)
    assert not proc.is_alive()


def _kill_while_waiting(pool, victim: int) -> threading.Timer:
    """Freeze the victim now, kill it once the parent is blocked on its reply.

    A stopped child accepts the command into its pipe but never answers, so
    the parent is certainly waiting in ``recv`` when the kill lands — "during
    the command" without racing a real computation.
    """
    proc = pool._procs[victim]
    os.kill(proc.pid, signal.SIGSTOP)
    timer = threading.Timer(0.2, proc.kill)
    timer.start()
    return timer


#: step -> (the call that must fail, the wire op its error names).  Pools here
#: are m = 4 on two shards: victim 0 owns workers 0-1, victim 1 owns 2-3.
STEPS = {
    "local_period": (lambda pool, victim: pool.local_period(2), "local_period"),
    "mean_state": (lambda pool, victim: pool.mean_state(), "sync_states"),
    "get_stacked_states": (lambda pool, victim: pool.get_stacked_states(), "sync_states"),
    "broadcast_state": (
        lambda pool, victim: pool.broadcast_state(pool.initial_state()), "broadcast_shm",
    ),
    "get_parameters": (
        lambda pool, victim: pool.workers[2 * victim].get_parameters(), "get_worker_flat",
    ),
    "rebuild": (
        lambda pool, victim: pool.rebuild(n_shards=2, **seeded_backend_kwargs()), "rebuild",
    ),
}


def _assert_fails_and_recovers(handle, pool, call, victim, op, never_killed) -> None:
    with pytest.raises(RuntimeError) as raised:
        call(pool, victim)
    message = str(raised.value)
    assert message.startswith(f"shard process {victim} failed:\nconnection lost during {op!r}")
    # The handle retires the broken pool (its rebuild fails the same way)
    # and the run after the fault is a normal one.
    name, fresh = handle.acquire(**seeded_backend_kwargs())
    assert name == "sharded" and fresh is not pool and pool._closed
    for got, expected in zip(_trajectory(fresh), never_killed):
        np.testing.assert_array_equal(got, expected)
    pool.close()
    pool.close()  # closing a pool with a dead child, twice, stays silent


@pytest.mark.parametrize("victim", [0, 1])
@pytest.mark.parametrize("step", sorted(STEPS))
def test_child_killed_before_the_command(step, victim, never_killed):
    call, op = STEPS[step]
    with BackendHandle("sharded", n_shards=2) as handle:
        _, pool = handle.acquire(**seeded_backend_kwargs())
        pool.local_period(1)
        _kill(pool, victim)
        _assert_fails_and_recovers(handle, pool, call, victim, op, never_killed)


@pytest.mark.parametrize("victim", [0, 1])
def test_child_killed_during_local_period(victim, never_killed):
    # The reproduced bug: this used to raise EOFError('') with no shard, no op.
    with BackendHandle("sharded", n_shards=2) as handle:
        _, pool = handle.acquire(**seeded_backend_kwargs())
        timer = _kill_while_waiting(pool, victim)
        try:
            _assert_fails_and_recovers(
                handle, pool, STEPS["local_period"][0], victim, "local_period", never_killed
            )
        finally:
            timer.join()


def _cores(monkeypatch, n: int) -> None:
    """This process may run on ``n`` CPUs of a 64-CPU host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestBlasCap:
    """Shard children inherit a BLAS pool of usable cores // shards threads."""

    def test_usable_cores_is_the_affinity_mask_not_the_host(self, monkeypatch):
        _cores(monkeypatch, 3)
        assert usable_cores() == 3
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without the API
        assert usable_cores() == 64

    def test_sets_unset_variables_and_restores(self, monkeypatch):
        for name in _BLAS_ENV:
            monkeypatch.delenv(name, raising=False)
        _cores(monkeypatch, 8)
        with _blas_cap(2):
            assert [os.environ[name] for name in _BLAS_ENV] == ["4"] * 3
        assert not any(name in os.environ for name in _BLAS_ENV)

    def test_never_below_one_thread(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        _cores(monkeypatch, 2)
        with _blas_cap(3):
            assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_an_exported_value_wins_and_survives(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "6")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        _cores(monkeypatch, 8)
        with _blas_cap(4):
            assert os.environ["OPENBLAS_NUM_THREADS"] == "6"
            assert os.environ["MKL_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "6"
        assert "MKL_NUM_THREADS" not in os.environ

    def test_restores_when_the_spawn_raises(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with pytest.raises(OSError), _blas_cap(2):
            raise OSError("spawn failed")
        assert "OMP_NUM_THREADS" not in os.environ

    def test_shard_children_see_the_cap(self, monkeypatch):
        for name in _BLAS_ENV:
            monkeypatch.delenv(name, raising=False)
        _cores(monkeypatch, 6)
        with BackendHandle("sharded", n_shards=2) as handle:
            _, pool = handle.acquire(**seeded_backend_kwargs())
            assert not any(name in os.environ for name in _BLAS_ENV)
            for proc in pool._procs:
                with open(f"/proc/{proc.pid}/environ", "rb") as environ:
                    assert b"OPENBLAS_NUM_THREADS=3" in environ.read().split(b"\0")
