"""Fault matrix for the sharded pool: kill a shard child at each protocol step.

Every parent-side command goes through one request path
(``ShardedBank._replies``), so a child that dies under any of them must
surface the same way: one ``RuntimeError`` naming the shard and the op the
connection was lost under — not a bare ``EOFError('')`` from whichever
``recv`` happened to be waiting.  A reply that arrives truncated or garbled
fails the same way, and so does the next command to a shard that was sent
half a request.  After each fault the pool must still close silently
(twice), leave no ``/dev/shm`` segment and no child behind (the shared
``leaks`` detector), and the :class:`BackendHandle` that held it must fork a
fresh pool whose trajectory equals a never-killed one.

Shards are forks of the parent, so the last tests check what each shard
puts back before it serves: its BLAS pool size, the parent's pipe ends,
the parent's resource tracker and the parent's telemetry sinks.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.distributed import BackendHandle
from repro.distributed.host import _BLAS_ENV, _set_blas_threads, usable_cores
from repro.distributed.sharded_bank import ShardedBank, _ShardServer
from repro.obs import MetricsRegistry, Profiler, Tracer

from tests.conftest import blas_threads, seeded_backend_kwargs

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.usefixtures("leaks")


def _trajectory(pool) -> list:
    first = pool.local_period(3)
    mean, _ = pool.mean_state()
    pool.broadcast_state(mean)
    return [first, mean, pool.local_period(2), pool.get_stacked_states()]


@pytest.fixture(scope="module")
def never_killed() -> list:
    with BackendHandle("sharded", n_shards=2) as handle:
        return _trajectory(handle.acquire(**seeded_backend_kwargs()))


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
        lambda pool, victim: pool.workers[2 * victim].get_parameters(), "worker_state",
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
    fresh = handle.acquire(**seeded_backend_kwargs())
    assert fresh.name == "sharded" and fresh is not pool and pool._closed
    for got, expected in zip(_trajectory(fresh), never_killed):
        np.testing.assert_array_equal(got, expected)
    pool.close()
    pool.close()  # closing a pool with a dead child, twice, stays silent


@pytest.mark.parametrize("victim", [0, 1])
@pytest.mark.parametrize("step", sorted(STEPS))
def test_child_killed_before_the_command(step, victim, never_killed):
    call, op = STEPS[step]
    with BackendHandle("sharded", n_shards=2) as handle:
        pool = handle.acquire(**seeded_backend_kwargs())
        pool.local_period(1)
        _kill(pool, victim)
        _assert_fails_and_recovers(handle, pool, call, victim, op, never_killed)


@pytest.mark.parametrize("victim", [0, 1])
def test_child_killed_during_local_period(victim, never_killed):
    # The reproduced bug: this used to raise EOFError('') with no shard, no op.
    with BackendHandle("sharded", n_shards=2) as handle:
        pool = handle.acquire(**seeded_backend_kwargs())
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


def _probe(monkeypatch, **ops) -> None:
    """Shard servers forked from here on also answer ``ops``: name -> ``fn(server, *args)``."""
    execute = _ShardServer.execute

    def probed(self, op, args):
        return ops[op](self, *args) if op in ops else execute(self, op, args)

    monkeypatch.setattr(_ShardServer, "execute", probed)


class TestBlasCap:
    """A shard sizes its BLAS pool to usable cores // shards threads, read back inside it."""

    @pytest.fixture
    def probed_shards(self, monkeypatch):
        """Unset ``*_NUM_THREADS``; forked shards answer ``blas_threads``."""
        try:
            blas_threads()
        except (ValueError, OSError, AttributeError):
            pytest.skip("NumPy does not bundle scipy-openblas here")
        for name in _BLAS_ENV:
            monkeypatch.delenv(name, raising=False)
        _probe(monkeypatch, blas_threads=lambda server: blas_threads())

    def test_usable_cores_is_the_affinity_mask_not_the_host(self, monkeypatch):
        _cores(monkeypatch, 3)
        assert usable_cores() == 3
        monkeypatch.delattr(os, "sched_getaffinity")  # a platform without the API
        assert usable_cores() == 64

    @pytest.mark.usefixtures("probed_shards")
    @pytest.mark.parametrize("n_cores, share", [(6, 3), (1, 1)])
    def test_a_shard_reads_its_share_of_the_cores(self, monkeypatch, n_cores, share):
        _cores(monkeypatch, n_cores)
        outside = _set_blas_threads(4)  # neither share: the shards must resize
        try:
            with BackendHandle("sharded", n_shards=2) as handle:
                pool = handle.acquire(**seeded_backend_kwargs())
                assert pool._each("blas_threads") == [share, share]
            assert blas_threads() == 4  # the parent's own pool is left alone
        finally:
            _set_blas_threads(outside)

    def test_a_shard_may_use_one_core_for_chunks(self, monkeypatch):
        # Its BLAS pool takes its share of the cores; it never steps chunk threads.
        _cores(monkeypatch, 6)
        _probe(monkeypatch, cores=lambda server: usable_cores())
        with BackendHandle("sharded", n_shards=2) as handle:
            pool = handle.acquire(**seeded_backend_kwargs())
            assert pool._each("cores") == [1, 1]
        assert usable_cores() == 6

    @pytest.mark.usefixtures("probed_shards")
    def test_an_exported_count_is_the_parents(self, monkeypatch):
        _cores(monkeypatch, 6)
        outside = _set_blas_threads(1)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "5")
        try:
            with BackendHandle("sharded", n_shards=2) as handle:
                pool = handle.acquire(**seeded_backend_kwargs())
                assert pool._each("blas_threads") == [1, 1]
        finally:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
            _set_blas_threads(outside)


def _broken_replies(monkeypatch) -> None:
    """Shard servers forked from here on answer ``fault(kind)`` with a broken frame.

    ``"garbled"``: a whole frame whose pickle is cut short.  ``"truncated"``:
    a header promising 64 bytes, two of them, and the shard exits.  Any other
    argument gets an ordinary reply.
    """
    serve = _ShardServer.serve
    _probe(monkeypatch, fault=lambda server, kind: kind)

    def breaking_serve(self, recv, send):
        conn = send.__self__

        def send_or_break(reply):
            kind = reply[1]
            if kind == "garbled":
                conn.send_bytes(pickle.dumps(("ok", None))[:-2])
            elif kind == "truncated":
                os.write(conn.fileno(), struct.pack("!i", 64) + b"\x80\x05")
                os._exit(0)
            else:
                send(reply)

        serve(self, recv, send_or_break)

    monkeypatch.setattr(_ShardServer, "serve", breaking_serve)


@pytest.mark.parametrize("victim", [0, 1])
@pytest.mark.parametrize(
    "kind, cause",
    [("garbled", "UnpicklingError"), ("truncated", "OSError"), ("request", "BrokenPipeError")],
)
def test_a_broken_reply_fails_like_a_lost_one(monkeypatch, kind, cause, victim):
    _broken_replies(monkeypatch)
    pool = ShardedBank(n_shards=2, **seeded_backend_kwargs())
    try:
        if kind == "request":
            # Half a request frame: the shard cannot unpickle it and dies, and
            # the next command to it names it.
            frame = pickle.dumps(("local_period", (2,)))
            pool._conns[victim].send_bytes(frame[: len(frame) // 2])
            pool._procs[victim].join(timeout=10)
            assert pool._procs[victim].exitcode == 1
            op, args, each = "local_period", (2,), None
        else:
            op, args, each = "fault", (), [(kind,) if shard == victim else (None,) for shard in range(2)]
        with pytest.raises(RuntimeError) as raised:
            list(pool._replies(op, *args, each=each))
        message = str(raised.value)
        assert message.startswith(f"shard process {victim} failed:\nconnection lost during {op!r} ({cause}(")
    finally:
        pool.close()
        pool.close()


def _gone(pid: int) -> bool:
    """No such process, or only its zombie is left."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


#: A fresh interpreter that opens a 2-shard pool over the shm plane.
_OWNER = """
import json, os
from multiprocessing import resource_tracker
from repro.data.synthetic import make_gaussian_blobs
from repro.distributed.sharded_bank import ShardedBank
from repro.models.mlp import MLP

pool = ShardedBank(
    lambda: MLP(4, 2, hidden_sizes=(4,), rng=0),
    [make_gaussian_blobs(n_samples=20, n_features=4, n_classes=2, rng=seed) for seed in range(4)],
    n_shards=2, batch_size=4,
)
pool.local_period(1)
"""

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")


def _run_owner(tail: str) -> subprocess.Popen:
    """Run ``_OWNER`` and then ``tail``; its stdout and stderr are pipes."""
    return subprocess.Popen(
        [sys.executable, "-c", _OWNER + textwrap.dedent(tail)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@needs_proc
def test_shards_exit_with_a_killed_parent():
    owner = _run_owner(
        """
        print(*(proc.pid for proc in pool._procs), flush=True)
        import time; time.sleep(120)
        """
    )
    shards = [int(pid) for pid in owner.stdout.readline().split()]
    try:
        assert len(shards) == 2
        owner.kill()
        owner.wait()
        deadline = time.monotonic() + 2.0
        while not all(_gone(pid) for pid in shards) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert all(_gone(pid) for pid in shards), "a shard outlived its SIGKILLed parent"
        # The parent's resource tracker unlinks the orphaned segments once the
        # shards are gone; it holds the stderr pipe until it is done.
        owner.communicate(timeout=30)
    finally:
        for pid in shards:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)


@needs_proc
def test_a_pool_adds_its_shards_and_no_tracker_per_shard():
    owner = _run_owner(
        """
        def children(pid):
            kids = []
            for entry in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{entry}/stat") as stat:
                        if int(stat.read().rsplit(")", 1)[1].split()[1]) == pid:
                            kids.append(int(entry))
                except OSError:
                    pass
            return kids

        shards = [proc.pid for proc in pool._procs]
        print(json.dumps({
            "shards": shards,
            "tracker": resource_tracker._resource_tracker._pid,
            "children": children(os.getpid()),
            "grandchildren": [kid for shard in shards for kid in children(shard)],
        }))
        pool.close()
        """
    )
    out, err = owner.communicate(timeout=120)
    assert owner.returncode == 0, err
    seen = json.loads(out)
    assert sorted(seen["children"]) == sorted([*seen["shards"], seen["tracker"]])
    assert seen["grandchildren"] == []
    assert "resource_tracker" not in err


def test_a_sharded_cli_run_warns_of_no_leaked_segments():
    run = subprocess.run(
        [
            sys.executable, "-m", "repro", "--config", "smoke", "--scale", "0.2",
            "--backend", "sharded", "--set", "backend_shards=2", "--set", "methods=('sync-sgd',)",
        ],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert "resource_tracker" not in run.stderr


def test_a_shard_records_nothing_into_the_parents_sinks(monkeypatch):
    with Tracer() as tracer, MetricsRegistry() as registry, Profiler() as profiler:

        def sinks() -> tuple:
            return len(tracer.events), registry.snapshot(), profiler.to_dict()

        def step_and_read(server) -> tuple:
            server.bank.local_period(2)  # emits bank_sgd.step spans
            return sinks()

        _probe(monkeypatch, step_and_read=step_and_read)
        at_fork = sinks()
        pool = ShardedBank(n_shards=2, **seeded_backend_kwargs())
        try:
            assert pool._each("step_and_read") == [at_fork, at_fork]
        finally:
            pool.close()


def test_a_shard_takes_the_default_sigterm_action():
    # A scheduler helper turns SIGTERM into KeyboardInterrupt; a shard it
    # forks must still die of the signal, as a fresh interpreter would.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        pool = ShardedBank(n_shards=2, **seeded_backend_kwargs())
    finally:
        signal.signal(signal.SIGTERM, previous)
    try:
        victim = pool._procs[0]
        victim.terminate()
        victim.join(timeout=10)
        assert victim.exitcode == -signal.SIGTERM
    finally:
        pool.close()
