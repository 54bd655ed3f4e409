"""The in-process chunk carrier on threads, and the rule that picks ``vectorized``'s chunks.

Byte-identity on threads is pinned by the equivalence matrix's
``vectorized-threads`` column and by
``test_sharded_bank.py::TestOneChunkComposite``; here are the rule itself
(which geometries thread at two cores), the L2 reading behind it, and the
carrier's lifecycle: no chunk thread outlives ``close()`` or a Ctrl-C, a
chunk's error surfaces as a serial loop would raise it, and the BLAS pool
has one thread per chunk thread while they run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api.registries import BACKENDS, MODELS
from repro.api.registry import filter_kwargs
from repro.distributed import BackendHandle, LoopWorkers, SimulatedCluster, WorkerBackend, WorkerBank, host
from repro.distributed.host import _BLAS_ENV, _set_blas_threads, l2_bytes, usable_cores
from repro.distributed.worker_bank import vectorized_chunks
from repro.experiments import parallel
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator
from tests.conftest import (
    blas_threads,
    chunk_rule,
    chunk_threads_alive,
    seeded_backend_kwargs,
)

#: No test here may leave a chunk thread (or a child, or a segment) behind.
pytestmark = pytest.mark.usefixtures("leaks")


# -- the rule ------------------------------------------------------------------


@pytest.mark.parametrize(
    "workload, model, n_features, hidden, m, k",
    [
        ("cnn_train", "vgg_lite_cnn", 192, (), 8, 1),
        ("lineup_eval", "mlp", 64, (128,), 4, 1),
        ("bench_family", "mlp", 16, (16,), 6, 1),
        ("avg_bound", "mlp", 192, (512,), 16, 2),
    ],
)
def test_rule_at_two_cores_and_2_mib_of_l2(monkeypatch, workload, model, n_features, hidden, m, k):
    # Only avg_bound's chunks (8 workers x 103,946 float64 parameters, 6.7 MB)
    # fill a core's L2; the conv net's and the small MLPs' stay one bank.
    monkeypatch.setattr(host, "usable_cores", lambda: 2)
    monkeypatch.setattr(host, "l2_bytes", lambda: 2 << 20)
    factory = MODELS.get(model)
    template = factory(**filter_kwargs(factory, dict(n_features=n_features, n_classes=10, hidden_sizes=hidden, rng=0)))
    assert vectorized_chunks(m, template.num_parameters() * 8) == k, workload


def test_rule_needs_two_cores_and_a_readable_l2(monkeypatch):
    monkeypatch.setattr(host, "l2_bytes", lambda: 2 << 20)
    big = 16 << 20  # one worker's row alone is 8x the L2
    monkeypatch.setattr(host, "usable_cores", lambda: 1)
    assert vectorized_chunks(16, big) == 1
    monkeypatch.setattr(host, "usable_cores", lambda: 4)
    assert vectorized_chunks(16, big) == 4
    assert vectorized_chunks(3, big) == 3  # capped at m
    monkeypatch.setattr(host, "l2_bytes", lambda: None)
    assert vectorized_chunks(16, big) == 1


def test_l2_is_read_from_sysfs(monkeypatch, tmp_path):
    for index, (level, size) in enumerate([("1", "48K"), ("2", "2048K"), ("3", "300M")]):
        (tmp_path / f"index{index}").mkdir()
        (tmp_path / f"index{index}" / "level").write_text(f"{level}\n")
        (tmp_path / f"index{index}" / "size").write_text(f"{size}\n")
    monkeypatch.setattr(host, "_CACHE_DIR", str(tmp_path))
    l2_bytes.cache_clear()
    try:
        assert l2_bytes() == 2 << 20
        monkeypatch.setattr(host, "_CACHE_DIR", str(tmp_path / "missing"))
        l2_bytes.cache_clear()
        assert l2_bytes() is None
    finally:
        monkeypatch.undo()
        l2_bytes.cache_clear()


def test_vectorized_is_one_bank_below_the_rule_and_chunks_above():
    with chunk_rule(threads=False):
        one = BACKENDS.build("vectorized", **seeded_backend_kwargs())
    with chunk_rule(threads=True):
        two = BACKENDS.build("vectorized", **seeded_backend_kwargs())
    try:
        # The same class at every chunk count; only the bounds and the threads differ.
        assert type(one) is LoopWorkers and one.name == "vectorized" and one.bounds == [(0, 4)]
        assert (len(one.banks), one._threads) == (1, 1)
        assert type(one.banks[0]) is WorkerBank and not isinstance(one.banks[0], WorkerBackend)
        assert type(two) is LoopWorkers and two.name == "vectorized" and two.bounds == [(0, 2), (2, 4)]
        assert two.materialize(two.worker_state(3), 3) is two.banks[1].model
    finally:
        two.close()


def test_items_and_helpers_read_their_share_of_the_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(parallel, "_HELPER_DELAY_S", 0.0)
    readings = list(parallel.run_items(4, lambda index: usable_cores(), 2))
    assert readings == [1, 1, 1, 1]  # lineup items and sweep cells never start chunk threads
    assert usable_cores() == 2


# -- the carrier's lifecycle -----------------------------------------------------


def _threaded(n_workers: int = 4, n_chunks: int = 2) -> LoopWorkers:
    with chunk_rule(threads=True):
        return LoopWorkers(n_chunks=n_chunks, **seeded_backend_kwargs(n_workers))


def test_the_pool_starts_on_the_first_concurrent_call_and_close_joins_it():
    backend = _threaded()
    assert not chunk_threads_alive()
    backend.local_period(2)
    assert len(chunk_threads_alive()) == 1  # this thread steps chunk 0
    backend.close()
    backend.close()
    assert not chunk_threads_alive()


def test_a_cluster_on_a_callers_handle_joins_its_chunk_threads():
    runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=4, rng=0)
    kwargs = seeded_backend_kwargs()
    with BackendHandle("vectorized") as handle, chunk_rule(threads=True):
        cluster = SimulatedCluster(
            model_fn=kwargs["model_fn"], dataset=kwargs["shards"][0], runtime=runtime, n_workers=4,
            batch_size=4, lr=0.05, backend=handle,
        )
        cluster.run_round(2)
        assert chunk_threads_alive()
        cluster.close()
        assert not chunk_threads_alive()


def test_no_chunk_call_runs_on_after_ctrl_c_and_close_leaves_no_thread():
    backend = _threaded()
    backend.local_period(1)
    finished = []
    second = backend.banks[1].local_period

    def slow(tau):
        time.sleep(0.2)
        finished.append(tau)
        return second(tau)

    def interrupted(tau):
        raise KeyboardInterrupt

    backend.banks[0].local_period, backend.banks[1].local_period = interrupted, slow
    with pytest.raises(KeyboardInterrupt):
        backend.local_period(1)
    assert finished == [1]  # the other chunk's call was over before the interrupt surfaced
    backend.close()
    assert not chunk_threads_alive()


def test_the_first_failing_chunk_in_chunk_order_raises():
    # Three chunks on two threads: this thread steps chunks 0 and 2, the pool chunk 1.
    backend = _threaded(n_workers=6, n_chunks=3)
    try:
        ran = []

        def fails(name):
            def local_period(tau):
                ran.append(name)
                raise ValueError(name)
            return local_period

        def ok(tau):
            ran.append("chunk 0")
            return backend.banks[0].bank.slab[:, 0]

        backend.banks[0].local_period = ok
        backend.banks[1].local_period = fails("chunk 1")
        backend.banks[2].local_period = fails("chunk 2")
        with pytest.raises(ValueError, match="chunk 1"):
            backend.local_period(1)
        assert sorted(ran) == ["chunk 0", "chunk 1", "chunk 2"]
    finally:
        backend.close()


def test_each_chunk_thread_runs_on_its_own_cpu_and_the_caller_gets_its_cpus_back():
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip("needs two CPUs and an affinity API")
    backend = _threaded()
    try:
        seen = {}

        def recorded(index, step):
            def local_period(tau):
                seen[index] = os.sched_getaffinity(0)
                return step(tau)
            return local_period

        for index, bank in enumerate(backend.banks):
            bank.local_period = recorded(index, bank.local_period)
        backend.local_period(1)
        assert seen == {0: {cpus[0]}, 1: {cpus[1]}}
        assert sorted(os.sched_getaffinity(0)) == cpus
    finally:
        backend.close()


def test_the_blas_pool_has_one_thread_per_chunk_thread_while_they_run(monkeypatch):
    try:
        blas_threads()
    except (ValueError, OSError, AttributeError):
        pytest.skip("NumPy does not bundle scipy-openblas here")
    for name in _BLAS_ENV:
        monkeypatch.delenv(name, raising=False)
    backend = _threaded()
    readings = []
    step = backend.banks[0].local_period
    backend.banks[0].local_period = lambda tau: readings.append(blas_threads()) or step(tau)
    outside = _set_blas_threads(2)
    try:
        backend.local_period(1)
        assert (readings, blas_threads()) == ([1], 2)
    finally:
        _set_blas_threads(outside)
        backend.close()


def test_a_loop_below_l2_never_starts_a_thread():
    with chunk_rule(threads=False):
        loop = BACKENDS.build("loop", **seeded_backend_kwargs())
    loop.local_period(1)
    assert loop._threads == 1 and not chunk_threads_alive()
