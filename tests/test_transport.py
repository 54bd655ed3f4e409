"""Acceptance suite for the sharded pool's two data planes.

The contract: the shared-memory plane moves the ``(m, P)`` state bank so the
shard pipes carry only O(1) control tuples, while every byte of the
trajectory stays identical to the pipe fallback that runs when allocation
fails (and hence to vectorized/loop — see the equivalence matrix).  This
file pins the plane's own lifecycle (create/attach/spec, close-then-unlink,
zero ``/dev/shm`` orphans even after a child dies — every test here runs
under the shared ``leaks`` detector), the pipe fallback and its recovery,
the overlapped ``mean_state`` reduction's bit-equality, and the byte-traffic
counters that prove the pipes went quiet.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext

import numpy as np
import pytest

from repro.distributed.sharded_bank import ShardedBank
from repro.distributed.transport import ShmStatePlane
from repro.models.mlp import MLP
from repro.obs.metrics import MetricsRegistry

from tests.conftest import (
    EQUIVALENCE_FEATURES,
    _registry_model_fn,
    pipe_plane,
    seeded_backend_kwargs,
)
from tests.test_sharded_bank import _cluster

F, C = EQUIVALENCE_FEATURES, 4


pytestmark = pytest.mark.usefixtures("leaks")


def _cluster_on_plane(transport: str, n_workers: int):
    """An mlp cluster whose pool runs on ``transport`` ("shm" or "pipe")."""
    with pipe_plane() if transport == "pipe" else nullcontext():
        return _cluster("sharded", _registry_model_fn("mlp"), n_workers)


# -- the state plane itself --------------------------------------------------


class TestShmStatePlane:
    def test_create_spec_attach_roundtrip(self):
        owner = ShmStatePlane.create(n_workers=3, n_params=5, state_dtype=np.float64)
        try:
            owner.states[:] = np.arange(15.0).reshape(3, 5)
            owner.bcast[:] = np.full(5, 7.5)
            reader = ShmStatePlane.attach(owner.spec())
            try:
                assert not reader.owner and owner.owner
                np.testing.assert_array_equal(
                    reader.states, np.arange(15.0).reshape(3, 5)
                )
                np.testing.assert_array_equal(reader.bcast, np.full(5, 7.5))
                # Writes travel the other way too — it is one mapping.
                reader.states[1, :] = -1.0
                assert owner.states[1, 0] == -1.0
            finally:
                reader.close()
        finally:
            owner.destroy()

    def test_destroy_unlinks_and_is_idempotent(self, leaks):
        plane = ShmStatePlane.create(n_workers=2, n_params=8, state_dtype=np.float32)
        spec = plane.spec()
        assert len(leaks.segments()) == 2  # states + bcast
        plane.destroy()
        plane.destroy()  # idempotent
        assert not leaks.segments()
        with pytest.raises(FileNotFoundError):
            ShmStatePlane.attach(spec)

    def test_attach_failure_does_not_leak_partial_segments(self, leaks):
        plane = ShmStatePlane.create(n_workers=2, n_params=8, state_dtype=np.float64)
        try:
            before = leaks.segments()
            bad = dict(plane.spec())
            bad["segments"] = {**bad["segments"], "bcast": "psm_does_not_exist"}
            with pytest.raises(FileNotFoundError):
                ShmStatePlane.attach(bad)
            assert leaks.segments() == before  # the good attach was closed
        finally:
            plane.destroy()


# -- the backend over the plane ----------------------------------------------


class TestBackendOverShm:
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_mean_state_bit_equals_stacked_mean(self, transport):
        cluster = _cluster_on_plane(transport, 5)
        try:
            backend = cluster.backend
            assert backend.transport == transport
            backend.local_period(3)
            expected = backend.get_stacked_states().mean(axis=0)
            averaged, nbytes = backend.mean_state()
            np.testing.assert_array_equal(averaged, expected)
            assert nbytes == backend.get_stacked_states().nbytes
        finally:
            cluster.close()

    def test_shm_silences_the_pipes_and_pipe_never_touches_shm(self):
        traffic = {}
        for transport in ("pipe", "shm"):
            cluster = _cluster_on_plane(transport, 4)
            try:
                with MetricsRegistry() as metrics:
                    cluster.backend.local_period(2)
                    cluster.average_models()
                    cluster.average_models()
                snapshot = metrics.snapshot()["counters"]
                histograms = metrics.snapshot()["histograms"]
                traffic[transport] = (
                    snapshot["bytes_over_pipe"], snapshot["bytes_via_shm"]
                )
                assert histograms["shard_gather_seconds"]["count"] > 0
            finally:
                cluster.close()
        pipe_bytes, shm_zero = traffic["pipe"]
        assert pipe_bytes > 0 and shm_zero == 0
        zero_pipe, shm_bytes = traffic["shm"]
        assert zero_pipe == 0 and shm_bytes > 0

    def test_full_lifecycle_leaves_no_segments(self, leaks):
        cluster = _cluster(
            "sharded", lambda: MLP(F, C, hidden_sizes=(8,), batch_norm=True, rng=1), 4
        )
        try:
            assert len(leaks.segments()) == 2  # the plane is really live
            cluster.backend.local_period(2)
            cluster.average_models()
            cluster.backend.worker_buffers(2)  # buffers ride the pipe, not a segment
        finally:
            cluster.close()
        assert not leaks.segments()

    def test_killed_child_still_tears_down_cleanly(self, leaks):
        # Regression: _shutdown_pool must survive EOFError/BrokenPipeError on
        # a dead child's pipe, close() must stay idempotent, and the parent —
        # sole owner of the segments — must still unlink them all.
        cluster = _cluster("sharded", _registry_model_fn("mlp"), 4)
        backend = cluster.backend
        backend.local_period(1)
        victim = backend._procs[0]
        victim.terminate()
        victim.join(timeout=10)
        cluster.close()
        cluster.close()  # double close after the crash: must be a no-op
        assert backend._closed
        assert not leaks.segments()

    def test_rebuild_reallocates_plane_and_can_switch_transport(self, leaks):
        model_fn = _registry_model_fn("mlp")
        shards = _cluster("sharded", model_fn, 4)
        backend = shards.backend
        try:
            assert backend.transport == "shm"
            first_spec = backend._plane.spec()
            # shm → pipe: the old segments must be gone afterwards.
            with pipe_plane():
                backend.rebuild(model_fn, [None] * 4, n_shards=2)
            assert backend.transport == "pipe" and backend._plane is None
            with pytest.raises(FileNotFoundError):
                ShmStatePlane.attach(first_spec)
            # pipe → shm: a fresh plane with the new geometry.
            backend.rebuild(model_fn, [None] * 6, n_shards=2)
            assert backend.transport == "shm"
            assert backend._plane.states.shape[0] == 6
            assert len(backend.get_stacked_states()) == 6
        finally:
            shards.close()
        assert not leaks.segments()

    def test_allocation_failure_falls_back_to_pipes_and_recovers(self):
        # A full /dev/shm (ENOSPC) at construction and again at rebuild: the
        # run goes on over the pipes with the vectorized bank's bytes, and a
        # later rebuild with allocation working again returns to the plane.
        from repro.distributed.worker_bank import LoopWorkers

        with pipe_plane():
            sharded = ShardedBank(**seeded_backend_kwargs(), n_shards=2)
        try:
            for rebuilt in (False, True):
                if rebuilt:
                    with pipe_plane():
                        sharded.rebuild(**seeded_backend_kwargs(), n_shards=2)
                assert sharded.transport == "pipe" and sharded._plane is None
                vectorized = LoopWorkers(n_chunks=1, **seeded_backend_kwargs())
                with MetricsRegistry() as metrics:
                    np.testing.assert_array_equal(
                        vectorized.local_period(3), sharded.local_period(3)
                    )
                    averaged, _ = sharded.mean_state()
                np.testing.assert_array_equal(averaged, vectorized.mean_state()[0])
                counters = metrics.snapshot()["counters"]
                assert counters["bytes_over_pipe"] > 0 and counters["bytes_via_shm"] == 0
            sharded.rebuild(**seeded_backend_kwargs(), n_shards=2)
            assert sharded.transport == "shm" and sharded._plane is not None
            assert len(sharded.get_stacked_states()) == 4
        finally:
            sharded.close()

    def test_finalizer_of_an_abandoned_pool_unlinks_the_current_plane(self, leaks):
        # The finalizer captures the plane, so it has to be re-armed whenever
        # the plane changes: abandon a pool *after* a rebuild and the
        # segments that must go are the rebuilt ones.
        pool = ShardedBank(**seeded_backend_kwargs(), n_shards=2)
        first = leaks.segments()
        pool.rebuild(**seeded_backend_kwargs(), n_shards=2)
        assert len(leaks.segments()) == 2 and not leaks.segments() & first
        del pool
        gc.collect()  # the worker views point back at the backend: a cycle
        assert not leaks.segments() and not leaks.children()
