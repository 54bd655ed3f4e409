"""Acceptance suite for the zero-copy shared-memory shard transport.

The PR contract: ``shard_transport="shm"`` moves the ``(m, P)`` state bank
onto a POSIX shared-memory plane so the shard pipes carry only O(1) control
tuples, while every byte of the trajectory stays identical to the Pipe
transport (and hence to vectorized/loop — see the equivalence matrix).
This file pins the plane's own lifecycle (create/attach/spec,
close-then-unlink, zero ``/dev/shm`` orphans even after a child dies — every
test here runs under the shared ``leaks`` detector), the pipe fallback when
allocation fails, the overlapped ``mean_state`` reduction's bit-equality,
the byte-traffic counters that prove the pipes went quiet, the threaded
in-process fallback, and the config/CLI/builder wiring of the transport knob.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.distributed.sharded_bank import ShardedBank, _InprocConn
from repro.distributed.transport import ShmStatePlane, resolve_transport, shm_available
from repro.models.mlp import MLP
from repro.obs.metrics import MetricsRegistry

from tests.conftest import (
    EQUIVALENCE_FEATURES,
    _registry_model_fn,
    daemonic_parent,
    seeded_backend_kwargs,
)
from tests.test_sharded_bank import _cluster

F, C = EQUIVALENCE_FEATURES, 4


pytestmark = [
    pytest.mark.skipif(
        not shm_available(), reason="interpreter lacks multiprocessing.shared_memory"
    ),
    pytest.mark.usefixtures("leaks"),
]


# -- transport resolution ----------------------------------------------------


class TestResolveTransport:
    def test_auto_and_shm_resolve_to_shm_here(self):
        assert resolve_transport("auto") == "shm"
        assert resolve_transport("shm") == "shm"

    def test_pipe_is_always_honored(self):
        assert resolve_transport("pipe") == "pipe"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown shard transport"):
            resolve_transport("carrier-pigeon")


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
    def test_auto_resolves_to_shm_and_pipe_pins_pipe(self):
        for requested, expected in (("auto", "shm"), ("shm", "shm"), ("pipe", "pipe")):
            cluster = _cluster(
                "sharded", _registry_model_fn("mlp"), 4, shard_transport=requested
            )
            try:
                assert cluster.backend.transport == expected, requested
            finally:
                cluster.close()

    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_mean_state_bit_equals_stacked_mean(self, transport):
        cluster = _cluster(
            "sharded", _registry_model_fn("mlp"), 5, shard_transport=transport
        )
        try:
            backend = cluster.backend
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
            cluster = _cluster(
                "sharded", _registry_model_fn("mlp"), 4, shard_transport=transport
            )
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
            "sharded",
            lambda: MLP(F, C, hidden_sizes=(8,), batch_norm=True, rng=1),
            4,
            shard_transport="shm",
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
        cluster = _cluster(
            "sharded", _registry_model_fn("mlp"), 4, shard_transport="shm"
        )
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
        shards = _cluster("sharded", model_fn, 4, shard_transport="shm")
        backend = shards.backend
        try:
            assert backend.transport == "shm"
            first_spec = backend._plane.spec()
            # shm → pipe: the old segments must be gone afterwards.
            backend.rebuild(model_fn, [None] * 4, n_shards=2, transport="pipe")
            assert backend.transport == "pipe" and backend._plane is None
            with pytest.raises(FileNotFoundError):
                ShmStatePlane.attach(first_spec)
            # pipe → shm: a fresh plane with the new geometry.
            backend.rebuild(model_fn, [None] * 6, n_shards=2, transport="shm")
            assert backend.transport == "shm"
            assert backend._plane.states.shape[0] == 6
            assert len(backend.get_stacked_states()) == 6
        finally:
            shards.close()
        assert not leaks.segments()

    def test_allocation_failure_falls_back_to_pipes_and_recovers(self, monkeypatch):
        # A full /dev/shm (ENOSPC) at construction and again at rebuild: the
        # run goes on over the pipes with the vectorized bank's bytes, and a
        # later rebuild with allocation working again returns to the plane.
        from repro.distributed.worker_bank import WorkerBank

        def full(**kwargs):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(ShmStatePlane, "create", full)
            sharded = ShardedBank(**seeded_backend_kwargs(), n_shards=2, transport="shm")
        try:
            for rebuilt in (False, True):
                if rebuilt:
                    with monkeypatch.context() as patch:
                        patch.setattr(ShmStatePlane, "create", full)
                        sharded.rebuild(**seeded_backend_kwargs(), n_shards=2, transport="shm")
                assert sharded.transport == "pipe" and sharded._plane is None
                vectorized = WorkerBank(**seeded_backend_kwargs())
                with MetricsRegistry() as metrics:
                    np.testing.assert_array_equal(
                        vectorized.local_period(3), sharded.local_period(3)
                    )
                    averaged, _ = sharded.mean_state()
                np.testing.assert_array_equal(averaged, vectorized.mean_state()[0])
                counters = metrics.snapshot()["counters"]
                assert counters["bytes_over_pipe"] > 0 and counters["bytes_via_shm"] == 0
            sharded.rebuild(**seeded_backend_kwargs(), n_shards=2, transport="shm")
            assert sharded.transport == "shm" and sharded._plane is not None
            assert len(sharded.get_stacked_states()) == 4
        finally:
            sharded.close()

    def test_finalizer_of_an_abandoned_pool_unlinks_the_current_plane(self, leaks):
        # The finalizer captures the plane, so it has to be re-armed whenever
        # the plane changes: abandon a pool *after* a rebuild and the
        # segments that must go are the rebuilt ones.
        pool = ShardedBank(**seeded_backend_kwargs(), n_shards=2, transport="shm")
        first = leaks.segments()
        pool.rebuild(**seeded_backend_kwargs(), n_shards=2, transport="shm")
        assert len(leaks.segments()) == 2 and not leaks.segments() & first
        del pool
        gc.collect()  # the worker views point back at the backend: a cycle
        assert not leaks.segments() and not leaks.children()


# -- threaded in-process fallback ---------------------------------------------


class TestThreadedInprocessShards:
    def test_daemonic_parent_gets_thread_pool_and_identical_bytes(self):
        def model_fn():
            return MLP(F, C, hidden_sizes=(8,), dropout=0.2, rng=1)

        vectorized = _cluster("vectorized", model_fn, 4)
        with daemonic_parent():
            sharded = _cluster("sharded", model_fn, 4, n_shards=2)
        try:
            backend = sharded.backend
            assert not backend.pooled and backend.transport == "inproc"
            assert backend.pool_size == 2 and backend._procs == []  # 2 shard threads
            np.testing.assert_array_equal(
                vectorized.backend.local_period(3), backend.local_period(3)
            )
            np.testing.assert_array_equal(
                vectorized.average_models(), sharded.average_models()
            )
            # mean_state folds thread-pool results in shard order: bit-equal.
            averaged, _ = backend.mean_state()
            np.testing.assert_array_equal(
                averaged, backend.get_stacked_states().mean(axis=0)
            )
            # Spans say deferred=True for a broadcast on every carrier, but
            # a shard thread never actually defers: it would read the
            # parent's array while the parent moves on.
            assert backend._deferred == []
        finally:
            sharded.close()
            sharded.close()  # second close of stopped shard threads: silent
            vectorized.close()
        assert backend._closed  # close() stops the shard threads
        assert not any(conn._thread.is_alive() for conn in backend._conns)

    def test_single_shard_inprocess_pool_serves_commands(self):
        with daemonic_parent():
            sharded = _cluster("sharded", _registry_model_fn("mlp"), 3, n_shards=1)
        try:
            assert sharded.backend.pool_size == 1 and sharded.backend._procs == []
            assert len(sharded.backend.local_period(2)) == 3
        finally:
            sharded.close()


    def test_shard_thread_answers_in_order_and_reports_errors_as_replies(self):
        # One thread per shard: two commands sent before a recv run (and
        # answer) in order, never side by side.
        conn = _InprocConn(0)
        try:
            conn.send(("first", ()))
            conn.send(("second", ()))
            (status_1, detail_1), (status_2, detail_2) = conn.recv(), conn.recv()
            assert status_1 == status_2 == "error"
            assert "'first'" in detail_1 and "'second'" in detail_2
        finally:
            conn.send(("close", ()))
            conn.close()
        assert not conn._thread.is_alive()

    def test_shard_thread_error_reaches_the_caller_like_a_process_error(self):
        with daemonic_parent():
            pool = ShardedBank(**seeded_backend_kwargs(), n_shards=2)
        try:
            with pytest.raises(RuntimeError, match=r"shard process 0 failed:\n(?s:.*)shard process 1"):
                pool.broadcast_state(np.zeros(3))  # wrong length, on both shards
            assert len(pool.get_stacked_states()) == 4  # every reply was drained
        finally:
            pool.close()

    def test_finalizer_of_an_abandoned_inprocess_pool_stops_its_threads(self):
        with daemonic_parent():
            pool = ShardedBank(**seeded_backend_kwargs(), n_shards=2)
        threads = [conn._thread for conn in pool._conns]
        assert all(thread.is_alive() for thread in threads)
        del pool
        gc.collect()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)


# -- config / CLI / builder wiring --------------------------------------------


class TestTransportWiring:
    def test_config_field_validates_and_roundtrips(self):
        from repro.experiments.configs import ExperimentConfig, make_config

        config = make_config("smoke", shard_transport="pipe")
        assert ExperimentConfig.from_dict(config.to_dict()).shard_transport == "pipe"
        with pytest.raises(ValueError, match="shard_transport"):
            make_config("smoke", shard_transport="quic").validate()

    def test_transport_is_excluded_from_the_sweep_hash(self):
        # Like backend/backend_shards: the transport changes how bytes move,
        # never which bytes — cells must stay content-addressable across it.
        from repro.experiments.configs import make_config
        from repro.sweep.spec import cell_hash

        base = make_config("smoke")
        assert cell_hash(base) == cell_hash(base.with_overrides(shard_transport="pipe"))

    def test_experiment_builder_sets_transport(self):
        from repro.api import Experiment

        config = Experiment("smoke").transport("pipe").build()
        assert config.shard_transport == "pipe"
        with pytest.raises(ValueError, match="shard_transport"):
            Experiment("smoke").transport("quic").build()

    def test_cli_flag_overrides_config(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["--shard-transport", "pipe"])
        assert args.shard_transport == "pipe"
        assert build_parser().parse_args([]).shard_transport is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--shard-transport", "quic"])

    def test_direct_constructor_validates_before_spawn(self):
        with pytest.raises(ValueError, match="unknown shard transport"):
            ShardedBank(
                _registry_model_fn("mlp"), [None] * 2, n_shards=2, transport="quic"
            )
