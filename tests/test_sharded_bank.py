"""Acceptance suite for the sharded multi-process worker-bank backend.

The PR contract: ``backend="sharded"`` partitions the m workers into
contiguous shards, runs one vectorized bank per shard on a persistent pool
of ≥ 2 worker processes, and the resulting trajectory — per-step parameters,
batch-norm buffers, losses, and RNG stream positions — is *byte-identical*
to ``backend="vectorized"`` (and hence to the loop reference).  Exact
equality, no tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registries import BACKENDS
from repro.data.synthetic import make_gaussian_blobs
from repro.distributed.backends import BackendUnsupported, WorkerView
from repro.distributed.collectives import Exact
from repro.distributed.sharded_bank import ShardedBank, shard_slices
from repro.experiments.configs import make_config
from repro.experiments.harness import run_method
from repro.models.mlp import MLP
from repro.nn.layers import Linear, Module
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator

from tests.conftest import (
    EQUIVALENCE_FEATURES,
    _registry_model_fn,
    cluster_on,
    pipe_plane,
)

#: No test here may leave a /dev/shm segment or a child process behind.
pytestmark = pytest.mark.usefixtures("leaks")

#: ≥ 3 registry models, spanning dense, residual-dense, and conv paths.
MODELS_UNDER_TEST = ("mlp", "resnet_lite_mlp", "vgg_lite_cnn")
F, C = EQUIVALENCE_FEATURES, 4


def _cluster(backend, model_fn, n_workers, n_shards=2, dataset=True, **kwargs):
    ds = (
        make_gaussian_blobs(
            n_samples=40 * n_workers, n_features=F, n_classes=C, class_sep=2.0, rng=3
        )
        if dataset
        else None
    )
    runtime = RuntimeSimulator(
        ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=n_workers, rng=0
    )
    return cluster_on(
        backend,
        n_shards=n_shards,
        model_fn=model_fn,
        dataset=ds,
        runtime=runtime,
        n_workers=n_workers,
        batch_size=8,
        lr=0.05,
        momentum=0.9,
        weight_decay=1e-4,
        seed=17,
        **kwargs,
    )


class TestShardSlices:
    def test_contiguous_balanced_partition(self):
        assert shard_slices(16, 2) == [(0, 8), (8, 16)]
        assert shard_slices(5, 2) == [(0, 3), (3, 5)]
        assert shard_slices(4, 3) == [(0, 2), (2, 3), (3, 4)]

    def test_clamps_to_worker_count(self):
        assert shard_slices(2, 8) == [(0, 1), (1, 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_slices(4, 0)


class TestByteIdenticalToVectorized:
    """The acceptance criterion: sharded ≡ vectorized, byte for byte."""

    @pytest.mark.parametrize("m", [4, 16], ids=["m4", "m16"])
    @pytest.mark.parametrize("model", MODELS_UNDER_TEST)
    def test_per_step_params_losses_rng(self, model, m):
        model_fn = _registry_model_fn(model)
        vectorized = _cluster("vectorized", model_fn, m)
        sharded = _cluster("sharded", model_fn, m)
        try:
            assert sharded.backend_name == "sharded"
            assert sharded.backend.n_shards >= 2
            assert all(p.is_alive() for p in sharded.backend._procs)
            for step in range(4):
                loss_v = vectorized.backend.local_period(2)
                loss_s = sharded.backend.local_period(2)
                np.testing.assert_array_equal(
                    loss_v, loss_s, err_msg=f"{model} m={m}: losses diverged at step {step}"
                )
                np.testing.assert_array_equal(
                    vectorized.backend.get_stacked_states(),
                    sharded.backend.get_stacked_states(),
                    err_msg=f"{model} m={m}: params diverged at step {step}",
                )
                if step % 2 == 1:
                    np.testing.assert_array_equal(
                        vectorized.average_models(), sharded.average_models(),
                        err_msg=f"{model} m={m}: averaging diverged at step {step}",
                    )
            assert vectorized.backend.rng_fingerprint() == sharded.backend.rng_fingerprint()
        finally:
            sharded.close()

    def test_batchnorm_buffers_and_eval_match(self):
        def model_fn():
            return MLP(F, C, hidden_sizes=(8,), batch_norm=True, dropout=0.2, rng=1)

        vectorized = _cluster("vectorized", model_fn, 4)
        sharded = _cluster("sharded", model_fn, 4)
        try:
            for _ in range(2):
                vectorized.run_round(3)
                sharded.run_round(3)
            stacked = vectorized.backend.bank.buffers
            for worker_id in range(4):
                fetched = sharded.backend.worker_buffers(worker_id)
                assert set(fetched) == set(stacked)
                for name, values in stacked.items():
                    np.testing.assert_array_equal(
                        fetched[name], values[worker_id],
                        err_msg=f"worker {worker_id} buffer {name}",
                    )

            probe = make_gaussian_blobs(n_samples=40, n_features=F, n_classes=C, rng=9)

            def eval_loss(model, X, y):
                model.eval()
                try:
                    return float(model.loss(X, y).item())
                finally:
                    model.train()

            assert vectorized.evaluate_synchronized(
                probe.X, probe.y, eval_loss
            ) == sharded.evaluate_synchronized(probe.X, probe.y, eval_loss)
        finally:
            sharded.close()

    def test_data_free_quadratic_matches(self):
        from repro.models.quadratic import NoisyQuadraticProblem, QuadraticObjective

        objective = QuadraticObjective.random(dim=6, rng=0, noise_std=0.1)

        def model_fn():
            return NoisyQuadraticProblem(objective, x0=np.ones(6) * 3.0, rng=0)

        vectorized = _cluster("vectorized", model_fn, 4, dataset=False)
        sharded = _cluster("sharded", model_fn, 4, dataset=False)
        try:
            assert sharded.backend_name == "sharded"
            for tau in (3, 2):
                assert vectorized.run_round(tau) == sharded.run_round(tau)
                np.testing.assert_array_equal(
                    vectorized.synchronized_parameters, sharded.synchronized_parameters
                )
            assert vectorized.backend.rng_fingerprint() == sharded.backend.rng_fingerprint()
        finally:
            sharded.close()

    def test_uneven_shard_split_still_identical(self):
        model_fn = _registry_model_fn("mlp")
        vectorized = _cluster("vectorized", model_fn, 5)
        sharded = _cluster("sharded", model_fn, 5, n_shards=3)
        try:
            assert sharded.backend.shard_slices == [(0, 2), (2, 4), (4, 5)]
            for _ in range(2):
                np.testing.assert_array_equal(
                    vectorized.backend.local_period(3), sharded.backend.local_period(3)
                )
                np.testing.assert_array_equal(
                    vectorized.average_models(), sharded.average_models()
                )
        finally:
            sharded.close()


class TestShardedBackendSurface:
    def test_registered_in_backends_registry(self):
        assert "sharded" in BACKENDS
        assert BACKENDS.get("sharded") is ShardedBank

    def test_worker_views_roundtrip_parameters(self):
        cluster = _cluster("sharded", _registry_model_fn("mlp"), 4)
        try:
            assert all(isinstance(w, WorkerView) for w in cluster.workers)
            view = cluster.workers[3]  # second shard
            target = np.arange(len(cluster.workers[0].get_parameters()), dtype=float)
            view.set_parameters(target)
            np.testing.assert_array_equal(view.get_parameters(), target)
            assert not np.array_equal(cluster.workers[0].get_parameters(), target)
        finally:
            cluster.close()

    def test_shard_sizes_and_weighting(self):
        cluster = _cluster(
            "sharded", _registry_model_fn("mlp"), 4, collective=Exact(weighting="shard_size")
        )
        try:
            sizes = cluster.backend.shard_sizes()
            assert sizes is not None and len(sizes) == 4 and sum(sizes) == 160
            cluster.run_round(2)  # weighted averaging executes without error
        finally:
            cluster.close()

    def test_close_is_idempotent_and_kills_pool(self):
        cluster = _cluster("sharded", _registry_model_fn("mlp"), 4)
        backend = cluster.backend
        procs = list(backend._procs)
        assert all(p.is_alive() for p in procs)
        cluster.close()
        cluster.close()
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(RuntimeError, match="closed"):
            backend.local_period(1)

    def test_pipe_broadcast_error_raised_by_broadcast(self):
        # Every command waits for its own replies, so a shard failure is
        # raised by the call that caused it, naming every failed shard.  On
        # the pipe plane the children validate the broadcast; over the shm
        # plane a malformed one fails fast in the parent instead (below).
        with pipe_plane():
            cluster = _cluster("sharded", _registry_model_fn("mlp"), 4)
        try:
            backend = cluster.backend
            with pytest.raises(
                RuntimeError, match=r"shard process 0 failed:\n(?s:.*)shard process 1 failed"
            ):
                backend.broadcast_state(np.zeros(3))  # wrong length, on both shards
            # Every reply was drained, so the protocol is still in sync.
            assert len(backend.get_stacked_states()) == 4
        finally:
            cluster.close()

    def test_shm_malformed_broadcast_fails_fast_in_parent(self):
        # The shm plane write validates the broadcast length before any
        # command is sent, so the error is immediate and the pool unharmed.
        cluster = _cluster("sharded", _registry_model_fn("mlp"), 4)
        try:
            backend = cluster.backend
            assert backend.transport == "shm"
            with pytest.raises(ValueError, match="broadcast"):
                backend.broadcast_state(np.zeros(3))
            assert len(backend.get_stacked_states()) == 4
        finally:
            cluster.close()

    def test_context_manager_closes_pool(self):
        with _cluster("sharded", _registry_model_fn("mlp"), 4) as cluster:
            procs = list(cluster.backend._procs)
            cluster.run_round(2)
        assert all(not p.is_alive() for p in procs)

    def test_unsupported_model_raises_before_consuming_streams(self):
        class NoBankModel(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(F, C, rng=0)

            def forward(self, x):
                return self.fc(x)

            def loss(self, x, y):
                from repro.nn.losses import cross_entropy

                return cross_entropy(self(x), y)

        with pytest.raises(BackendUnsupported):
            _cluster("sharded", NoBankModel, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="need at least one shard"):
            ShardedBank(lambda: MLP(F, C, rng=0), [])
        with pytest.raises(ValueError, match="n_shards"):
            _cluster("sharded", _registry_model_fn("mlp"), 4, n_shards=0)


class TestAutoEscalation:
    def test_auto_picks_sharded_at_threshold(self):
        cluster = _cluster(
            "auto", _registry_model_fn("mlp"), 4, auto_shard_threshold=4
        )
        try:
            assert cluster.backend_name == "sharded"
        finally:
            cluster.close()

    def test_auto_stays_vectorized_below_threshold(self):
        cluster = _cluster(
            "auto", _registry_model_fn("mlp"), 4, auto_shard_threshold=64
        )
        assert cluster.backend_name == "vectorized"

    def test_auto_escalation_trajectory_identical(self):
        # The threshold changes the process layout, never the bytes.
        model_fn = _registry_model_fn("mlp")
        vectorized = _cluster("auto", model_fn, 4, auto_shard_threshold=64)
        escalated = _cluster("auto", model_fn, 4, auto_shard_threshold=2)
        try:
            assert escalated.backend_name == "sharded"
            for _ in range(2):
                assert vectorized.run_round(3) == escalated.run_round(3)
            np.testing.assert_array_equal(
                vectorized.synchronized_parameters, escalated.synchronized_parameters
            )
        finally:
            escalated.close()

    def test_auto_falls_back_to_loop_for_unsupported_model(self):
        class NoBankModel(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(F, C, rng=0)

            def forward(self, x):
                return self.fc(x)

            def loss(self, x, y):
                from repro.nn.losses import cross_entropy

                return cross_entropy(self(x), y)

        cluster = _cluster("auto", NoBankModel, 4, auto_shard_threshold=2)
        assert cluster.backend_name == "loop"


class TestShardedInsideSweepPool:
    """A sweep-pool worker forks its own shard processes, so a sharded cell's
    outputs — result bytes and metrics counters — do not depend on ``--jobs``."""

    def test_parallel_sweep_cells_match_serial_bytes(self, tmp_path):
        from repro.sweep import ResultStore, SweepSpec, grid, run_sweep

        # Dropout + batch norm make the cells stream-consuming: each shard
        # must own an isolated template and generators, or the bytes diverge.
        base = make_config(
            "smoke", backend="sharded", n_train=120, n_test=40,
            wall_time_budget=8.0, methods=("sync-sgd",),
            model_kwargs={"batch_norm": True, "dropout": 0.2},
        )
        spec = SweepSpec("sharded_pool", base, grid(tau=[1, 4]))
        serial = run_sweep(spec, tmp_path / "serial", collect_metrics=True)
        assert serial.ok and len(serial.executed) == 2
        parallel = run_sweep(spec, tmp_path / "parallel", jobs=2, collect_metrics=True)
        assert parallel.ok and len(parallel.executed) == 2
        for address in serial.executed:
            assert (
                (tmp_path / "serial" / "cells" / address / "result.json").read_bytes()
                == (tmp_path / "parallel" / "cells" / address / "result.json").read_bytes()
            )
            counters = [
                ResultStore(tmp_path / run).metrics(address)["counters"]
                for run in ("serial", "parallel")
            ]
            assert counters[0]["bytes_via_shm"] > 0
            assert counters[0] == counters[1]

    def test_inprocess_mode_matches_vectorized_for_stream_models(self):
        # Uneven shards (m=5 over 2) plus dropout+batch norm exercise
        # per-shard stream isolation across the process boundary.
        def model_fn():
            return MLP(F, C, hidden_sizes=(8,), batch_norm=True, dropout=0.3, rng=1)

        vectorized = _cluster("vectorized", model_fn, 5)
        sharded = _cluster("sharded", model_fn, 5, n_shards=2)
        try:
            assert len(sharded.backend._procs) == 2
            for _ in range(2):
                np.testing.assert_array_equal(
                    vectorized.backend.local_period(3), sharded.backend.local_period(3)
                )
                np.testing.assert_array_equal(
                    vectorized.average_models(), sharded.average_models()
                )
            assert vectorized.backend.rng_fingerprint() == sharded.backend.rng_fingerprint()
        finally:
            sharded.close()

    def test_wrong_sized_stream_slice_fails_at_construction(self):
        from repro.distributed.worker_bank import WorkerBank

        template = MLP(F, C, hidden_sizes=(8,), dropout=0.3, rng=1)
        shards = [
            make_gaussian_blobs(n_samples=30, n_features=F, n_classes=C, rng=s)
            for s in range(3)
        ]
        streams = [[np.random.default_rng(0), np.random.default_rng(1)]]  # 2 != 3
        with pytest.raises(ValueError, match="3 worker"):
            WorkerBank(
                model_fn=None, shards=shards, batch_size=8,
                template=template, stream_rngs=streams,
            )


class TestHarnessAndConfigWiring:
    def test_config_validates_and_roundtrips(self):
        config = make_config("smoke", backend="sharded", backend_shards=2)
        from repro.experiments.configs import ExperimentConfig

        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt.backend == "sharded" and rebuilt.backend_shards == 2
        with pytest.raises(ValueError, match="backend_shards"):
            make_config("smoke", backend_shards=0).validate()
        with pytest.raises(ValueError, match="auto_shard_threshold"):
            make_config("smoke", auto_shard_threshold=0).validate()

    def test_run_method_on_sharded_matches_vectorized(self):
        def config(backend):
            return make_config(
                "smoke", backend=backend, n_train=160, n_test=60,
                wall_time_budget=20.0, momentum=0.9,
            )

        record_sharded = run_method(config("sharded"), "pasgd-tau4")
        assert record_sharded.config["backend"] == "sharded"
        record_vectorized = run_method(config("vectorized"), "pasgd-tau4")
        assert [p.train_loss for p in record_sharded.points] == [
            p.train_loss for p in record_vectorized.points
        ]
        np.testing.assert_array_equal(
            [p.test_accuracy for p in record_sharded.points],
            [p.test_accuracy for p in record_vectorized.points],
        )

    def test_harness_auto_escalates_above_threshold(self):
        record = run_method(
            make_config(
                "smoke", backend="auto", auto_shard_threshold=2,
                n_train=160, n_test=60, wall_time_budget=10.0,
            ),
            "sync-sgd",
        )
        assert record.config["backend"] == "sharded"

    def test_experiment_builder_shards(self):
        from repro.api import Experiment

        config = Experiment("smoke").backend("sharded").shards(3).build()
        assert config.backend == "sharded" and config.backend_shards == 3

    def test_cli_lists_and_accepts_sharded(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list", "backends"]) == 0
        assert "sharded" in capsys.readouterr().out.split()
        assert main([
            "--config", "smoke", "--backend", "sharded", "--scale", "0.1",
            "--set", "methods=('sync-sgd',)",
        ]) == 0
        assert "backend=sharded" in capsys.readouterr().out
