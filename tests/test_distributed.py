"""Tests for the simulated distributed substrate (repro.distributed)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import partition_dataset
from repro.distributed.averaging import average_states, weighted_average_states
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.collectives import Exact
from repro.distributed.worker_bank import LoopWorkers, WorkerBank
from repro.models.mlp import MLP
from repro.nn.layers import evaluating
from repro.optim.block_momentum import BlockMomentum
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator


class TestAveraging:
    def test_uniform_average(self):
        states = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        np.testing.assert_allclose(average_states(states), [2.0, 3.0])

    def test_average_identity_for_single_state(self):
        s = np.array([1.0, -1.0])
        np.testing.assert_allclose(average_states([s]), s)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            average_states([np.zeros(2), np.zeros(3)])

    def test_empty(self):
        with pytest.raises(ValueError):
            average_states([])

    def test_weighted_average(self):
        states = [np.array([0.0]), np.array([10.0])]
        np.testing.assert_allclose(weighted_average_states(states, [1, 3]), [7.5])

    def test_weighted_average_normalizes(self):
        states = [np.array([2.0]), np.array([4.0])]
        np.testing.assert_allclose(weighted_average_states(states, [10, 10]), [3.0])

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            weighted_average_states([np.zeros(2)], [1, 2])
        with pytest.raises(ValueError):
            weighted_average_states([np.zeros(2), np.zeros(2)], [0, 0])
        with pytest.raises(ValueError):
            weighted_average_states([np.zeros(2), np.zeros(2)], [-1, 2])


class TestWorker:
    """One worker is a :class:`WorkerBank` of one: the step every backend runs."""

    def _make_worker(self, tiny_dataset, **kwargs):
        return WorkerBank(
            lambda: MLP(n_features=8, n_classes=3, hidden_sizes=(12,), rng=0),
            [tiny_dataset], batch_size=16, lr=0.2, rngs=[0], **kwargs,
        )

    @staticmethod
    def _shard_loss(worker, dataset) -> float:
        def loss(model):
            with evaluating(model):
                return float(model.loss(dataset.X, dataset.y).item())

        return worker.evaluate_with_state(worker.worker_state(0), loss)

    def test_local_step_changes_parameters_and_returns_loss(self, tiny_dataset):
        worker = self._make_worker(tiny_dataset)
        before = worker.worker_state(0)
        (loss,) = worker.local_step()
        assert np.isfinite(loss)
        assert not np.allclose(before, worker.worker_state(0))
        assert worker.local_steps_taken == 1

    def test_local_period_runs_tau_steps(self, tiny_dataset):
        worker = self._make_worker(tiny_dataset)
        worker.local_period(7)
        assert worker.local_steps_taken == 7

    def test_parameter_roundtrip(self, tiny_dataset):
        worker = self._make_worker(tiny_dataset)
        (view,) = worker.workers
        target = np.arange(worker.model.num_parameters(), dtype=float)
        view.set_parameters(target)
        np.testing.assert_allclose(view.get_parameters(), target)
        np.testing.assert_allclose(view.model.get_flat_parameters(), target)

    def test_evaluate_loss_on_shard(self, tiny_dataset):
        worker = self._make_worker(tiny_dataset)
        before = worker.worker_state(0)
        assert np.isfinite(self._shard_loss(worker, tiny_dataset))
        np.testing.assert_array_equal(worker.worker_state(0), before)

    def test_training_reduces_loss(self, tiny_dataset):
        worker = self._make_worker(tiny_dataset)
        before = self._shard_loss(worker, tiny_dataset)
        worker.local_period(60)
        assert self._shard_loss(worker, tiny_dataset) < before

    def test_invalid_tau(self, tiny_dataset):
        with pytest.raises(ValueError):
            self._make_worker(tiny_dataset).local_period(0)

    def test_negative_worker_id(self, tiny_dataset):
        worker = self._make_worker(tiny_dataset)
        with pytest.raises(IndexError):
            worker.worker_state(-1)
        with pytest.raises(IndexError):
            worker.materialize(worker.worker_state(0), worker_id=-1)


def _make_cluster(tiny_dataset, tiny_model_fn, n_workers=4, block_momentum=None, **kwargs):
    runtime = RuntimeSimulator(
        ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=n_workers, rng=0
    )
    return SimulatedCluster(
        model_fn=tiny_model_fn,
        dataset=tiny_dataset,
        runtime=runtime,
        n_workers=n_workers,
        batch_size=8,
        lr=0.2,
        collective=Exact(block_momentum=block_momentum.beta if block_momentum else 0.0),
        seed=0,
        **kwargs,
    )


class TestSimulatedCluster:
    def test_workers_start_from_identical_parameters(self, tiny_dataset, tiny_model_fn):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn)
        ref = cluster.workers[0].get_parameters()
        for w in cluster.workers[1:]:
            np.testing.assert_allclose(w.get_parameters(), ref)

    def test_local_period_advances_clock_by_compute_time(self, tiny_dataset, tiny_model_fn):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn)
        cluster.run_local_period(5)
        assert cluster.clock.now == pytest.approx(5.0)  # constant Y=1 per step
        assert cluster.total_local_iterations == 5

    def test_averaging_advances_clock_by_communication_delay(self, tiny_dataset, tiny_model_fn):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn)
        cluster.run_local_period(3)
        cluster.average_models()
        assert cluster.clock.now == pytest.approx(3.0 + 2.0)
        assert cluster.communication_rounds == 1

    def test_averaging_synchronizes_all_workers(self, tiny_dataset, tiny_model_fn):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn)
        cluster.run_local_period(4)
        assert cluster.model_discrepancy() > 0
        averaged = cluster.average_models()
        for w in cluster.workers:
            np.testing.assert_allclose(w.get_parameters(), averaged)
        assert cluster.model_discrepancy() == pytest.approx(0.0, abs=1e-12)

    def test_average_is_mean_of_local_models(self, tiny_dataset, tiny_model_fn):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn)
        cluster.run_local_period(3)
        states = [w.get_parameters() for w in cluster.workers]
        expected = np.mean(np.stack(states), axis=0)
        np.testing.assert_allclose(cluster.average_models(), expected)

    def test_clock_equals_event_log_total(self, tiny_dataset, tiny_model_fn):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn)
        for tau in (3, 5, 2):
            cluster.run_round(tau)
        # Constant delays: Y = 1 per step, D = 2 per round.
        assert cluster.breakdown() == {
            "compute_time": 10.0,
            "communication_time": 6.0,
            "total_time": 16.0,
            "local_iterations": 10.0,
            "communication_rounds": 3.0,
        }
        assert cluster.clock.now == cluster.breakdown()["total_time"]

    def test_set_lr_propagates(self, tiny_dataset, tiny_model_fn):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn)
        cluster.set_lr(0.01)
        assert cluster.current_lr == 0.01
        assert [bank.optimizer.lr for bank in cluster.backend.banks] == [0.01] * 4
        with pytest.raises(ValueError):
            cluster.set_lr(0.0)

    def test_training_reduces_global_loss(self, tiny_dataset, tiny_model_fn):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn)
        X, y = tiny_dataset.X, tiny_dataset.y

        def loss_metric(model, Xe, ye):
            return float(model.loss(Xe, ye).item())

        before = cluster.evaluate_synchronized(X, y, loss_metric)
        for _ in range(15):
            cluster.run_round(4)
        after = cluster.evaluate_synchronized(X, y, loss_metric)
        assert after < 0.8 * before

    def test_block_momentum_zero_beta_matches_plain_averaging(self, tiny_dataset, tiny_model_fn):
        plain = _make_cluster(tiny_dataset, tiny_model_fn)
        with_bm = _make_cluster(tiny_dataset, tiny_model_fn, block_momentum=BlockMomentum(0.0))
        for _ in range(3):
            plain.run_round(4)
            with_bm.run_round(4)
        np.testing.assert_allclose(
            plain.synchronized_parameters, with_bm.synchronized_parameters, atol=1e-10
        )

    def test_block_momentum_changes_trajectory(self, tiny_dataset, tiny_model_fn):
        plain = _make_cluster(tiny_dataset, tiny_model_fn)
        with_bm = _make_cluster(tiny_dataset, tiny_model_fn, block_momentum=BlockMomentum(0.5))
        for _ in range(4):
            plain.run_round(4)
            with_bm.run_round(4)
        assert not np.allclose(plain.synchronized_parameters, with_bm.synchronized_parameters)

    def test_partitioned_dataset_input(self, tiny_dataset, tiny_model_fn):
        part = partition_dataset(tiny_dataset, 4, rng=0)
        runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), 4, rng=0)
        cluster = SimulatedCluster(tiny_model_fn, part, runtime, n_workers=4, batch_size=8, lr=0.1)
        assert len(cluster.workers) == 4

    def test_partition_worker_mismatch_raises(self, tiny_dataset, tiny_model_fn):
        part = partition_dataset(tiny_dataset, 3, rng=0)
        runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), 4, rng=0)
        with pytest.raises(ValueError):
            SimulatedCluster(tiny_model_fn, part, runtime, n_workers=4)

    def test_runtime_worker_mismatch_raises(self, tiny_dataset, tiny_model_fn):
        runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), 2, rng=0)
        with pytest.raises(ValueError):
            SimulatedCluster(tiny_model_fn, tiny_dataset, runtime, n_workers=4)

    def test_dataset_free_cluster(self, tiny_model_fn):
        # Quadratic-style objectives need no dataset; workers get shard=None.
        from repro.models.quadratic import NoisyQuadraticProblem, QuadraticObjective

        obj = QuadraticObjective.random(dim=6, rng=0, noise_std=0.1)

        def model_fn():
            return NoisyQuadraticProblem(obj, x0=np.ones(6) * 3.0, rng=0)

        runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), 2, rng=0)
        cluster = SimulatedCluster(model_fn, None, runtime, n_workers=2, lr=0.1, seed=0)
        before = obj.value(cluster.synchronized_parameters)
        for _ in range(20):
            cluster.run_round(5)
        assert obj.value(cluster.synchronized_parameters) < before

    def test_epochs_completed(self, tiny_dataset, tiny_model_fn):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn)
        assert cluster.epochs_completed() == 0.0
        cluster.run_round(10)
        # 10 iterations × 8 batch × 4 workers = 320 samples over a 180-sample dataset.
        assert cluster.epochs_completed() == pytest.approx(320 / 180)


class TestClusterBackendParity:
    """The cluster protocol must hold identically on both execution backends."""

    @pytest.fixture(params=["loop", "vectorized"])
    def backend(self, request):
        return request.param

    def test_backend_class_selection(self, tiny_dataset, tiny_model_fn, backend):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn, backend=backend)
        expected = LoopWorkers if backend == "loop" else WorkerBank
        assert isinstance(cluster.backend, expected)
        assert cluster.backend_name == backend

    def test_workers_start_identical_and_synchronize(self, tiny_dataset, tiny_model_fn, backend):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn, backend=backend)
        ref = cluster.workers[0].get_parameters()
        for w in cluster.workers[1:]:
            np.testing.assert_allclose(w.get_parameters(), ref)
        cluster.run_local_period(4)
        assert cluster.model_discrepancy() > 0
        averaged = cluster.average_models()
        for w in cluster.workers:
            np.testing.assert_allclose(w.get_parameters(), averaged)

    def test_clock_and_event_log(self, tiny_dataset, tiny_model_fn, backend):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn, backend=backend)
        for tau in (3, 5, 2):
            cluster.run_round(tau)
        breakdown = cluster.breakdown()
        assert cluster.clock.now == pytest.approx(breakdown["total_time"])
        assert breakdown["local_iterations"] == 10
        assert breakdown["communication_rounds"] == 3

    def test_average_is_mean_axis0_of_stacked_states(self, tiny_dataset, tiny_model_fn, backend):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn, backend=backend)
        cluster.run_local_period(3)
        states = cluster.backend.get_stacked_states()
        assert states.shape == (4, cluster.workers[0].get_parameters().size)
        np.testing.assert_allclose(cluster.average_models(), states.mean(axis=0))

    def test_worker_sharding_covers_dataset(self, tiny_dataset, tiny_model_fn, backend):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn, backend=backend)
        indices = np.concatenate(cluster._partition.worker_indices)
        assert len(indices) == len(tiny_dataset)
        assert len(np.unique(indices)) == len(tiny_dataset)
        assert cluster._partition.shard_sizes() == [45, 45, 45, 45]

    def test_backend_evaluate_with_state_restores_workers(
        self, tiny_dataset, tiny_model_fn, backend
    ):
        cluster = _make_cluster(tiny_dataset, tiny_model_fn, backend=backend)
        cluster.run_round(3)
        before = cluster.backend.get_stacked_states()
        cluster.evaluate_synchronized(
            tiny_dataset.X, tiny_dataset.y, lambda m, X, y: float(m.loss(X, y).item())
        )
        np.testing.assert_array_equal(before, cluster.backend.get_stacked_states())

    def test_loop_and_vectorized_agree_on_seeded_run(self, tiny_dataset, tiny_model_fn):
        loop = _make_cluster(tiny_dataset, tiny_model_fn, backend="loop")
        bank = _make_cluster(tiny_dataset, tiny_model_fn, backend="vectorized")
        for tau in (4, 2, 6):
            loss_l = loop.run_round(tau)
            loss_v = bank.run_round(tau)
            assert loss_v == pytest.approx(loss_l, abs=1e-9)
        np.testing.assert_allclose(
            loop.synchronized_parameters, bank.synchronized_parameters, atol=1e-9
        )


@settings(max_examples=30, deadline=None)
@given(
    n_states=st.integers(min_value=1, max_value=6),
    dim=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_average_preserves_mean_and_bounds(n_states, dim, seed):
    """The averaged state lies inside the per-coordinate min/max envelope."""
    gen = np.random.default_rng(seed)
    states = [gen.normal(size=dim) for _ in range(n_states)]
    avg = average_states(states)
    stacked = np.stack(states)
    assert np.all(avg >= stacked.min(axis=0) - 1e-12)
    assert np.all(avg <= stacked.max(axis=0) + 1e-12)
    np.testing.assert_allclose(avg.mean(), stacked.mean(), atol=1e-12)


class TestShardWeightedAveraging:
    """weighted_average_states wired through the cluster on both backends."""

    def _unbalanced_cluster(self, tiny_dataset, tiny_model_fn, backend, weighting):
        from repro.data.partition import PartitionedDataset

        indices = [np.arange(0, 120), np.arange(120, len(tiny_dataset))]  # 120 vs 60
        part = PartitionedDataset(tiny_dataset, indices)
        runtime = RuntimeSimulator(
            ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=2, rng=0
        )
        return SimulatedCluster(
            model_fn=tiny_model_fn,
            dataset=part,
            runtime=runtime,
            n_workers=2,
            batch_size=8,
            lr=0.2,
            seed=0,
            backend=backend,
            collective=Exact(weighting=weighting),
        )

    @pytest.mark.parametrize("backend", ["loop", "vectorized"])
    def test_backends_report_shard_sizes(self, tiny_dataset, tiny_model_fn, backend):
        cluster = self._unbalanced_cluster(tiny_dataset, tiny_model_fn, backend, "uniform")
        assert cluster.backend.shard_sizes() == [120, 60]

    @pytest.mark.parametrize("backend", ["loop", "vectorized"])
    def test_shard_size_weighting_matches_manual_average(
        self, tiny_dataset, tiny_model_fn, backend
    ):
        cluster = self._unbalanced_cluster(tiny_dataset, tiny_model_fn, backend, "shard_size")
        cluster.run_local_period(3)
        states = cluster.backend.get_stacked_states()
        expected = (120.0 * states[0] + 60.0 * states[1]) / 180.0
        averaged = cluster.average_models()
        np.testing.assert_allclose(averaged, expected, atol=1e-12)
        # The broadcast state is what every worker now holds.
        for w in cluster.workers:
            np.testing.assert_allclose(w.get_parameters(), averaged, atol=1e-12)

    def test_shard_size_equals_uniform_on_balanced_shards_across_backends(
        self, tiny_dataset, tiny_model_fn
    ):
        results = {}
        for backend in ("loop", "vectorized"):
            runtime = RuntimeSimulator(
                ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=4, rng=0
            )
            cluster = SimulatedCluster(
                model_fn=tiny_model_fn, dataset=tiny_dataset, runtime=runtime,
                n_workers=4, batch_size=8, lr=0.2, seed=0,
                backend=backend, collective=Exact(weighting="shard_size"),
            )
            cluster.run_round(4)
            results[backend] = cluster.synchronized_parameters
        np.testing.assert_allclose(results["loop"], results["vectorized"], atol=1e-9)

    def test_weighted_trajectory_differs_from_uniform_when_unbalanced(
        self, tiny_dataset, tiny_model_fn
    ):
        uniform = self._unbalanced_cluster(tiny_dataset, tiny_model_fn, "loop", "uniform")
        weighted = self._unbalanced_cluster(tiny_dataset, tiny_model_fn, "loop", "shard_size")
        uniform.run_round(4)
        weighted.run_round(4)
        assert not np.allclose(
            uniform.synchronized_parameters, weighted.synchronized_parameters
        )

    def test_data_free_rejects_shard_size_weighting(self):
        runtime = RuntimeSimulator(
            ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=2, rng=0
        )
        with pytest.raises(ValueError, match="shard_size"):
            SimulatedCluster(
                model_fn=lambda: MLP(n_features=4, n_classes=2, hidden_sizes=(), rng=0),
                dataset=None,
                runtime=runtime,
                n_workers=2,
                seed=0,
                collective=Exact(weighting="shard_size"),
            )

    def test_unknown_weighting_rejected(self, tiny_dataset, tiny_model_fn):
        runtime = RuntimeSimulator(
            ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=2, rng=0
        )
        with pytest.raises(ValueError, match="weighting"):
            SimulatedCluster(
                model_fn=tiny_model_fn, dataset=tiny_dataset, runtime=runtime,
                n_workers=2, seed=0, collective=Exact(weighting="fedavg"),
            )

    def test_config_field_flows_through_harness(self):
        from repro.experiments.configs import make_config
        from repro.experiments.harness import run_method

        cfg = make_config(
            "smoke", n_train=120, n_test=40, wall_time_budget=8.0, weighting="shard_size"
        )
        record = run_method(cfg, "sync-sgd")
        assert record.points
        with pytest.raises(ValueError, match="weighting"):
            make_config("smoke", weighting="bogus").validate()
