"""Tests for the PASGD trainer (repro.core.trainer)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.schedules import (
    AdaCommSchedule,
    FixedCommunicationSchedule,
    SequenceCommunicationSchedule,
)
from repro.core.trainer import PASGDTrainer, TrainerConfig
from repro.models.quadratic import NoisyQuadraticProblem, QuadraticObjective
from repro.distributed.cluster import SimulatedCluster
from repro.optim.lr_schedules import TauGatedStepLR
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator


def make_cluster(tiny_dataset, tiny_model_fn, alpha=2.0, n_workers=4, lr=0.2):
    runtime = RuntimeSimulator(
        ConstantDelay(1.0), NetworkModel(alpha, "constant"), n_workers=n_workers, rng=0
    )
    return SimulatedCluster(
        model_fn=tiny_model_fn,
        dataset=tiny_dataset,
        runtime=runtime,
        n_workers=n_workers,
        batch_size=8,
        lr=lr,
        seed=0,
    )


class TestTrainerConfig:
    def test_requires_some_budget(self):
        with pytest.raises(ValueError):
            TrainerConfig()
        TrainerConfig(max_wall_time=10.0)
        TrainerConfig(max_iterations=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(max_wall_time=-1.0)
        with pytest.raises(ValueError):
            TrainerConfig(max_iterations=10, eval_every_rounds=0)


class TestFixedScheduleTraining:
    def test_respects_wall_time_budget(self, tiny_dataset, tiny_model_fn):
        cluster = make_cluster(tiny_dataset, tiny_model_fn)
        trainer = PASGDTrainer(
            cluster,
            FixedCommunicationSchedule(4),
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
            config=TrainerConfig(max_wall_time=50.0),
        )
        record = trainer.train()
        # The budget may be overshot by at most one round (4 compute + 2 comm).
        assert record.points[-1].wall_time <= 50.0 + 6.0 + 1e-9
        assert record.points[-2].wall_time < 50.0

    def test_respects_iteration_budget(self, tiny_dataset, tiny_model_fn):
        cluster = make_cluster(tiny_dataset, tiny_model_fn)
        trainer = PASGDTrainer(
            cluster,
            FixedCommunicationSchedule(5),
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
            config=TrainerConfig(max_iterations=23),
        )
        record = trainer.train()
        assert 23 <= record.points[-1].iteration <= 23 + 5

    def test_loss_decreases(self, tiny_dataset, tiny_model_fn):
        cluster = make_cluster(tiny_dataset, tiny_model_fn)
        trainer = PASGDTrainer(
            cluster,
            FixedCommunicationSchedule(4),
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
            test_eval_data=(tiny_dataset.X, tiny_dataset.y),
            config=TrainerConfig(max_iterations=120),
        )
        record = trainer.train()
        assert record.final_loss() < 0.7 * record.points[0].train_loss
        assert record.best_accuracy() > 0.5

    def test_metric_points_monotone_and_tagged(self, tiny_dataset, tiny_model_fn):
        cluster = make_cluster(tiny_dataset, tiny_model_fn)
        trainer = PASGDTrainer(
            cluster,
            FixedCommunicationSchedule(3),
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
            config=TrainerConfig(max_iterations=30),
        )
        record = trainer.train()
        times = record.wall_times
        assert times == sorted(times)
        assert all(p.tau == 3 for p in record.points)
        assert record.config["schedule"] == "pasgd-tau3"

    def test_sync_sgd_has_higher_per_iteration_cost(self, tiny_dataset, tiny_model_fn):
        sync = PASGDTrainer(
            make_cluster(tiny_dataset, tiny_model_fn),
            FixedCommunicationSchedule(1),
            config=TrainerConfig(max_iterations=20),
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
        ).train()
        pasgd = PASGDTrainer(
            make_cluster(tiny_dataset, tiny_model_fn),
            FixedCommunicationSchedule(10),
            config=TrainerConfig(max_iterations=20),
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
        ).train()
        # Same number of local iterations, but sync pays communication every step:
        # with Y=1, D=2 → sync ≈ 3 s/iter vs PASGD(10) ≈ 1.2 s/iter.
        assert sync.points[-1].wall_time > 2.0 * pasgd.points[-1].wall_time

    def test_eval_every_rounds_controls_accuracy_sampling(self, tiny_dataset, tiny_model_fn):
        cluster = make_cluster(tiny_dataset, tiny_model_fn)
        trainer = PASGDTrainer(
            cluster,
            FixedCommunicationSchedule(2),
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
            test_eval_data=(tiny_dataset.X, tiny_dataset.y),
            config=TrainerConfig(max_iterations=20, eval_every_rounds=5),
        )
        record = trainer.train()
        acc_evals = [p for p in record.points[1:] if not math.isnan(p.test_accuracy)]
        assert 1 <= len(acc_evals) <= 2


class TestSequenceAndAdaptiveTraining:
    def test_sequence_schedule_taus_recorded(self, tiny_dataset, tiny_model_fn):
        cluster = make_cluster(tiny_dataset, tiny_model_fn)
        trainer = PASGDTrainer(
            cluster,
            SequenceCommunicationSchedule([8, 4, 2, 1]),
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
            config=TrainerConfig(max_iterations=15),
        )
        record = trainer.train()
        assert [p.tau for p in record.points[1:]] == [8, 4, 2, 1]

    def test_adacomm_tau_decreases_over_training(self, tiny_dataset, tiny_model_fn):
        cluster = make_cluster(tiny_dataset, tiny_model_fn)
        schedule = AdaCommSchedule(initial_tau=8, interval_length=20.0)
        trainer = PASGDTrainer(
            cluster,
            schedule,
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
            config=TrainerConfig(max_wall_time=150.0),
        )
        record = trainer.train()
        taus = [p.tau for p in record.points[1:]]
        assert taus[0] == 8
        assert taus[-1] < 8  # the controller reduced the period as the loss fell
        assert min(taus) >= 1

    def test_tau_gated_lr_schedule_interacts_with_adacomm(self, tiny_dataset, tiny_model_fn):
        cluster = make_cluster(tiny_dataset, tiny_model_fn)
        schedule = AdaCommSchedule(initial_tau=6, interval_length=15.0)
        lr_schedule = TauGatedStepLR(lr=0.2, milestones=(0.5,), gamma=0.1)
        trainer = PASGDTrainer(
            cluster,
            schedule,
            lr_schedule=lr_schedule,
            train_eval_data=(tiny_dataset.X, tiny_dataset.y),
            config=TrainerConfig(max_wall_time=200.0, iterations_per_epoch=10),
        )
        record = trainer.train()
        lrs = [p.lr for p in record.points[1:]]
        # The decay may only ever fire after τ has reached 1.
        for p in record.points[1:]:
            if p.lr < 0.2:
                assert p.tau == 1
        assert lrs[0] == 0.2

    def test_quadratic_problem_with_loss_fn(self):
        objective = QuadraticObjective.random(dim=8, rng=0, noise_std=0.05)

        def model_fn():
            return NoisyQuadraticProblem(objective, x0=np.full(8, 3.0), rng=0)

        runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), 4, rng=0)
        cluster = SimulatedCluster(model_fn, None, runtime, n_workers=4, lr=0.1, seed=0)
        trainer = PASGDTrainer(
            cluster,
            FixedCommunicationSchedule(5),
            loss_fn=lambda model: model.current_value(),
            config=TrainerConfig(max_iterations=300),
        )
        record = trainer.train()
        assert record.final_loss() < 0.1 * record.points[0].train_loss
