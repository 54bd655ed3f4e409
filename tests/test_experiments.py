"""Tests for the experiment harness (repro.experiments)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.configs import available_configs, make_config
from repro.experiments.figures import (
    comm_comp_breakdown,
    loss_vs_time_series,
    summarize_series,
    tau_vs_time_series,
)
from repro.experiments.harness import MethodSpec, default_methods, run_experiment, run_method
from repro.experiments.tables import (
    accuracy_table,
    format_table,
    speedup_table,
    time_to_loss_table,
)
from repro.core.schedules import FixedCommunicationSchedule
from repro.utils.results import MetricPoint, RunRecord, RunStore


class TestConfigs:
    def test_all_named_configs_build(self):
        for name in available_configs():
            cfg = make_config(name)
            assert cfg.name == name
            assert cfg.n_workers >= 1
            assert cfg.communication_delay == pytest.approx(cfg.alpha * cfg.compute_time)

    def test_vgg_is_communication_heavy_resnet_is_not(self):
        vgg = make_config("vgg_cifar10_fixed_lr")
        resnet = make_config("resnet_cifar10_fixed_lr")
        assert vgg.alpha > 1.0 > resnet.alpha

    def test_unknown_config(self):
        with pytest.raises(ValueError):
            make_config("alexnet_imagenet")

    def test_overrides(self):
        cfg = make_config("smoke", n_workers=3, lr=0.05)
        assert cfg.n_workers == 3 and cfg.lr == 0.05

    def test_scale_shrinks_budget(self):
        base = make_config("smoke")
        scaled = make_config("smoke", scale=0.5)
        assert scaled.wall_time_budget == pytest.approx(0.5 * base.wall_time_budget)
        assert scaled.adacomm_interval == pytest.approx(0.5 * base.adacomm_interval)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            make_config("smoke", scale=0.0)

    def test_build_dataset_respects_sizes(self):
        cfg = make_config("smoke")
        ds = cfg.build_dataset(rng=0)
        assert len(ds) == cfg.n_train + cfg.n_test
        assert ds.X.shape[1] == cfg.n_features

    def test_with_overrides_returns_new_object(self):
        cfg = make_config("smoke")
        other = cfg.with_overrides(lr=0.9)
        assert cfg.lr != 0.9 and other.lr == 0.9


class TestHarness:
    def test_default_methods_include_baselines_and_adacomm(self):
        cfg = make_config("vgg_cifar10_fixed_lr")
        labels = [m.label for m in default_methods(cfg)]
        assert "sync-sgd" in labels
        assert "adacomm" in labels
        assert any(label.startswith("pasgd-tau") for label in labels)

    def test_run_method_returns_record_with_breakdown(self):
        cfg = make_config("smoke")
        method = MethodSpec("sync-sgd", lambda: FixedCommunicationSchedule(1))
        record = run_method(cfg, method)
        assert record.name == "sync-sgd"
        assert record.config["experiment"] == "smoke"
        breakdown = record.config["event_breakdown"]
        assert breakdown["total_time"] > 0
        assert breakdown["communication_rounds"] >= 1

    def test_run_experiment_collects_all_methods(self):
        cfg = make_config("smoke")
        store = run_experiment(cfg)
        assert set(store.names()) == {"sync-sgd", "pasgd-tau8", "adacomm"}
        for record in store:
            assert record.final_loss() < record.points[0].train_loss

    def test_run_experiment_is_reproducible(self):
        cfg = make_config("smoke")
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        np.testing.assert_allclose(
            a.get("sync-sgd").train_losses, b.get("sync-sgd").train_losses
        )

    def test_seed_changes_trajectory(self):
        a = run_experiment(make_config("smoke"))
        b = run_experiment(make_config("smoke", seed=1234))
        assert not np.allclose(
            a.get("sync-sgd").train_losses[-3:], b.get("sync-sgd").train_losses[-3:]
        )

    @pytest.mark.parametrize("n_classes", [5, 20])
    def test_model_head_is_sized_from_the_dataset(self, n_classes):
        # synth_cifar10 draws ten classes whatever n_classes says; the head
        # follows the data, so the run is the default one byte for byte.
        cfg = make_config("smoke", wall_time_budget=10.0)
        method = MethodSpec("sync-sgd", lambda: FixedCommunicationSchedule(1))
        expected = run_method(cfg, method)
        got = run_method(cfg.with_overrides(n_classes=n_classes), method)
        assert [(p.train_loss, p.test_accuracy) for p in got.points] == [
            (p.train_loss, p.test_accuracy) for p in expected.points
        ]

    def test_block_momentum_config_runs(self):
        cfg = make_config("smoke", block_momentum_beta=0.3, momentum=0.9)
        method = MethodSpec("pasgd-tau8", lambda: FixedCommunicationSchedule(8))
        record = run_method(cfg, method)
        assert math.isfinite(record.final_loss())

    def test_variable_lr_config_runs(self):
        cfg = make_config("smoke", variable_lr=True, lr_decay_milestones=(1.0,))
        method = MethodSpec("sync-sgd", lambda: FixedCommunicationSchedule(1))
        record = run_method(cfg, method)
        assert min(p.lr for p in record.points[1:]) <= cfg.lr


class TestTables:
    def _store(self):
        fast = RunRecord("adacomm")
        slow = RunRecord("sync-sgd")
        for t in range(6):
            fast.log(
                MetricPoint(iteration=t, wall_time=float(t), train_loss=2.0 / (t + 1), test_accuracy=0.5 + 0.05 * t)
            )
            slow.log(
                MetricPoint(iteration=t, wall_time=float(3 * t), train_loss=2.0 / (t + 1), test_accuracy=0.4 + 0.05 * t)
            )
        return RunStore.from_records([fast, slow])

    def test_format_table_alignment_and_title(self):
        text = format_table(["method", "value"], [["a", 1.0], ["bbbb", 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "method" in lines[1] and "-+-" in lines[2]
        assert len(lines) == 5

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_accuracy_table(self):
        rows = accuracy_table(self._store())
        by_name = {r[0]: r[1] for r in rows}
        assert by_name["adacomm"] == pytest.approx(75.0)
        assert by_name["sync-sgd"] == pytest.approx(65.0)

    def test_accuracy_table_with_budget(self):
        rows = accuracy_table(self._store(), time_budget=3.0)
        by_name = {r[0]: r[1] for r in rows}
        assert by_name["sync-sgd"] == pytest.approx(45.0)

    def test_time_to_loss_table(self):
        rows = time_to_loss_table(self._store(), target_loss=0.5)
        by_name = {r[0]: r[1] for r in rows}
        assert by_name["adacomm"] == 3.0
        assert by_name["sync-sgd"] == 9.0

    def test_speedup_table(self):
        rows = speedup_table(self._store(), baseline="sync-sgd", target_loss=0.5)
        by_name = {r[0]: r[1] for r in rows}
        assert by_name["adacomm"] == pytest.approx(3.0)
        assert by_name["sync-sgd"] == pytest.approx(1.0)

    def test_speedup_table_unknown_baseline(self):
        with pytest.raises(KeyError):
            speedup_table(self._store(), baseline="nope", target_loss=0.5)


class TestFigures:
    def test_loss_and_tau_series(self):
        rec = RunRecord("r")
        rec.log(MetricPoint(iteration=0, wall_time=0.0, train_loss=2.0, tau=8))
        rec.log(MetricPoint(iteration=5, wall_time=1.0, train_loss=1.0, tau=4))
        assert loss_vs_time_series(rec) == [(0.0, 2.0), (1.0, 1.0)]
        assert tau_vs_time_series(rec) == [(0.0, 8), (1.0, 4)]

    def test_loss_series_drops_inf(self):
        rec = RunRecord("r")
        rec.log(MetricPoint(iteration=0, wall_time=0.0, train_loss=float("inf")))
        rec.log(MetricPoint(iteration=1, wall_time=1.0, train_loss=1.0))
        assert loss_vs_time_series(rec) == [(1.0, 1.0)]

    def test_comm_comp_breakdown_requires_config(self):
        rec = RunRecord("r")
        with pytest.raises(KeyError):
            comm_comp_breakdown(rec)
        rec.config["event_breakdown"] = {"compute_time": 1.0}
        assert comm_comp_breakdown(rec)["compute_time"] == 1.0

    def test_summarize_series(self):
        series = [(float(i), float(i)) for i in range(100)]
        short = summarize_series(series, n_points=5)
        assert len(short) == 5
        assert short[0] == (0.0, 0.0) and short[-1] == (99.0, 99.0)
        assert summarize_series(series[:3], n_points=10) == series[:3]
        with pytest.raises(ValueError):
            summarize_series(series, n_points=1)
