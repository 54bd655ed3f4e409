"""Tests for ``repro.sweep``: specs, the content-addressed store, the runner.

The determinism contract is the load-bearing part: the same ``SweepSpec``
must expand to identical cell hashes and *byte-identical* stored metrics on
every run, completed cells must be skipped (zero re-execution), and a
partially-populated store must resume exactly the missing cells.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import SWEEPS, Experiment
from repro.experiments.configs import ExperimentConfig, config_spec, make_config
from repro.experiments.figures import sweep_error_runtime_frontier, sweep_loss_curves
from repro.experiments.tables import sweep_summary_table
from repro.sweep import (
    ResultStore,
    SweepRunner,
    SweepSpec,
    cell_hash,
    grid,
    paired,
    run_sweep,
)
from repro.sweep.spec import _resolve_axis
from repro.utils.results import MetricPoint, RunRecord, RunStore
from tests.conftest import Placement


def tiny_spec(name="tiny", seed_mode="shared", **base_overrides) -> SweepSpec:
    """A fast 2x2 spec on a shrunken smoke config (runs in well under 1 s)."""
    base = make_config(
        "smoke", n_train=120, n_test=40, wall_time_budget=12.0, **base_overrides
    )
    return SweepSpec(name, base, grid(tau=[1, 4], seed=[7, 8]), seed_mode=seed_mode)


class TestGridAndSpec:
    def test_grid_preserves_order_and_rejects_empty_axes(self):
        axes = grid(tau=[1, 4], seed=range(2))
        assert list(axes) == ["tau", "seed"]
        assert axes["seed"] == [0, 1]
        with pytest.raises(ValueError, match="no values"):
            grid(tau=[])

    def test_cells_cross_product_last_axis_fastest(self):
        spec = tiny_spec()
        cells = spec.cells()
        assert spec.n_cells == len(cells) == 4
        assert [c.overrides for c in cells] == [
            {"tau": 1, "seed": 7},
            {"tau": 1, "seed": 8},
            {"tau": 4, "seed": 7},
            {"tau": 4, "seed": 8},
        ]

    def test_axis_aliases_resolve_to_config_fields(self):
        base = make_config("smoke")
        spec = SweepSpec(
            "alias", base, grid(m=[2], tau=[4], lr=[0.1])
        )
        (cell,) = spec.cells()
        assert cell.config.n_workers == 2
        assert cell.config.methods == ("pasgd-tau4",)
        assert cell.config.lr == 0.1

    def test_tau_one_is_sync_sgd(self):
        spec = SweepSpec("t", make_config("smoke"), grid(tau=[1]))
        assert spec.cells()[0].config.methods == ("sync-sgd",)

    @pytest.mark.parametrize("axis, value", [("tau", 2.5), ("m", 3.7), ("tau", True), ("m", False), ("tau", "4")])
    def test_integer_axes_refuse_what_they_would_truncate(self, axis, value):
        # int() would run pasgd-tau2 / 3 workers / sync-sgd under a label that says otherwise.
        with pytest.raises(ValueError, match=f"sweep axis '{axis}' takes integers, got {value!r}"):
            SweepSpec("t", make_config("smoke"), {axis: [value]})
        (cell,) = SweepSpec("t", make_config("smoke"), grid(tau=[4.0], m=[3])).cells()
        assert (cell.config.methods, cell.config.n_workers) == (("pasgd-tau4",), 3)

    def test_method_axis(self):
        spec = SweepSpec("m", make_config("smoke"), grid(method=["adacomm"]))
        assert spec.cells()[0].config.methods == ("adacomm",)

    def test_config_axis_applies_a_named_config(self):
        assert _resolve_axis("config", "smoke") == config_spec("smoke")
        with pytest.raises(ValueError, match=r"unknown config 'nope'; available: \["):
            _resolve_axis("config", "nope")
        # Every value's fields count: only the 8-worker config sets n_workers.
        with pytest.raises(ValueError, match="'config' and 'm' both set config field 'n_workers'"):
            SweepSpec("c", ExperimentConfig(name="c"), grid(config=["vgg_cifar10_fixed_lr", "vgg_cifar10_8workers"], m=[2]))

    def test_conflicting_axes_rejected(self):
        with pytest.raises(ValueError, match="both set"):
            SweepSpec("c", make_config("smoke"), {"tau": [1], "method": ["adacomm"]})
        with pytest.raises(ValueError, match="both set"):
            SweepSpec("c", make_config("smoke"), {"m": [2], "n_workers": [4]})

    def test_invalid_axis_value_fails_at_expansion(self):
        spec = SweepSpec("bad", make_config("smoke"), {"model": ["not_a_model"]})
        with pytest.raises(ValueError, match="unknown model"):
            spec.cells()

    def test_axis_values_of_the_wrong_type_fail_at_construction(self):
        with pytest.raises(ValueError, match="sweep axis 'lr' takes finite numbers, got nan"):
            SweepSpec("bad", make_config("smoke"), {"lr": [0.1, float("nan")]})
        with pytest.raises(ValueError, match="sweep axis 'n_workers' takes integers, got 2.5"):
            SweepSpec("bad", make_config("smoke"), {"n_workers": [2, 2.5]})

    def test_lineup_that_does_not_parse_fails_at_expansion(self):
        spec = SweepSpec("bad", make_config("smoke"), {"method": ["fixed:tau=0", "sync-sgd"]})
        with pytest.raises(ValueError, match="method spec 'fixed:tau=0': tau must be >= 1, got 0"):
            spec.cells()

    def test_unknown_axis_field_rejected(self):
        spec = SweepSpec("bad", make_config("smoke"), {"not_a_field": [1]})
        with pytest.raises(TypeError):
            spec.cells()

    def test_spec_requires_axes_and_valid_seed_mode(self):
        with pytest.raises(ValueError, match="at least one axis"):
            SweepSpec("x", make_config("smoke"), {})
        with pytest.raises(ValueError, match="seed_mode"):
            SweepSpec("x", make_config("smoke"), grid(tau=[1]), seed_mode="nope")

    def test_spec_round_trips_through_json(self):
        spec = tiny_spec()
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert [c.address for c in clone.cells()] == [c.address for c in spec.cells()]
        assert clone.seed_mode == spec.seed_mode


class TestCellHashing:
    def test_hash_ignores_cosmetic_name(self):
        a = make_config("smoke").with_overrides(name="first")
        b = make_config("smoke").with_overrides(name="second")
        assert cell_hash(a) == cell_hash(b)

    def test_hash_distinguishes_physics(self):
        base = make_config("smoke")
        assert cell_hash(base) != cell_hash(base.with_overrides(lr=base.lr * 2))

    def test_same_spec_expands_to_identical_hashes(self):
        first = [c.address for c in tiny_spec().cells()]
        second = [c.address for c in tiny_spec().cells()]
        assert first == second
        assert len(set(first)) == 4

    def test_smoke_2x2_addresses_are_pinned(self):
        """Addresses are the store's keys: a change to the canonical form
        (key order, float spelling) would orphan every stored cell."""
        assert [c.address for c in SWEEPS.build("smoke_2x2").cells()] == [
            "723aa83a5139e58c", "791baeaea133710a", "e473c7bb607ff03d", "7ece42080c7dab61",
        ]
        # The method family (the benchmark's `bench_family` campaign uses the
        # same specs): a collective is named by the spec, never by a field.
        assert [c.address for c in SWEEPS.build("method_family_frontier").cells()] == [
            "585482d524507cb9", "b03659ce2db16e4c", "7b073054637dba34", "1c0d82399dc9e0f9",
            "8010e47ed8e92db3", "960e068f4d024408", "0ea1a26548d219d1", "60f0445ae5c661d5",
            "7421ce9b9de424ba", "1f3b9c9893e2b1f9", "8828a5076d38bbcd", "5d05a797d697250c",
            "3763810682cd1769", "411472388a00a96c", "bdb9c4819082a187", "2643a4163727ab19",
        ]
        # The cells behind CLAIMS.json: each one *is* its named config.
        cells = SWEEPS.build("paper_claims").cells()
        assert [c.address for c in cells] == [
            "ae59f30a5dc3dd58", "191f3ad1238442e3", "054c11781e39ab06", "ca6068a0b508032d",
            "4b22f97a8f68c81f", "336b0a15950f3614", "5d22eb3877442fea", "ba81e8837cc6d8df",
            "cc64952992953028", "d7f602330cddb474", "e792736bf232820d",
        ]
        assert [c.address for c in cells] == [cell_hash(make_config(c.overrides["config"])) for c in cells]

    def test_renamed_campaign_keeps_addresses(self):
        a = [c.address for c in tiny_spec(name="alpha").cells()]
        b = [c.address for c in tiny_spec(name="beta").cells()]
        assert a == b

    def test_shared_seed_mode_uses_config_seed(self):
        for cell in tiny_spec(seed_mode="shared").cells():
            assert cell.run_seed == cell.config.seed

    def test_decorrelated_seed_mode_derives_from_hash(self):
        cells = tiny_spec(seed_mode="decorrelated").cells()
        seeds = [c.run_seed for c in cells]
        assert len(set(seeds)) == len(seeds)  # all distinct
        for cell in cells:
            # The derived seed is folded back into the executed config, so
            # the content address always hashes exactly what runs.
            assert cell.config.seed == cell.run_seed
            assert cell.address == cell_hash(cell.config)
        again = tiny_spec(seed_mode="decorrelated").cells()
        assert [c.run_seed for c in again] == seeds
        assert [c.address for c in again] == [c.address for c in cells]

    def test_seed_modes_never_collide_in_the_store(self, tmp_path):
        """Shared- and decorrelated-mode cells of one spec have disjoint
        addresses, so a store populated by one mode can never serve
        wrong-seed results to the other as cache hits."""
        shared = tiny_spec(seed_mode="shared")
        decorrelated = tiny_spec(seed_mode="decorrelated")
        shared_addresses = {c.address for c in shared.cells()}
        decorrelated_addresses = {c.address for c in decorrelated.cells()}
        assert not shared_addresses & decorrelated_addresses
        run_sweep(shared, tmp_path)
        report = run_sweep(decorrelated, tmp_path)
        assert len(report.executed) == 4 and not report.cached


class TestResultStore:
    def test_missing_cell_raises_keyerror(self, tmp_path):
        store = ResultStore(tmp_path)
        assert "deadbeef" not in store
        with pytest.raises(KeyError):
            store.runs("deadbeef")
        with pytest.raises(KeyError):
            store.meta("deadbeef")

    def test_incomplete_cell_not_counted(self, tmp_path):
        store = ResultStore(tmp_path)
        cell_dir = store.cell_dir("abc123")
        cell_dir.mkdir(parents=True)
        (cell_dir / "cell.json").write_text("{}")
        # No result.json yet: the cell must not be treated as complete.
        assert "abc123" not in store
        assert store.addresses() == []

    def test_non_finite_floats_round_trip_as_strict_json(self, tmp_path):
        def refuse(token):
            raise ValueError(f"non-RFC-8259 token {token}")

        record = RunRecord("sync-sgd", {"max_iterations": math.inf})
        record.log(MetricPoint(0, 0.0, math.nan, extra={"low": -math.inf}))
        store = ResultStore(tmp_path)
        store.put("abc123", {"wall_time_budget": math.inf}, RunStore.from_records([record]).to_payload())
        for name in ("cell.json", "result.json"):
            json.loads((store.cell_dir("abc123") / name).read_text(), parse_constant=refuse)
        assert store.meta("abc123") == {"wall_time_budget": math.inf}
        run = store.runs("abc123").get("sync-sgd")
        assert run.config == {"max_iterations": math.inf}
        (point,) = run.points
        assert math.isnan(point.train_loss) and math.isnan(point.test_accuracy)
        assert point.extra == {"low": -math.inf}

    def test_manifest_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.write_manifest("camp", {"cells": []})
        assert store.campaigns() == ["camp"]
        assert store.manifest("camp") == {"cells": []}
        with pytest.raises(KeyError):
            store.manifest("other")


class TestRunnerDeterminismAndResume:
    def test_two_runs_byte_identical_stores(self, tmp_path):
        spec = tiny_spec()
        report_a = run_sweep(spec, tmp_path / "a")
        report_b = run_sweep(tiny_spec(), tmp_path / "b")
        assert sorted(report_a.executed) == sorted(report_b.executed)
        for cell in spec.cells():
            for fname in ("cell.json", "result.json"):
                bytes_a = (report_a.store.cell_dir(cell.address) / fname).read_bytes()
                bytes_b = (report_b.store.cell_dir(cell.address) / fname).read_bytes()
                assert bytes_a == bytes_b, f"{fname} differs for {cell.label}"

    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, tmp_path)
        assert len(first.executed) == 4 and not first.cached
        second = run_sweep(tiny_spec(), tmp_path)
        assert not second.executed
        assert len(second.cached) == 4
        assert second.ok

    def test_partial_store_resumes_only_missing_cells(self, tmp_path):
        spec = tiny_spec()
        report = run_sweep(spec, tmp_path)
        victim = report.executed[2]
        before = (report.store.cell_dir(victim) / "result.json").read_bytes()
        (report.store.cell_dir(victim) / "result.json").unlink()

        resumed = run_sweep(tiny_spec(), tmp_path)
        assert resumed.executed == [victim]
        assert len(resumed.cached) == 3
        after = (report.store.cell_dir(victim) / "result.json").read_bytes()
        assert after == before  # the re-executed cell reproduces its bytes

    def test_truncated_result_resumes_to_a_clean_runs_bytes(self, tmp_path):
        clean = run_sweep(tiny_spec(), tmp_path / "clean")
        report = run_sweep(tiny_spec(), tmp_path / "damaged")
        victim = report.executed[1]
        result = report.store.cell_dir(victim) / "result.json"
        result.write_bytes(result.read_bytes()[:100])
        assert victim not in report.store and victim not in report.store.addresses()

        resumed = run_sweep(tiny_spec(), tmp_path / "damaged")
        assert resumed.executed == [victim] and len(resumed.cached) == 3
        assert _store_files(tmp_path / "damaged") == _store_files(clean.store.root)

    def test_parallel_matches_serial_bytes(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        serial = run_sweep(spec, tmp_path / "serial")
        # The helper delay could leave every cell to the parent; the
        # placement makes the forked helper take the last one.
        placement = Placement(monkeypatch)
        parallel = run_sweep(tiny_spec(), tmp_path / "par", jobs=2)
        assert placement.helper_claimed and len(placement.parent_ran) < len(serial.executed)
        assert parallel.executed == serial.executed
        for address in serial.executed:
            assert (
                (serial.store.cell_dir(address) / "result.json").read_bytes()
                == (parallel.store.cell_dir(address) / "result.json").read_bytes()
            )

    def test_duplicate_cells_collapse(self, tmp_path):
        # Two axis values expanding to identical configs -> one stored cell.
        spec = SweepSpec(
            "dup",
            make_config("smoke", n_train=120, n_test=40, wall_time_budget=8.0),
            {"method": ["sync-sgd", "sync-sgd"]},
        )
        cells = spec.cells()
        assert len(cells) == 2
        assert cells[0].address == cells[1].address
        report = run_sweep(spec, tmp_path)
        assert len(report.executed) == 1
        assert report.total == 2

    def test_failed_cell_reported_not_raised(self, tmp_path):
        # A lineup that does not parse is refused at expansion (validate); a CNN
        # that cannot view 15 features as an image fails only when it is built.
        spec = SweepSpec(
            "boom",
            make_config("smoke", n_train=120, n_test=40, n_features=15, wall_time_budget=8.0),
            {"model": ["vgg_lite_cnn", "mlp"]},
        )
        report = run_sweep(spec, tmp_path)
        assert not report.ok
        assert len(report.failed) == 1
        assert len(report.executed) == 1
        (failed_address,) = report.failed
        assert failed_address not in report.store

    def test_results_iterates_stored_trajectories(self, tmp_path):
        report = run_sweep(tiny_spec(), tmp_path)
        results = list(report.results())
        assert len(results) == 4
        for cell in results:
            names = cell.runs.names()
            assert names in (["sync-sgd"], ["pasgd-tau4"])
            assert all(rec.points for rec in cell.runs)

    def test_runner_rejects_bad_jobs(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            SweepRunner(tmp_path, jobs=0)


class TestNamedCampaignsAndExperimentSweep:
    def test_registered_campaigns_expand(self):
        for name in ("tau_error_runtime", "variable_vs_fixed_tau", "worker_scaling",
                     "smoke_2x2"):
            spec = SWEEPS.build(name)
            assert spec.n_cells >= 4
            assert len({c.address for c in spec.cells()}) == spec.n_cells

    def test_sweeps_listed_in_api_registries(self):
        from repro.api import all_registries

        assert "smoke_2x2" in all_registries()["sweeps"].names()

    def test_experiment_sweep_runs_and_resumes(self, tmp_path):
        exp = Experiment("smoke").set(n_train=120, n_test=40, wall_time_budget=10.0)
        report = exp.sweep(tau=[1, 4], store=str(tmp_path), name="fluent")
        assert report.sweep == "fluent"
        assert len(report.executed) == 2
        again = exp.sweep(tau=[1, 4], store=str(tmp_path), name="fluent")
        assert not again.executed and len(again.cached) == 2


class TestRenderingFromStore:
    @pytest.fixture()
    def populated(self, tmp_path):
        report = run_sweep(tiny_spec(), tmp_path)
        addresses = report.executed
        # Render from a *fresh* handle: nothing in memory, only the directory.
        return ResultStore(tmp_path), addresses

    def test_summary_table_from_store_alone(self, populated):
        store, addresses = populated
        rows = sweep_summary_table(store, addresses, target_loss=1.0)
        assert len(rows) == 4
        for cell_label, method, best_loss, best_acc, t_target in rows:
            assert method in ("sync-sgd", "pasgd-tau4")
            assert best_loss > 0 and 0 <= best_acc <= 100

    def test_loss_curves_from_store_alone(self, populated):
        store, addresses = populated
        curves = sweep_loss_curves(store, addresses)
        assert len(curves) == 4
        for label, series in curves.items():
            assert "::" in label and len(series) >= 2

    def test_error_runtime_frontier(self, populated):
        store, addresses = populated
        frontier = sweep_error_runtime_frontier(store, target_loss=1.0, addresses=addresses)
        assert len(frontier) == 4
        for _, t_target, best_loss in frontier:
            assert t_target > 0 and best_loss > 0


class TestSweepCLI:
    def test_list_sweeps(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list", "sweeps"]) == 0
        out = capsys.readouterr().out
        assert "smoke_2x2" in out and "tau_error_runtime" in out

    def test_cli_sweep_runs_then_caches(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["--sweep", "smoke_2x2", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "executed=4 cached=0" in out
        assert "rendered from" in out

        assert main(["--sweep", "smoke_2x2", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "executed=0 cached=4" in out

    def test_cli_unknown_sweep_errors(self, tmp_path):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit, match="unknown sweep"):
            main(["--sweep", "nope", "--store", str(tmp_path)])

    @pytest.mark.parametrize(
        "extra",
        [["--set", "n_workers=8"], ["--scale", "0.5"], ["--seed", "3"],
         ["--model", "mlp"], ["--backend", "loop"], ["--config", "smoke"]],
        ids=["set", "scale", "seed", "model", "backend", "config"],
    )
    def test_cli_rejects_single_run_flags_with_sweep(self, tmp_path, extra):
        """Flags that would be silently ignored must fail loudly instead."""
        from repro.experiments.cli import main

        with pytest.raises(SystemExit, match="cannot be combined with --sweep"):
            main(["--sweep", "smoke_2x2", "--store", str(tmp_path), *extra])


class TestNonGridExpansions:
    def test_paired_axes_carry_the_expansion_mode(self):
        # paired(...) alone is enough — no separate flag to forget, so the
        # intent cannot silently degrade into a full cross-product.
        spec = SweepSpec("diag", make_config("smoke"), paired(m=[2, 4], tau=[8, 4]))
        assert spec.expansion == "paired"
        cells = spec.cells()
        assert spec.n_cells == len(cells) == 2
        assert [c.overrides for c in cells] == [{"m": 2, "tau": 8}, {"m": 4, "tau": 4}]
        assert cells[0].config.n_workers == 2
        assert cells[0].config.methods == ("pasgd-tau8",)
        assert cells[1].config.n_workers == 4

    def test_plain_dict_axes_with_explicit_flag(self):
        spec = SweepSpec(
            "diag", make_config("smoke"), grid(m=[2, 4], tau=[8, 4]),
            expansion="paired",
        )
        assert spec.n_cells == 2

    def test_paired_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            paired(m=[2, 4], tau=[8])
        with pytest.raises(ValueError, match="equal lengths"):
            SweepSpec("bad", make_config("smoke"), grid(m=[2, 4], tau=[8]),
                      expansion="paired")
        with pytest.raises(ValueError, match="expansion"):
            SweepSpec("bad", make_config("smoke"), grid(tau=[1]), expansion="spiral")

    def test_random_sampling_is_a_deterministic_subset(self):
        full = tiny_spec()
        sampled = full.random(3, seed=11)
        cells = sampled.cells()
        assert sampled.n_cells == len(cells) == 3
        assert [c.address for c in cells] == [c.address for c in sampled.cells()]
        full_addresses = {c.address for c in full.cells()}
        assert {c.address for c in cells} <= full_addresses
        # Enumeration keeps the underlying grid order; indices are sequential.
        assert [c.index for c in cells] == [0, 1, 2]
        other = full.random(3, seed=12).cells()
        assert [c.address for c in other] != [c.address for c in cells]

    def test_random_larger_than_grid_keeps_every_cell(self):
        spec = tiny_spec().random(99, seed=0)
        assert spec.n_cells == 4
        assert len(spec.cells()) == 4

    def test_random_validates_n(self):
        with pytest.raises(ValueError, match=">= 1"):
            tiny_spec().random(0)

    def test_expansion_and_sampling_round_trip_through_json(self):
        sampled = tiny_spec().random(2, seed=5)
        clone = SweepSpec.from_dict(json.loads(json.dumps(sampled.to_dict())))
        assert [c.address for c in clone.cells()] == [c.address for c in sampled.cells()]
        diag = SweepSpec("diag", make_config("smoke"), paired(m=[2, 4], tau=[8, 4]))
        clone = SweepSpec.from_dict(json.loads(json.dumps(diag.to_dict())))
        assert clone.expansion == "paired"
        assert [c.address for c in clone.cells()] == [c.address for c in diag.cells()]

    def test_sampled_campaign_runs_and_resumes_from_store(self, tmp_path):
        sampled = tiny_spec().random(2, seed=3)
        report = run_sweep(sampled, tmp_path)
        assert len(report.executed) == 2
        again = run_sweep(tiny_spec().random(2, seed=3), tmp_path)
        assert not again.executed and len(again.cached) == 2
        # The sample is a sub-campaign of the full grid: running the full
        # grid afterwards re-uses the sampled cells as cache hits.
        full = run_sweep(tiny_spec(), tmp_path)
        assert len(full.cached) == 2 and len(full.executed) == 2


class TestStoreMergeAndGC:
    def _populated(self, tmp_path, name):
        store_dir = tmp_path / name
        report = run_sweep(tiny_spec(), store_dir)
        return ResultStore(store_dir), report

    def test_merge_unions_cells_and_manifests_byte_identically(self, tmp_path):
        src, report = self._populated(tmp_path, "src")
        dst = ResultStore(tmp_path / "dst")
        merged = dst.merge_from(src)
        assert merged.ok
        assert sorted(merged.copied) == sorted(report.executed)
        assert merged.manifests_copied == ["tiny"]
        for address in report.executed:
            assert (
                (dst.cell_dir(address) / "result.json").read_bytes()
                == (src.cell_dir(address) / "result.json").read_bytes()
            )
        # Re-merging is a no-op: everything already identical.
        again = dst.merge_from(src)
        assert again.ok and not again.copied
        assert sorted(again.identical) == sorted(report.executed)
        # The merged store serves the campaign as pure cache hits.
        rerun = run_sweep(tiny_spec(), dst.root)
        assert not rerun.executed and len(rerun.cached) == 4

    def test_merge_dry_run_writes_nothing(self, tmp_path):
        src, report = self._populated(tmp_path, "src")
        dst = ResultStore(tmp_path / "dst")
        merged = dst.merge_from(src, dry_run=True)
        assert sorted(merged.copied) == sorted(report.executed)
        assert len(dst) == 0 and dst.campaigns() == []

    def test_merge_refuses_on_differing_bytes(self, tmp_path):
        src, report = self._populated(tmp_path, "src")
        dst, _ = self._populated(tmp_path, "dst")
        victim = report.executed[0]
        original = (dst.cell_dir(victim) / "result.json").read_text()
        (src.cell_dir(victim) / "result.json").write_text('{"corrupt": true}\n')
        merged = dst.merge_from(src)
        assert not merged.ok
        assert merged.conflicts == [victim]
        assert len(merged.identical) == 3
        # The conflicting cell was left untouched in the destination.
        assert (dst.cell_dir(victim) / "result.json").read_text() == original

    def test_refused_merge_writes_nothing_at_all(self, tmp_path):
        # All-or-nothing: even cells that *could* be copied cleanly are not
        # written when any address conflicts elsewhere in the source.
        src, report = self._populated(tmp_path, "src")
        dst, _ = self._populated(tmp_path, "dst")
        missing, conflicting = report.executed[0], report.executed[1]
        import shutil

        shutil.rmtree(dst.cell_dir(missing))
        (src.cell_dir(conflicting) / "result.json").write_text('{"corrupt": true}\n')
        (dst.root / "sweeps" / "tiny.json").unlink()
        merged = dst.merge_from(src)
        assert not merged.ok
        assert merged.copied == [missing]
        assert merged.manifests_copied == ["tiny"]
        # ...but the refused merge wrote none of them.
        assert missing not in dst
        assert "tiny" not in dst.campaigns()

    def test_merge_refuses_on_manifest_conflict(self, tmp_path):
        src, _ = self._populated(tmp_path, "src")
        dst, _ = self._populated(tmp_path, "dst")
        dst.write_manifest("tiny", {"name": "tiny", "cells": []})
        merged = dst.merge_from(src)
        assert merged.manifest_conflicts == ["tiny"]
        assert not merged.ok

    def test_gc_prunes_only_unreferenced_cells(self, tmp_path):
        store, report = self._populated(tmp_path, "store")
        keep = set(report.executed[:2])
        manifest = store.manifest("tiny")
        manifest["cells"] = [c for c in manifest["cells"] if c["address"] in keep]
        store.write_manifest("tiny", manifest)

        orphans = store.gc(dry_run=True)
        assert sorted(orphans) == sorted(set(report.executed) - keep)
        assert len(store) == 4  # dry run removed nothing

        removed = store.gc()
        assert sorted(removed) == sorted(orphans)
        assert sorted(store.addresses()) == sorted(keep)

    def test_gc_prunes_incomplete_orphans_too(self, tmp_path):
        store, _ = self._populated(tmp_path, "store")
        half_cell = store.cell_dir("feedface00000000")
        half_cell.mkdir(parents=True)
        (half_cell / "cell.json").write_text("{}")
        removed = store.gc()
        assert removed == ["feedface00000000"]
        assert len(store) == 4

    def test_gc_collects_orphaned_temp_files(self, tmp_path):
        # A writer killed between its write and its rename leaves a *.tmp.
        store, report = self._populated(tmp_path, "store")
        planted = [
            store.cell_dir(report.executed[0]) / "result.json.tmp",
            store.root / "sweeps" / "tiny.json.tmp",
        ]
        for path in planted:
            path.write_text('{"trunc')
        before = _store_files(store.root)
        listed = store.gc(dry_run=True)
        assert listed == sorted(str(path.relative_to(store.root)) for path in planted)
        assert _store_files(store.root) == before  # dry run removed nothing
        assert store.gc() == listed
        for path in planted:
            del before[str(path.relative_to(store.root))]
        assert _store_files(store.root) == before

    def test_gc_on_empty_store(self, tmp_path):
        assert ResultStore(tmp_path / "empty").gc() == []

    def test_interrupted_campaign_survives_gc(self, tmp_path):
        # The runner records the manifest before executing any cell, so a
        # killed campaign's completed cells stay referenced and gc-safe.
        class Interrupt(RuntimeError):
            pass

        executed = []

        def progress(line):
            if line.startswith("[sweep] executed "):
                executed.append(line)
                if len(executed) == 2:
                    raise Interrupt(line)

        store = ResultStore(tmp_path)
        with pytest.raises(Interrupt):
            SweepRunner(store, progress=progress).run(tiny_spec())
        assert 0 < len(store) < 4  # genuinely interrupted mid-campaign
        assert store.campaigns() == ["tiny"]
        assert store.gc() == []  # nothing orphaned
        completed_before_resume = len(store)
        resumed = run_sweep(tiny_spec(), tmp_path)
        assert resumed.ok
        assert len(resumed.cached) == completed_before_resume
        assert len(resumed.executed) == 4 - completed_before_resume


class TestHashExcludesProcessLayout:
    def test_layout_fields_do_not_change_addresses(self):
        base = make_config("smoke")
        assert cell_hash(base) == cell_hash(
            base.with_overrides(backend_shards=8, auto_shard_threshold=2)
        )
        # Physics fields still change the address.
        assert cell_hash(base) != cell_hash(base.with_overrides(lr=0.123))

    def test_sweeps_differing_only_in_layout_share_cells(self, tmp_path):
        store_dir = tmp_path / "store"
        first = run_sweep(tiny_spec(), store_dir)
        assert len(first.executed) == 4
        # Same campaign re-run under a different process layout: pure cache hits.
        relaid = tiny_spec(backend_shards=4, auto_shard_threshold=2)
        second = run_sweep(relaid, store_dir)
        assert second.executed == [] and len(second.cached) == 4


def _store_files(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestKilledPoolWorker:
    def test_sigkill_mid_cell_costs_time_not_bytes(self, tmp_path, monkeypatch, leaks):
        base = make_config("smoke", n_train=120, n_test=40, wall_time_budget=24.0)
        spec = SweepSpec("killed", base, grid(tau=[1, 4], seed=[7, 8, 9]))
        # The helper is SIGKILLed right after it claims the last cell.
        placement = Placement(monkeypatch, kill=True)
        reports = []
        sweep = threading.Thread(
            target=lambda: reports.append(run_sweep(spec, tmp_path / "killed", jobs=2)), daemon=True
        )
        sweep.start()
        sweep.join(timeout=120)
        assert not sweep.is_alive(), "the campaign hung after its helper was killed"
        (report,) = reports
        (helpers,) = placement.helpers
        assert placement.helper_claimed
        assert [proc.exitcode for proc in helpers.procs] == [-signal.SIGKILL]
        assert report.ok and report.executed == [cell.address for cell in spec.cells()]
        assert len(placement.parent_ran) == 6  # the parent reran the helper's cell
        assert not leaks.children(grace=0)

        run_sweep(spec, tmp_path / "clean")
        assert _store_files(tmp_path / "killed") == _store_files(tmp_path / "clean")


#: Loaded by every interpreter started with it on ``PYTHONPATH``: the parent's
#: first cell runs, every later ``run_method`` on any process marks the file
#: ``<HOLD_DIR>/<pid>`` and sleeps, so a signal finds each process mid-cell.
_HOLD_CELLS = """\
import multiprocessing, os, time
from pathlib import Path
from repro.experiments import harness

_run_method, _calls = harness.run_method, []

def run_method(*args, **kwargs):
    _calls.append(None)
    if len(_calls) > 1 or multiprocessing.parent_process() is not None:
        Path(os.environ["HOLD_DIR"], str(os.getpid())).touch()
        time.sleep(600)
    return _run_method(*args, **kwargs)

harness.run_method = run_method
"""


def _processes() -> dict:
    """``{pid: parent pid}`` of every live, not yet reaped-or-zombie process, from ``/proc``."""
    processes = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:  # exited while we looked
            continue
        if state != "Z":
            processes[int(stat.parent.name)] = int(ppid)
    return processes


def _descendants(pid: int) -> set:
    processes, found, frontier = _processes(), set(), {pid}
    while frontier:
        frontier = {child for child, parent in processes.items() if parent in frontier} - found
        found |= frontier
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process tree from /proc")
class TestInterruptedSweep:
    def test_sigint_mid_cell_leaves_no_child_and_resumes_to_identical_bytes(self, tmp_path, leaks):
        src = str(Path(repro.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "repro", "--sweep", "smoke_2x2", "--jobs", "2", "--store"]
        hold = tmp_path / "hold"
        hold.mkdir()
        (tmp_path / "sitecustomize.py").write_text(_HOLD_CELLS)
        env = {**os.environ, "PYTHONPATH": f"{tmp_path}{os.pathsep}{src}", "HOLD_DIR": str(hold)}
        sweep = subprocess.Popen(
            [*argv, str(tmp_path / "interrupted")], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            # Parent and helper each hold in a cell.
            deadline = time.monotonic() + 120
            while len(list(hold.iterdir())) < 2 and sweep.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(list(hold.iterdir())) == 2, sweep.stderr.read().decode() if sweep.poll() else ""
            children = _descendants(sweep.pid)
            assert {int(path.name) for path in hold.iterdir()} - {sweep.pid} <= children
            sweep.send_signal(signal.SIGINT)
            assert sweep.wait(timeout=60) != 0
        finally:
            sweep.kill()
            sweep.wait()
            sweep.stderr.close()
        deadline = time.monotonic() + 10
        while children & set(_processes()) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = children & set(_processes())
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors, "a child of the interrupted sweep survived it"
        assert len(ResultStore(tmp_path / "interrupted")) == 1  # the parent's first cell

        plain = {**os.environ, "PYTHONPATH": src}
        for store in ("interrupted", "clean"):
            subprocess.run([*argv, str(tmp_path / store)], env=plain, check=True,
                           stdout=subprocess.DEVNULL, timeout=300)
        assert _store_files(tmp_path / "interrupted") == _store_files(tmp_path / "clean")


class TestStoreQuery:
    def _populated(self, tmp_path):
        store_dir = tmp_path / "store"
        run_sweep(tiny_spec(), store_dir)
        return ResultStore(store_dir)

    def test_exact_match_filters_by_recorded_overrides(self, tmp_path):
        store = self._populated(tmp_path)
        hits = store.query({"tau": 4})
        assert len(hits) == 2
        assert all(hit.overrides["tau"] == 4 for hit in hits)
        assert sorted(hit.overrides["seed"] for hit in hits) == [7, 8]
        assert all(hit.completed and hit.campaign == "tiny" for hit in hits)
        # Conjunction of keys narrows to a single cell.
        (hit,) = store.query({"tau": 4, "seed": 7})
        assert hit.overrides == {"tau": 4, "seed": 7}
        assert hit.address in store

    def test_missing_key_and_value_type_mismatches_never_match(self, tmp_path):
        store = self._populated(tmp_path)
        # No cell ever set an "m" axis, so querying it matches nothing.
        assert store.query({"m": 2}) == []
        # Exact equality, not string coercion: "4" != 4.
        assert store.query({"tau": "4"}) == []
        assert store.query({"tau": 99}) == []

    def test_tuple_values_match_their_json_list_form(self, tmp_path):
        # Manifests store overrides as JSON, so a tuple-valued axis is
        # recorded as a list; the query must match the config-side tuple.
        store_dir = tmp_path / "store"
        base = make_config("smoke", n_train=120, n_test=40, wall_time_budget=8.0)
        spec = SweepSpec(
            "tuples", base, grid(hidden_sizes=[(16,), (16, 8)], tau=[1])
        )
        run_sweep(spec, store_dir)
        store = ResultStore(store_dir)
        hits = store.query({"hidden_sizes": (16,)})
        assert len(hits) == 1 and hits[0].overrides["hidden_sizes"] == [16]
        assert len(store.query({"hidden_sizes": [16, 8]})) == 1

    def test_empty_where_lists_everything_and_flags_pending(self, tmp_path):
        store = self._populated(tmp_path)
        hits = store.query()
        assert len(hits) == 4 and all(hit.completed for hit in hits)
        # Drop one result file: the manifest still lists the cell, but it
        # now reports as pending (what is left to run).
        victim = hits[0].address
        (store.cell_dir(victim) / "result.json").unlink()
        refreshed = {hit.address: hit.completed for hit in store.query()}
        assert refreshed[victim] is False
        assert sum(refreshed.values()) == 3

    def test_campaign_restriction_and_unknown_campaign(self, tmp_path):
        store = self._populated(tmp_path)
        assert len(store.query(campaign="tiny")) == 4
        with pytest.raises(KeyError, match="no manifest"):
            store.query(campaign="nope")

    def test_query_verb_cli(self, tmp_path, capsys):
        from repro.sweep.__main__ import main

        store_dir = tmp_path / "store"
        run_sweep(tiny_spec(), store_dir)
        assert main(["query", str(store_dir), "--where", "tau=4"]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s) match tau=4" in out and "done" in out
        assert main(["query", str(store_dir), "--where", "tau=4",
                     "--where", "seed=7"]) == 0
        assert "1 cell(s) match" in capsys.readouterr().out
        assert main(["query", str(store_dir), "--where", "m=2"]) == 0
        assert "0 cell(s) match" in capsys.readouterr().out
        assert main(["query", str(store_dir), "--campaign", "nope"]) == 1
        assert "no manifest" in capsys.readouterr().err


    def test_query_verb_refuses_a_non_finite_value(self, tmp_path, capsys):
        from repro.sweep.__main__ import main

        store_dir = tmp_path / "store"
        run_sweep(tiny_spec(), store_dir)
        assert main(["query", str(store_dir), "--where", "lr=nan"]) == 1
        assert "error: Out of range float values are not JSON compliant" in capsys.readouterr().err


class TestSweepMaintenanceCLI:
    def test_merge_verb(self, tmp_path, capsys):
        from repro.sweep.__main__ import main

        run_sweep(tiny_spec(), tmp_path / "src")
        assert main(["merge", str(tmp_path / "src"), str(tmp_path / "dst")]) == 0
        out = capsys.readouterr().out
        assert "copied=4" in out and "conflicts=0" in out
        assert len(ResultStore(tmp_path / "dst")) == 4

    def test_merge_verb_refuses_conflicts(self, tmp_path, capsys):
        from repro.sweep.__main__ import main

        report = run_sweep(tiny_spec(), tmp_path / "src")
        run_sweep(tiny_spec(), tmp_path / "dst")
        victim = report.executed[0]
        (ResultStore(tmp_path / "src").cell_dir(victim) / "result.json").write_text("{}\n")
        assert main(["merge", str(tmp_path / "src"), str(tmp_path / "dst")]) == 1
        captured = capsys.readouterr()
        assert "CONFLICT" in captured.out
        assert "refusing merge" in captured.err

    def test_gc_verb_dry_run_then_delete(self, tmp_path, capsys):
        from repro.sweep.__main__ import main

        store_dir = tmp_path / "store"
        store = ResultStore(store_dir)
        run_sweep(tiny_spec(), store_dir)
        (store.root / "sweeps" / "tiny.json").unlink()
        assert main(["gc", str(store_dir), "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
        assert len(store) == 4
        assert main(["gc", str(store_dir)]) == 0
        assert "4 orphan cell(s) removed" in capsys.readouterr().out
        assert len(store) == 0

    def test_requires_a_verb(self):
        from repro.sweep.__main__ import main

        with pytest.raises(SystemExit):
            main([])
