"""Tests for utilities: seeding, results, logging."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.utils.logging import get_logger
from repro.utils.results import MetricPoint, RunRecord, RunStore
from repro.utils.seeding import SeedSequence, check_random_state


class TestSeeding:
    def test_check_random_state_int(self):
        a = check_random_state(3).normal(size=4)
        b = check_random_state(3).normal(size=4)
        np.testing.assert_allclose(a, b)

    def test_check_random_state_passthrough(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_check_random_state_none(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_check_random_state_rejects_strings(self):
        with pytest.raises(TypeError):
            check_random_state("seed")

    def test_seed_sequence_children_distinct_and_reproducible(self):
        a = SeedSequence(10)
        b = SeedSequence(10)
        children_a = [a.spawn() for _ in range(20)]
        children_b = [b.spawn() for _ in range(20)]
        assert children_a == children_b
        assert len(set(children_a)) == 20

    def test_seed_sequence_generator(self):
        seq = SeedSequence(1)
        g = seq.generator()
        assert isinstance(g, np.random.Generator)


class TestRunRecord:
    def _record(self):
        rec = RunRecord(name="test", config={"tau": 5})
        for i, (t, loss, acc) in enumerate([(0.0, 2.0, 0.2), (1.0, 1.0, 0.5), (2.0, 0.5, 0.8)]):
            rec.log(MetricPoint(iteration=i * 10, wall_time=t, train_loss=loss, test_accuracy=acc, tau=5))
        return rec

    def test_column_accessors(self):
        rec = self._record()
        assert rec.iterations == [0, 10, 20]
        assert rec.wall_times == [0.0, 1.0, 2.0]
        assert rec.train_losses == [2.0, 1.0, 0.5]
        assert rec.taus == [5, 5, 5]

    def test_monotonicity_enforced(self):
        rec = self._record()
        with pytest.raises(ValueError):
            rec.log(MetricPoint(iteration=5, wall_time=3.0, train_loss=0.1))
        with pytest.raises(ValueError):
            rec.log(MetricPoint(iteration=30, wall_time=1.0, train_loss=0.1))

    def test_final_and_best_loss(self):
        rec = self._record()
        assert rec.final_loss() == 0.5
        assert rec.best_loss() == 0.5

    def test_best_accuracy_with_budget(self):
        rec = self._record()
        assert rec.best_accuracy() == 0.8
        assert rec.best_accuracy(time_budget=1.5) == 0.5

    def test_time_to_loss(self):
        rec = self._record()
        assert rec.time_to_loss(1.5) == 1.0
        assert rec.time_to_loss(0.5) == 2.0
        assert rec.time_to_loss(0.01) == math.inf

    def test_iterations_to_loss(self):
        rec = self._record()
        assert rec.iterations_to_loss(1.0) == 10

    def test_loss_at_time(self):
        rec = self._record()
        assert rec.loss_at_time(1.5) == 1.0
        assert math.isnan(rec.loss_at_time(-1.0))

    def test_empty_record_raises(self):
        with pytest.raises(ValueError):
            RunRecord("empty").final_loss()

    def test_dict_roundtrip(self):
        rec = self._record()
        clone = RunRecord.from_dict(rec.to_dict())
        assert clone.name == rec.name
        assert clone.train_losses == rec.train_losses
        assert clone.config == rec.config


class TestRunStore:
    def _store(self):
        fast = RunRecord("fast")
        slow = RunRecord("slow")
        for t in range(5):
            fast.log(MetricPoint(iteration=t, wall_time=float(t), train_loss=2.0 - 0.4 * t))
            slow.log(MetricPoint(iteration=t, wall_time=float(2 * t), train_loss=2.0 - 0.4 * t))
        return RunStore.from_records([fast, slow])

    def test_add_get_contains(self):
        store = self._store()
        assert "fast" in store and len(store) == 2
        assert store.get("fast").name == "fast"

    def test_duplicate_name_rejected(self):
        store = self._store()
        with pytest.raises(KeyError):
            store.add(RunRecord("fast"))

    def test_speedup(self):
        store = self._store()
        assert store.speedup("fast", "slow", target_loss=0.5) == pytest.approx(2.0)

    def test_speedup_nan_when_unreachable(self):
        store = self._store()
        assert math.isnan(store.speedup("fast", "slow", target_loss=-1.0))

    def test_save_and_load(self, tmp_path):
        store = self._store()
        path = tmp_path / "runs.json"
        store.save(path)
        loaded = RunStore.load(path)
        assert sorted(loaded.names()) == ["fast", "slow"]
        assert loaded.get("fast").final_loss() == store.get("fast").final_loss()

    def test_saved_json_is_rfc8259_even_with_nonfinite_values(self, tmp_path):
        # A diverged run logs inf/NaN losses and the nan test-accuracy
        # sentinel; the saved file must still parse under a strict RFC 8259
        # reader (json.dumps's permissive default would write bare
        # NaN/Infinity tokens no other tool accepts) and the values must
        # survive the round trip exactly.
        diverged = RunRecord("diverged")
        diverged.log(MetricPoint(iteration=0, wall_time=0.0, train_loss=2.0))
        diverged.log(
            MetricPoint(iteration=10, wall_time=1.0, train_loss=math.inf,
                        extra={"grad_norm": -math.inf})
        )
        diverged.log(MetricPoint(iteration=20, wall_time=2.0, train_loss=math.nan))
        path = tmp_path / "runs.json"
        RunStore.from_records([diverged]).save(path)

        def reject_constant(token):
            raise AssertionError(f"non-RFC-8259 token {token!r} in saved JSON")

        json.loads(path.read_text(), parse_constant=reject_constant)

        rec = RunStore.load(path).get("diverged")
        assert rec.points[1].train_loss == math.inf
        assert rec.points[1].extra["grad_norm"] == -math.inf
        assert math.isnan(rec.points[2].train_loss)
        assert math.isnan(rec.points[2].test_accuracy)
        assert rec.points[0].train_loss == 2.0

    def test_sentinel_encode_decode_are_symmetric(self):
        from repro.utils.results import decode_json_floats, encode_json_floats

        payload = {
            "a": [1.0, math.inf, -math.inf, math.nan],
            "b": {"c": "Infinity", "d": "plain string"},
        }
        encoded = encode_json_floats(payload)
        assert encoded["a"][1:] == ["Infinity", "-Infinity", "NaN"]
        decoded = decode_json_floats(encoded)
        assert decoded["a"][:3] == [1.0, math.inf, -math.inf]
        assert math.isnan(decoded["a"][3])
        # Strings that *look* like sentinels decode to floats by design —
        # the mapping is symmetric, so a decode of an encode is lossless for
        # numeric data, and "plain string" passes through untouched.
        assert decoded["b"]["c"] == math.inf
        assert decoded["b"]["d"] == "plain string"


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger("foo").name == "repro.foo"
        assert get_logger("repro.bar").name == "repro.bar"
