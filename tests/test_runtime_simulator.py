"""Tests for the runtime simulator and virtual clock accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.distributions import ConstantDelay, ExponentialDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator
from repro.utils.timer import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)
        assert clock.n_advances == 2

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(3.0)
        clock.reset()
        assert clock.now == 0.0 and clock.n_advances == 0


class TestRuntimeSimulator:
    def test_constant_delays_are_deterministic(self, constant_runtime):
        timing = constant_runtime.sample_local_period(5)
        assert timing.compute_time == pytest.approx(5.0)  # 5 steps × Y=1 (max over equal workers)
        assert constant_runtime.sample_communication() == pytest.approx(2.0)

    def test_per_worker_compute_shape(self, constant_runtime):
        timing = constant_runtime.sample_local_period(3)
        assert timing.per_worker_compute.shape == (4,)
        assert timing.total == pytest.approx(3.0)

    def test_accounting_accumulates(self, constant_runtime):
        constant_runtime.sample_local_period(4)
        constant_runtime.sample_communication()
        constant_runtime.sample_local_period(4)
        breakdown = constant_runtime.breakdown()
        assert breakdown["compute_time"] == pytest.approx(8.0)
        assert breakdown["communication_time"] == pytest.approx(2.0)
        assert breakdown["n_local_steps"] == 8
        assert breakdown["n_communication_rounds"] == 1

    def test_reset_accounting(self, constant_runtime):
        constant_runtime.sample_local_period(2)
        constant_runtime.reset_accounting()
        assert constant_runtime.total_compute_time == 0.0
        assert constant_runtime.n_local_steps == 0

    def test_local_step_is_max_over_workers(self):
        sim = RuntimeSimulator(ExponentialDelay(1.0), NetworkModel(0.0, "constant"), n_workers=8, rng=0)
        # A single parallel step across 8 exponential workers averages well above 1.
        draws = [sim.sample_local_step() for _ in range(2000)]
        assert np.mean(draws) > 1.5

    def test_period_straggler_mitigation(self):
        # Per-iteration compute cost of a τ=10 period should be lower than 10 single
        # steps taken with a barrier after each one.
        sim = RuntimeSimulator(ExponentialDelay(1.0), NetworkModel(0.0, "constant"), n_workers=16, rng=0)
        period_costs = [sim.sample_local_period(10).compute_time / 10 for _ in range(400)]
        sim2 = RuntimeSimulator(ExponentialDelay(1.0), NetworkModel(0.0, "constant"), n_workers=16, rng=1)
        step_costs = [sim2.sample_local_step() for _ in range(400)]
        assert np.mean(period_costs) < np.mean(step_costs)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), n_workers=0)
        sim = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), n_workers=2)
        with pytest.raises(ValueError):
            sim.sample_local_period(0)

    def test_reproducible_with_seed(self):
        a = RuntimeSimulator(ExponentialDelay(1.0), NetworkModel(1.0, "constant"), 4, rng=42)
        b = RuntimeSimulator(ExponentialDelay(1.0), NetworkModel(1.0, "constant"), 4, rng=42)
        assert a.sample_local_period(5).compute_time == b.sample_local_period(5).compute_time
