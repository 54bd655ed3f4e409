"""Tests for the runtime simulator (a pure sampler) and the virtual clock."""

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
        assert clock.advance(1.5) == pytest.approx(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)


class TestRuntimeSimulator:
    def test_constant_delays_are_deterministic(self, constant_runtime):
        per_worker = constant_runtime.sample_local_period(5)
        np.testing.assert_array_equal(per_worker, [5.0] * 4)  # 5 steps × Y=1 at each worker
        assert constant_runtime.sample_communication() == pytest.approx(2.0)

    def test_per_worker_compute_shape(self, constant_runtime):
        per_worker = constant_runtime.sample_local_period(3)
        assert per_worker.shape == (4,)
        assert per_worker.max() == pytest.approx(3.0)

    def test_only_samples(self, constant_runtime):
        # The cluster is the one ledger of simulated time: the simulator's
        # public surface is its three samplers and the async worker clocks.
        public = {name for name in dir(constant_runtime) if not name.startswith("_")}
        assert public - {"compute", "network", "n_workers"} == {
            "sample_local_period", "sample_async_period", "sample_communication", "worker_clocks",
        }

    def test_local_step_is_max_over_workers(self):
        sim = RuntimeSimulator(ExponentialDelay(1.0), NetworkModel(0.0, "constant"), n_workers=8, rng=0)
        # A single parallel step across 8 exponential workers averages well above 1.
        draws = [sim.sample_local_period(1).max() for _ in range(2000)]
        assert np.mean(draws) > 1.5

    def test_period_straggler_mitigation(self):
        # Per-iteration compute cost of a τ=10 period should be lower than 10 single
        # steps taken with a barrier after each one (τ = 1 periods).
        sim = RuntimeSimulator(ExponentialDelay(1.0), NetworkModel(0.0, "constant"), n_workers=16, rng=0)
        period_costs = [sim.sample_local_period(10).max() / 10 for _ in range(400)]
        sim2 = RuntimeSimulator(ExponentialDelay(1.0), NetworkModel(0.0, "constant"), n_workers=16, rng=1)
        step_costs = [sim2.sample_local_period(1).max() for _ in range(400)]
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
        np.testing.assert_array_equal(a.sample_local_period(5), b.sample_local_period(5))
