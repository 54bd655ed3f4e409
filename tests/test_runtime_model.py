"""Tests for the runtime model: order statistics, network scalings, eq. 7–12."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registries import NETWORK_SCALINGS
from repro.runtime.distributions import ConstantDelay, ExponentialDelay, ParetoDelay
from repro.runtime.model import (
    expected_runtime_pasgd,
    expected_runtime_sync,
    speedup_constant_delays,
    speedup_over_sync,
)
from repro.runtime.network import (
    NetworkModel,
    constant_scaling,
    parameter_server_scaling,
    reduction_tree_scaling,
    ring_allreduce_scaling,
)
from repro.runtime.order_stats import (
    empirical_max_distribution,
    expected_max_averaged,
    expected_max_exponential,
    expected_max_iid,
    harmonic_number,
)


class TestOrderStats:
    def test_harmonic_number(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_expected_max_exponential_formula(self):
        # E[Y_{m:m}] = y * H_m for exponential compute times (paper, Sec. 3.2).
        assert expected_max_exponential(2.0, 3) == pytest.approx(2.0 * harmonic_number(3))

    def test_expected_max_iid_constant_is_constant(self):
        assert expected_max_iid(ConstantDelay(3.0), 10) == 3.0

    def test_expected_max_iid_exponential_uses_closed_form(self):
        assert expected_max_iid(ExponentialDelay(1.0), 8) == pytest.approx(harmonic_number(8))

    def test_expected_max_monte_carlo_close_to_closed_form(self):
        mc = expected_max_iid(ParetoDelay(1.0, 4.0), 1, n_samples=40000, rng=0)
        assert mc == pytest.approx(ParetoDelay(1.0, 4.0).mean, rel=0.03)

    def test_expected_max_increases_with_workers(self):
        dist = ExponentialDelay(1.0)
        values = [expected_max_iid(dist, m) for m in (1, 2, 4, 8, 16)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_averaging_reduces_expected_max(self):
        # E[Ȳ_{m:m}] < E[Y_{m:m}] — the straggler-mitigation effect (Figure 5).
        dist = ExponentialDelay(1.0)
        no_avg = expected_max_averaged(dist, 16, 1, n_samples=20000, rng=0)
        with_avg = expected_max_averaged(dist, 16, 10, n_samples=20000, rng=0)
        assert with_avg < no_avg

    def test_empirical_max_distribution_mean_shift(self):
        # PASGD's per-iteration runtime should have both smaller mean and lighter tail.
        sync = empirical_max_distribution(ExponentialDelay(1.0), 16, 1, comm_delay=1.0, rng=0)
        pasgd = empirical_max_distribution(ExponentialDelay(1.0), 16, 10, comm_delay=1.0, rng=0)
        assert pasgd.mean() < sync.mean()
        assert np.quantile(pasgd, 0.99) < np.quantile(sync, 0.99)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            expected_max_iid(ExponentialDelay(1.0), 0)
        with pytest.raises(ValueError):
            expected_max_averaged(ExponentialDelay(1.0), 4, 0)
        with pytest.raises(ValueError):
            harmonic_number(0)


class TestNetworkScalings:
    def test_values(self):
        assert constant_scaling(8) == 1.0
        assert parameter_server_scaling(8) == 8.0
        assert reduction_tree_scaling(8) == pytest.approx(6.0)
        assert ring_allreduce_scaling(8) == pytest.approx(2 * 7 / 8)

    def test_single_worker_edge_case(self):
        assert reduction_tree_scaling(1) == 1.0
        assert ring_allreduce_scaling(1) == 1.0

    def test_make_scaling(self):
        assert NETWORK_SCALINGS.get("reduction_tree") is reduction_tree_scaling
        with pytest.raises(ValueError):
            NETWORK_SCALINGS.get("torus")
        with pytest.raises(ValueError, match="unknown scaling 'torus'"):
            NetworkModel(1.0, "torus")

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            parameter_server_scaling(0)

    def test_network_model_mean_delay(self):
        net = NetworkModel(base_delay=0.5, scaling="parameter_server")
        assert net.mean_delay(4) == pytest.approx(2.0)
        assert net.sample_delay(4) == net.mean_delay(4)  # D = D0 * s(m), no jitter

    def test_negative_base_delay(self):
        with pytest.raises(ValueError):
            NetworkModel(base_delay=-1.0, scaling="constant")


class TestRuntimeEquations:
    def test_sync_runtime_constant_delays(self):
        # eq. 8 with constants: E[T_sync] = Y + D.
        t = expected_runtime_sync(ConstantDelay(1.0), NetworkModel(2.0, "constant"), m=4)
        assert t == pytest.approx(3.0)

    def test_pasgd_runtime_constant_delays(self):
        # eq. 11 with constants: E[T_PAvg] = Y + D/τ.
        t = expected_runtime_pasgd(ConstantDelay(1.0), NetworkModel(2.0, "constant"), m=4, tau=10)
        assert t == pytest.approx(1.2)

    def test_speedup_formula_eq12(self):
        # speedup = (1 + α) / (1 + α/τ).
        assert speedup_constant_delays(0.9, 1) == pytest.approx(1.0)
        assert speedup_constant_delays(0.9, 10) == pytest.approx(1.9 / 1.09)
        assert speedup_constant_delays(0.0, 100) == pytest.approx(1.0)

    def test_speedup_vectorized(self):
        taus = np.array([1, 10, 100])
        out = speedup_constant_delays(0.5, taus)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

    def test_speedup_limits(self):
        # As τ → ∞, the speedup approaches 1 + α.
        assert speedup_constant_delays(0.5, 10**6) == pytest.approx(1.5, rel=1e-4)

    def test_general_speedup_matches_formula_for_constants(self):
        compute = ConstantDelay(1.0)
        net = NetworkModel(base_delay=0.9, scaling="constant")
        s = speedup_over_sync(compute, net, m=4, tau=20)
        assert s == pytest.approx(speedup_constant_delays(0.9, 20))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            speedup_constant_delays(-0.1, 5)
        with pytest.raises(ValueError):
            speedup_constant_delays(0.5, 0)
        with pytest.raises(ValueError):
            expected_runtime_pasgd(ConstantDelay(1.0), NetworkModel(1.0, "constant"), 4, 0)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=10.0),
    tau1=st.integers(min_value=1, max_value=500),
    tau2=st.integers(min_value=1, max_value=500),
)
def test_property_speedup_monotone_in_tau_and_bounded(alpha, tau1, tau2):
    """Speed-up (eq. 12) is ≥ 1, ≤ 1+α, and monotone non-decreasing in τ."""
    lo, hi = min(tau1, tau2), max(tau1, tau2)
    s_lo = speedup_constant_delays(alpha, lo)
    s_hi = speedup_constant_delays(alpha, hi)
    assert 1.0 - 1e-12 <= s_lo <= 1.0 + alpha + 1e-9
    assert s_hi >= s_lo - 1e-12


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=32),
    base=st.floats(min_value=0.01, max_value=5.0),
)
def test_property_network_scalings_ordering(m, base):
    """Ring all-reduce never costs more than the parameter-server collective."""
    ring = NetworkModel(base, "ring_allreduce").mean_delay(m)
    ps = NetworkModel(base, "parameter_server").mean_delay(m)
    assert ring <= ps + 1e-12
