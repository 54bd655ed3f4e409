"""Tests for the theoretical results (repro.core.theory): Theorems 1–3."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.theory import (
    TheoreticalConstants,
    adacomm_convergence_conditions,
    error_iteration_bound,
    error_runtime_bound,
    learning_rate_condition,
    optimal_communication_period,
    variable_tau_bound,
)


@pytest.fixture
def constants() -> TheoreticalConstants:
    """The constants used for the paper's Figure 6: F(x1)=1, Finf=0, L=1, σ²=1."""
    return TheoreticalConstants(
        initial_gap=1.0,
        lipschitz=1.0,
        gradient_variance=1.0,
        n_workers=16,
        compute_time=1.0,
        communication_delay=1.0,
    )


class TestConstants:
    def test_validation(self):
        with pytest.raises(ValueError):
            TheoreticalConstants(-1.0, 1.0, 1.0, 4)
        with pytest.raises(ValueError):
            TheoreticalConstants(1.0, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            TheoreticalConstants(1.0, 1.0, -1.0, 4)
        with pytest.raises(ValueError):
            TheoreticalConstants(1.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            TheoreticalConstants(1.0, 1.0, 1.0, 4, compute_time=0.0)


class TestLearningRateCondition:
    def test_small_lr_satisfies(self):
        assert learning_rate_condition(0.01, lipschitz=1.0, tau=10)

    def test_large_lr_with_large_tau_fails(self):
        assert not learning_rate_condition(0.5, lipschitz=1.0, tau=100)

    def test_tau_one_reduces_to_eta_l(self):
        assert learning_rate_condition(1.0, lipschitz=1.0, tau=1)
        assert not learning_rate_condition(1.1, lipschitz=1.0, tau=1)


class TestErrorBounds:
    def test_iteration_bound_components(self, constants):
        # With τ=1 the local-update noise term vanishes.
        b1 = error_iteration_bound(constants, lr=0.1, tau=1, n_iterations=100)
        expected = 2 * 1.0 / (0.1 * 100) + 0.1 * 1.0 * 1.0 / 16
        assert b1 == pytest.approx(expected)

    def test_iteration_bound_increases_with_tau(self, constants):
        b1 = error_iteration_bound(constants, lr=0.1, tau=1, n_iterations=1000)
        b10 = error_iteration_bound(constants, lr=0.1, tau=10, n_iterations=1000)
        assert b10 > b1

    def test_runtime_bound_eq13_value(self, constants):
        # Direct evaluation of eq. 13.
        lr, tau, T = 0.08, 10, 1000.0
        runtime_per_iter = 1.0 + 1.0 / tau
        expected = (
            2 * 1.0 / (lr * T) * runtime_per_iter + lr * 1.0 / 16 + lr**2 * 1.0 * (tau - 1)
        )
        assert error_runtime_bound(constants, lr, tau, T) == pytest.approx(expected)

    def test_runtime_bound_tradeoff_shape(self, constants):
        """Early in training large τ wins (throughput), late τ=1 wins (low floor).

        This is exactly Figure 6: the τ=10 bound starts below the τ=1 bound and
        crosses above it as T grows.
        """
        early_sync = error_runtime_bound(constants, 0.08, 1, wall_time=50.0)
        early_pasgd = error_runtime_bound(constants, 0.08, 10, wall_time=50.0)
        late_sync = error_runtime_bound(constants, 0.08, 1, wall_time=50000.0)
        late_pasgd = error_runtime_bound(constants, 0.08, 10, wall_time=50000.0)
        assert early_pasgd < early_sync
        assert late_pasgd > late_sync

    def test_runtime_bound_decreases_with_time(self, constants):
        bounds = [error_runtime_bound(constants, 0.08, 10, t) for t in (10, 100, 1000)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_validation(self, constants):
        with pytest.raises(ValueError):
            error_runtime_bound(constants, lr=0.0, tau=1, wall_time=10)
        with pytest.raises(ValueError):
            error_runtime_bound(constants, lr=0.1, tau=0, wall_time=10)
        with pytest.raises(ValueError):
            error_runtime_bound(constants, lr=0.1, tau=1, wall_time=0)
        with pytest.raises(ValueError):
            error_iteration_bound(constants, lr=0.1, tau=1, n_iterations=0)


class TestOptimalTau:
    def test_formula_eq14(self, constants):
        lr, T = 0.08, 1000.0
        expected = math.sqrt(2 * 1.0 * 1.0 / (lr**3 * 1.0 * 1.0 * T))
        assert optimal_communication_period(constants, lr, T) == pytest.approx(expected)

    def test_minimizes_the_bound(self, constants):
        """τ* from Theorem 2 must (approximately) minimize the eq. 13 bound over τ."""
        lr, T = 0.05, 500.0
        tau_star = optimal_communication_period(constants, lr, T)
        taus = np.linspace(max(1.0, tau_star / 4), tau_star * 4, 400)
        bounds = [error_runtime_bound(constants, lr, t, T) for t in taus]
        best_tau = taus[int(np.argmin(bounds))]
        assert best_tau == pytest.approx(tau_star, rel=0.05)

    def test_decreases_with_time(self, constants):
        # τ* ∝ 1/sqrt(T): later intervals (restarted at a lower loss) need smaller τ.
        t1 = optimal_communication_period(constants, 0.08, 100.0)
        t2 = optimal_communication_period(constants, 0.08, 400.0)
        assert t2 == pytest.approx(t1 / 2)

    def test_increases_with_communication_delay(self, constants):
        slow_net = TheoreticalConstants(1.0, 1.0, 1.0, 16, 1.0, communication_delay=4.0)
        assert optimal_communication_period(slow_net, 0.08, 100.0) == pytest.approx(
            2 * optimal_communication_period(constants, 0.08, 100.0)
        )

    def test_clip_to_int(self, constants):
        val = optimal_communication_period(constants, 0.08, 1e9, clip_to_int=True)
        assert val == 1.0

    @pytest.mark.parametrize("wall_time", [1e9, 100.0])
    def test_clip_to_int_rounds_up_and_floors_at_one_and_only_then(self, constants, wall_time):
        tau_star = optimal_communication_period(constants, 0.08, wall_time)
        assert not tau_star.is_integer()  # about 0.002 below one, 6.25 above
        assert optimal_communication_period(constants, 0.08, wall_time, clip_to_int=False) == tau_star
        clipped = optimal_communication_period(constants, 0.08, wall_time, clip_to_int=True)
        assert clipped == max(1.0, math.ceil(tau_star)) and isinstance(clipped, float)

    def test_zero_delay_gives_tau_one(self):
        c = TheoreticalConstants(1.0, 1.0, 1.0, 4, 1.0, communication_delay=0.0)
        assert optimal_communication_period(c, 0.1, 100.0) == 1.0

    def test_zero_variance_raises(self):
        c = TheoreticalConstants(1.0, 1.0, 0.0, 4)
        with pytest.raises(ValueError):
            optimal_communication_period(c, 0.1, 100.0)


class TestVariableTauResults:
    def test_convergence_conditions_sums(self):
        out = adacomm_convergence_conditions([0.1, 0.1], [4, 2])
        assert out["sum_lr_tau"] == pytest.approx(0.6)
        assert out["sum_lr2_tau"] == pytest.approx(0.06)
        assert out["sum_lr3_tau2"] == pytest.approx(0.001 * 16 + 0.001 * 4)

    def test_decreasing_tau_shrinks_higher_order_sums(self):
        lrs = [0.1] * 10
        decreasing = adacomm_convergence_conditions(lrs, list(range(10, 0, -1)))
        constant = adacomm_convergence_conditions(lrs, [10] * 10)
        assert decreasing["sum_lr3_tau2"] < constant["sum_lr3_tau2"]
        assert decreasing["sum_lr_tau"] < constant["sum_lr_tau"]

    def test_conditions_validation(self):
        with pytest.raises(ValueError):
            adacomm_convergence_conditions([0.1], [1, 2])
        with pytest.raises(ValueError):
            adacomm_convergence_conditions([0.0], [1])
        with pytest.raises(ValueError):
            adacomm_convergence_conditions([0.1], [0])

    def test_variable_tau_bound_constant_sequence_matches_lemma(self, constants):
        """For a constant τ sequence, eq. 66 must coincide with the fixed-τ bound."""
        taus = [5] * 20
        total_iters = sum(taus)
        from_variable = variable_tau_bound(constants, 0.05, taus)
        from_fixed = error_iteration_bound(constants, 0.05, 5, total_iters)
        assert from_variable == pytest.approx(from_fixed)

    def test_variable_tau_bound_decreasing_better_than_constant_mean(self, constants):
        """A decreasing τ sequence has a smaller Σ τ²/Σ τ term than a constant one
        with the same total number of iterations and the same largest τ."""
        decreasing = list(range(20, 0, -1))  # total 210
        constant = [20] * 10 + [1] * 10  # same total 210, same max, but bursty
        b_dec = variable_tau_bound(constants, 0.05, decreasing)
        b_const = variable_tau_bound(constants, 0.05, constant)
        assert b_dec < b_const

    def test_variable_tau_bound_validation(self, constants):
        with pytest.raises(ValueError):
            variable_tau_bound(constants, 0.05, [])
        with pytest.raises(ValueError):
            variable_tau_bound(constants, 0.05, [0])


@settings(max_examples=40, deadline=None)
@given(
    lr=st.floats(min_value=1e-3, max_value=0.5),
    tau=st.integers(min_value=1, max_value=200),
    wall_time=st.floats(min_value=1.0, max_value=1e5),
    gap=st.floats(min_value=0.01, max_value=50.0),
    sigma2=st.floats(min_value=0.01, max_value=10.0),
)
def test_property_runtime_bound_positive_and_monotone_in_gap(lr, tau, wall_time, gap, sigma2):
    """The eq. 13 bound is positive and non-decreasing in the initial gap."""
    c1 = TheoreticalConstants(gap, 1.0, sigma2, 8, 1.0, 1.0)
    c2 = TheoreticalConstants(gap * 2, 1.0, sigma2, 8, 1.0, 1.0)
    b1 = error_runtime_bound(c1, lr, tau, wall_time)
    b2 = error_runtime_bound(c2, lr, tau, wall_time)
    assert b1 > 0
    assert b2 >= b1


@settings(max_examples=40, deadline=None)
@given(
    lr=st.floats(min_value=1e-3, max_value=0.5),
    wall_time=st.floats(min_value=1.0, max_value=1e5),
    delay=st.floats(min_value=0.01, max_value=20.0),
)
def test_property_optimal_tau_is_stationary_point(lr, wall_time, delay):
    """Perturbing τ* in either direction never decreases the eq. 13 bound."""
    c = TheoreticalConstants(1.0, 1.0, 1.0, 8, 1.0, delay)
    tau_star = optimal_communication_period(c, lr, wall_time)
    if tau_star < 1.0:  # continuous minimizer below the feasible region
        return
    b_star = error_runtime_bound(c, lr, tau_star, wall_time)
    assert error_runtime_bound(c, lr, tau_star * 1.05, wall_time) >= b_star - 1e-12
    if tau_star * 0.95 >= 1.0:
        assert error_runtime_bound(c, lr, tau_star * 0.95, wall_time) >= b_star - 1e-12
