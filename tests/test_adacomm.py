"""Tests for ADACOMM: ``repro.core.schedules.AdaCommSchedule`` and its ``tau_rule``."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedules import AdaCommSchedule, tau_rule


def adapted_taus(initial_tau, losses, lrs=None, gamma=0.5):
    """τ after each interval boundary: ``losses[0]`` at t = 0, ``losses[i]`` at t = 10·i."""
    lrs = lrs or [0.1] * len(losses)
    sched = AdaCommSchedule(initial_tau=initial_tau, interval_length=10.0, gamma=gamma)
    sched.observe(0.0, losses[0], lrs[0])
    taus = []
    for i, (loss, lr) in enumerate(zip(losses[1:], lrs[1:]), 1):
        sched.observe(10.0 * i, loss, lr)
        taus.append(sched.next_tau())
    return taus


class TestBasicRule:
    """Eq. 17, ``τ_l = ⌈√(F_l/F_0) · τ_0⌉``: :func:`tau_rule` at a constant learning rate."""

    def test_eq17_value(self):
        assert tau_rule(initial_loss=4.0, loss=1.0, initial_tau=10) == 5
        assert tau_rule(initial_loss=2.0, loss=2.0, initial_tau=7) == 7

    def test_rounds_up(self):
        assert tau_rule(3.0, 1.0, 10) == math.ceil(10 / math.sqrt(3))

    def test_never_below_one(self):
        assert tau_rule(100.0, 1e-9, 10) == 1

    def test_loss_increase_can_increase_tau(self):
        # The candidate only: the schedule then decays instead (TestRefinedRule).
        assert tau_rule(1.0, 4.0, 10) == 20

    def test_validation(self):
        # The rule's inputs enter through the schedule, which checks them there.
        with pytest.raises(ValueError, match="initial_tau must be >= 1"):
            AdaCommSchedule(initial_tau=0)
        with pytest.raises(ValueError, match="train_loss must be non-negative"):
            AdaCommSchedule().observe(0.0, -1.0, 0.1)
        # A zero first loss (already converged) is floored, not divided by.
        sched = AdaCommSchedule(initial_tau=8, interval_length=10.0)
        sched.observe(0.0, 0.0, 0.1)
        sched.observe(10.0, 0.0, 0.1)
        assert sched.next_tau() == 1


class TestLRCoupledRule:
    """Eq. 20, ``τ_l = ⌈√((η_0/η_l) · F_l/F_0) · τ_0⌉``: ``lr_ratio`` is η_0/η_l."""

    def test_eq20_value(self):
        # A smaller learning rate tolerates a larger period.
        assert tau_rule(1.0, 1.0, 10, lr_ratio=0.1 / 0.1) == 10
        assert tau_rule(1.0, 1.0, 10, lr_ratio=0.1 / 0.025) == 20

    def test_combined_loss_and_lr_effect(self):
        # loss ratio 1/4 (→ ×1/2) and lr ratio 4 (→ ×2) cancel out.
        assert tau_rule(4.0, 1.0, 10, lr_ratio=0.4 / 0.1) == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="lr must be positive"):
            AdaCommSchedule().observe(0.0, 1.0, 0.0)
        sched = AdaCommSchedule(interval_length=10.0)
        sched.observe(0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="lr must be positive"):
            sched.observe(10.0, 1.0, -0.1)


class TestRefinedRule:
    """Eq. 18: the candidate if it is strictly below the current τ, else ⌊γ · τ⌋."""

    def test_uses_basic_rule_when_strictly_decreasing(self):
        # candidates ⌈0.75 · 12⌉ = 9 < 12, then ⌈0.5 · 12⌉ = 6 < 9.
        assert adapted_taus(12, [16.0, 9.0, 4.0]) == [9, 6]

    def test_decays_multiplicatively_when_stalled(self):
        # The candidate equals the current τ → γ-decay instead.
        assert adapted_taus(10, [1.0, 1.0], gamma=0.5) == [5]

    def test_decay_when_candidate_larger(self):
        # 9, then the candidate ⌈1.5 · 12⌉ = 18 > 9 → ⌊9 / 2⌋.
        assert adapted_taus(12, [16.0, 9.0, 36.0], gamma=0.5) == [9, 4]

    def test_gamma_controls_decay(self):
        # ⌈0.75 · 10⌉ = 8, then the candidate 10 ≥ 8 → ⌊0.25 · 8⌋.
        assert adapted_taus(10, [16.0, 9.0, 16.0], gamma=0.25) == [8, 2]

    def test_never_below_one(self):
        assert adapted_taus(1, [1.0, 1.0, 1.0], gamma=0.5) == [1, 1]

    def test_lr_coupling_passthrough(self):
        # η_0/η_l = 4 and F_l/F_0 = 1/16: eq. 20 gives 5 where eq. 17 would give 3.
        assert adapted_taus(10, [16.0, 1.0], lrs=[0.4, 0.1]) == [5]

    def test_validation(self):
        for gamma in (0.0, 1.0):
            with pytest.raises(ValueError, match="gamma must be in"):
                AdaCommSchedule(gamma=gamma)


class TestAdaCommConfig:
    """The schedule's three fields: τ_0, T0 and γ."""

    def test_defaults_valid(self):
        sched = AdaCommSchedule()
        assert (sched.initial_tau, sched.interval_length, sched.gamma) == (10, 60.0, 0.5)
        assert sched.next_tau() == 10 and sched.tau_history == [(0.0, 10)]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaCommSchedule(initial_tau=0)
        with pytest.raises(ValueError):
            AdaCommSchedule(interval_length=0)
        with pytest.raises(ValueError):
            AdaCommSchedule(gamma=1.5)
        for knob in ("slack", "min_tau", "max_tau", "couple_lr", "config", "controller"):
            with pytest.raises(TypeError):
                AdaCommSchedule(**{knob: 1})


class TestAdaCommController:
    """The interval clock: when τ adapts, and what it records."""

    def test_starts_at_initial_tau(self):
        assert AdaCommSchedule(initial_tau=16, interval_length=10.0).next_tau() == 16

    def test_no_adaptation_before_first_boundary(self):
        sched = AdaCommSchedule(initial_tau=16, interval_length=10.0)
        sched.observe(0.0, 4.0, lr=0.1)  # sets the reference loss
        sched.observe(5.0, 1.0, lr=0.1)
        assert sched.next_tau() == 16

    def test_adapts_at_boundary_with_basic_rule(self):
        sched = AdaCommSchedule(initial_tau=16, interval_length=10.0)
        sched.observe(0.0, 4.0, lr=0.1)
        sched.observe(10.0, 1.0, lr=0.1)  # sqrt(1/4)·16 = 8
        assert sched.next_tau() == 8
        assert sched.tau_history == [(0.0, 16), (10.0, 8)]

    def test_gamma_decay_on_plateau(self):
        assert adapted_taus(16, [4.0, 4.0, 4.0], gamma=0.5) == [8, 4]  # no loss progress → γ decay

    def test_tau_sequence_decreases_as_loss_decreases(self):
        taus = adapted_taus(20, [8.0, 4.0, 2.0, 1.0, 0.5, 0.25])
        assert all(b <= a for a, b in zip(taus, taus[1:]))
        assert taus[-1] < 20

    def test_lr_coupling_raises_tau_when_lr_drops(self):
        # Same loss, lr dropped 16×: the candidate ⌈√16 · 10⌉ = 40 is not
        # below 10, so the rule decays instead.
        assert adapted_taus(10, [1.0, 1.0], lrs=[0.4, 0.025]) == [5]

    def test_multiple_boundaries_crossed_adapts_once(self):
        sched = AdaCommSchedule(initial_tau=16, interval_length=10.0)
        sched.observe(0.0, 4.0, lr=0.1)
        sched.observe(35.0, 1.0, lr=0.1)
        assert sched.tau_history == [(0.0, 16), (35.0, 8)]
        # Boundaries 10, 20 and 30 were all crossed: the next one is 40.
        sched.observe(39.9, 1.0, lr=0.1)
        assert sched.next_tau() == 8
        sched.observe(40.0, 1.0, lr=0.1)
        assert sched.tau_history[-1] == (40.0, 4)

    def test_clamping_to_bounds(self):
        # τ stays in [1, τ_0]: a loss blow-up or an lr drop cannot raise it,
        # and a vanishing loss cannot take it below 1.
        assert adapted_taus(4, [1.0, 100.0, 1e4], lrs=[0.1, 0.01, 0.001]) == [2, 1]
        assert adapted_taus(4, [1.0] + [1e-8] * 5) == [1] * 5

    def test_tau_history_records_adaptations(self):
        sched = AdaCommSchedule(initial_tau=8, interval_length=5.0)
        sched.observe(0.0, 2.0, lr=0.1)
        sched.observe(5.0, 1.0, lr=0.1)
        sched.observe(10.0, 0.5, lr=0.1)
        assert len(sched.tau_history) == 3  # initial + two adaptations
        times = [t for t, _ in sched.tau_history]
        assert times == sorted(times)

    def test_observe_validation(self):
        sched = AdaCommSchedule()
        with pytest.raises(ValueError):
            sched.observe(-1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            sched.observe(1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            sched.observe(1.0, 1.0, 0.0)

    def test_non_finite_loss_is_ignored(self):
        sched = AdaCommSchedule(initial_tau=8, interval_length=10.0)
        sched.observe(0.0, float("nan"), 0.1)  # not the reference loss either
        sched.observe(1.0, 4.0, 0.1)
        sched.observe(10.0, float("inf"), 0.1)
        assert sched.tau_history == [(0.0, 8)]
        sched.observe(11.0, 1.0, 0.1)  # the boundary at 10 is still pending
        assert sched.tau_history == [(0.0, 8), (11.0, 4)]


@settings(max_examples=50, deadline=None)
@given(
    f0=st.floats(min_value=1e-3, max_value=100.0),
    fl=st.floats(min_value=0.0, max_value=100.0),
    tau0=st.integers(min_value=1, max_value=200),
)
def test_property_basic_rule_bounds(f0, fl, tau0):
    """eq. 17 output is ≥ 1 and scales like sqrt of the loss ratio (within ceil slack)."""
    tau = tau_rule(f0, fl, tau0)
    exact = math.sqrt(fl / f0) * tau0
    assert tau >= 1
    assert exact <= tau <= max(1.0, exact) + 1.0


@settings(max_examples=100, deadline=None)
@given(
    tau0=st.integers(min_value=1, max_value=64),
    gamma=st.floats(min_value=0.05, max_value=0.95),
    # Small integer losses and three learning rates: plateaus, where the
    # candidate equals the current τ, come up often.
    steps=st.lists(
        st.tuples(st.integers(min_value=0, max_value=16), st.sampled_from([0.1, 0.05, 0.025])),
        min_size=2,
        max_size=12,
    ),
)
def test_property_refined_rule_never_exceeds_previous_unless_smaller_candidate(tau0, gamma, steps):
    """Every adaptation is the candidate if it is strictly smaller, else ⌊γτ⌋ (at least 1)."""
    sched = AdaCommSchedule(initial_tau=tau0, interval_length=1.0, gamma=gamma)
    (f0, lr0), *rest = [(float(loss), lr) for loss, lr in steps]
    sched.observe(0.0, f0, lr0)
    for t, (loss, lr) in enumerate(rest, 1):
        old = sched.next_tau()
        sched.observe(float(t), loss, lr)
        candidate = tau_rule(max(f0, 1e-12), loss, tau0, lr_ratio=lr0 / lr)
        assert sched.next_tau() == (candidate if candidate < old else max(1, math.floor(gamma * old)))
        assert 1 <= sched.next_tau() <= old
