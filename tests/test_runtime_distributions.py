"""Tests for delay distributions (repro.runtime.distributions)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DELAYS
from repro.runtime.distributions import (
    ConstantDelay,
    ExponentialDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    UniformDelay,
)


ALL_DISTS = [
    ConstantDelay(2.0),
    ExponentialDelay(1.5),
    ShiftedExponentialDelay(shift=0.5, scale=1.0),
    UniformDelay(0.5, 2.5),
    ParetoDelay(scale=1.0, alpha=3.0),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
class TestCommonBehaviour:
    def test_samples_nonnegative(self, dist):
        samples = dist.sample(2000, rng=0)
        assert np.all(samples >= 0)

    def test_sample_shape(self, dist):
        assert dist.sample((3, 4), rng=0).shape == (3, 4)

    def test_empirical_mean_matches_analytic(self, dist):
        samples = dist.sample(60000, rng=1)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.05)

    def test_empirical_variance_matches_analytic(self, dist):
        samples = dist.sample(120000, rng=2)
        if dist.variance == 0:
            assert samples.var() == 0
        else:
            assert samples.var() == pytest.approx(dist.variance, rel=0.1)

    def test_std_is_sqrt_variance(self, dist):
        assert dist.std == pytest.approx(np.sqrt(dist.variance))


class TestAveragedDelay:
    def test_mean_preserved_variance_reduced(self):
        base = ExponentialDelay(2.0)
        avg = base.averaged(8)
        assert avg.mean == base.mean
        assert avg.variance == pytest.approx(base.variance / 8)

    def test_empirical_variance_reduction(self):
        base = ExponentialDelay(1.0)
        avg = base.averaged(10)
        samples = avg.sample(40000, rng=0)
        assert samples.var() == pytest.approx(0.1, rel=0.1)

    def test_tau_one_identity_moments(self):
        base = UniformDelay(1.0, 3.0)
        avg = base.averaged(1)
        assert avg.mean == base.mean and avg.variance == base.variance

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            ExponentialDelay(1.0).averaged(0)

    def test_tuple_size(self):
        avg = ExponentialDelay(1.0).averaged(4)
        assert avg.sample((5, 3), rng=0).shape == (5, 3)


class TestValidation:
    def test_constant_negative(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)

    def test_exponential_nonpositive(self):
        with pytest.raises(ValueError):
            ExponentialDelay(0.0)

    def test_shifted_exponential_negative_shift(self):
        with pytest.raises(ValueError):
            ShiftedExponentialDelay(shift=-0.1, scale=1.0)

    def test_uniform_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformDelay(3.0, 1.0)

    def test_pareto_alpha_too_small(self):
        with pytest.raises(ValueError):
            ParetoDelay(scale=1.0, alpha=1.5)


class TestFactory:
    def test_make_each_registered_distribution(self):
        assert DELAYS.build("constant", value=1.0).mean == 1.0
        assert DELAYS.build("exponential", scale=2.0).mean == 2.0
        assert DELAYS.build("uniform", low=0.0, high=2.0).mean == 1.0
        assert DELAYS.build("shifted_exponential", shift=1.0, scale=1.0).mean == 2.0
        assert DELAYS.build("pareto", scale=1.0, alpha=3.0).mean == 1.5

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            DELAYS.build("weibull")


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=0.1, max_value=5.0),
    tau=st.integers(min_value=1, max_value=30),
)
def test_property_averaging_never_increases_variance(scale, tau):
    """Var(Ȳ) = Var(Y)/τ ≤ Var(Y) for every scale and τ (eq. 9)."""
    base = ExponentialDelay(scale)
    avg = base.averaged(tau)
    assert avg.variance <= base.variance + 1e-12
    assert avg.mean == pytest.approx(base.mean)


@settings(max_examples=30, deadline=None)
@given(
    shift=st.floats(min_value=0.0, max_value=3.0),
    scale=st.floats(min_value=0.1, max_value=3.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_shifted_exponential_respects_lower_bound(shift, scale, seed):
    """Shifted-exponential samples are never below their deterministic shift."""
    dist = ShiftedExponentialDelay(shift=shift, scale=scale)
    samples = dist.sample(500, rng=seed)
    assert np.all(samples >= shift)


class TestFromMoments:
    """Moment matching lives on the distributions (from_moments classmethods)."""

    MATCHING = [
        (ShiftedExponentialDelay, 1.0, 0.25),
        (UniformDelay, 1.0, 0.25),
        (ParetoDelay, 1.0, 0.25),
        (ExponentialDelay, 2.0, 2.0),
        (ShiftedExponentialDelay, 3.0, 0.5),
        (UniformDelay, 2.0, 0.3),
        (ParetoDelay, 5.0, 1.0),
    ]

    @pytest.mark.parametrize("cls,mean,std", MATCHING,
                             ids=lambda v: getattr(v, "__name__", str(v)))
    def test_moments_are_matched(self, cls, mean, std):
        dist = cls.from_moments(mean, std)
        assert isinstance(dist, cls)
        assert dist.mean == pytest.approx(mean, rel=1e-12)
        assert dist.std == pytest.approx(std, rel=1e-12)

    def test_constant_matches_mean_only(self):
        dist = ConstantDelay.from_moments(1.5, 0.25)
        assert dist.value == 1.5 and dist.variance == 0.0

    def test_exponential_pins_std_to_mean(self):
        dist = ExponentialDelay.from_moments(2.0, 0.1)
        assert dist.mean == 2.0 and dist.std == 2.0

    def test_capped_families_stay_valid_for_large_std(self):
        # std > mean: shift/low must be clamped at zero, not go negative.
        se = ShiftedExponentialDelay.from_moments(1.0, 4.0)
        assert se.shift == 0.0 and se.mean == 1.0
        uni = UniformDelay.from_moments(1.0, 4.0)
        assert uni.low == 0.0 and uni.mean == 1.0

    @pytest.mark.parametrize("cls", [ShiftedExponentialDelay, UniformDelay, ParetoDelay])
    def test_nonpositive_std_rejected(self, cls):
        with pytest.raises(ValueError, match="std"):
            cls.from_moments(1.0, 0.0)

    def test_base_class_hook_raises_not_implemented(self):
        from repro.runtime.distributions import DelayDistribution

        class NoHook(DelayDistribution):
            mean = 1.0
            variance = 1.0

            def sample(self, size, rng=None):
                return np.zeros(size)

        with pytest.raises(NotImplementedError, match="moment-matching"):
            NoHook.from_moments(1.0, 0.5)

    def test_registered_delay_resolves_via_hook_in_harness(self):
        """A third-party delay given as a bare name works end to end."""
        from repro.experiments.configs import make_config

        @DELAYS.register("thirdparty_uniform_for_test")
        class ThirdParty(UniformDelay):
            pass

        try:
            dist = make_config("smoke", delay="thirdparty_uniform_for_test").compute_distribution()
            assert isinstance(dist, ThirdParty)
            assert dist.mean == pytest.approx(1.0)
        finally:
            DELAYS.unregister("thirdparty_uniform_for_test")

    def test_unhooked_registered_delay_fails_with_guidance(self):
        from repro.experiments.configs import make_config

        DELAYS.register("hookless_for_test", lambda **kw: None)
        try:
            with pytest.raises(ValueError, match="from_moments"):
                make_config("smoke", delay="hookless_for_test").compute_distribution()
        finally:
            DELAYS.unregister("hookless_for_test")
