"""Delay distributions for local computation times and communication delays.

The runtime analysis of the paper (Section 3.1) treats the per-mini-batch
compute time ``Y`` as an i.i.d. random variable and the broadcast delay ``D``
as another random variable.  The experiments in Section 3.2 use two special
cases — constants and exponentials — but the simulator accepts any
distribution implementing :class:`DelayDistribution`, which lets the
benchmarks explore heavier-tailed straggling (Pareto) as well.

All distributions are vectorized: ``sample(size, rng)`` returns a NumPy array
of i.i.d. draws.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.api.registries import DELAYS
from repro.utils.seeding import check_random_state

__all__ = [
    "DelayDistribution",
    "ConstantDelay",
    "ExponentialDelay",
    "ShiftedExponentialDelay",
    "UniformDelay",
    "ParetoDelay",
]


class DelayDistribution(abc.ABC):
    """A non-negative random delay with known mean and variance."""

    @classmethod
    def from_moments(cls, mean: float, std: float) -> "DelayDistribution":
        """Build the distribution whose first two moments match ``mean``/``std``.

        This is the hook the experiment harness uses to resolve a bare delay
        name from the two config knobs ``compute_time`` and
        ``compute_time_std_fraction``.  Third-party distributions registered
        with ``@DELAYS.register(...)`` opt into bare-name configs by
        overriding this classmethod; without it, only explicit
        ``{"kind": ..., **params}`` specs are accepted.
        """
        raise NotImplementedError(
            f"{cls.__name__} defines no moment-matching rule; override "
            f"from_moments(mean, std) or use an explicit parameter spec"
        )

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value of the delay in seconds."""

    @property
    @abc.abstractmethod
    def variance(self) -> float:
        """Variance of the delay in seconds squared."""

    @abc.abstractmethod
    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator | int | None = None) -> np.ndarray:
        """Draw i.i.d. samples with the given shape."""

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def averaged(self, tau: int) -> "AveragedDelay":
        """Distribution of the mean of ``tau`` i.i.d. copies (the paper's ``Ȳ``)."""
        return AveragedDelay(self, tau)


@DELAYS.register("constant")
@dataclass(frozen=True)
class ConstantDelay(DelayDistribution):
    """Deterministic delay — the "simplest case" of Section 3.2."""

    value: float

    @classmethod
    def from_moments(cls, mean: float, std: float) -> "ConstantDelay":
        """Match the mean; the std is necessarily ignored (variance is zero)."""
        return cls(value=mean)

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"delay must be non-negative, got {self.value}")

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    def sample(self, size, rng=None) -> np.ndarray:
        return np.full(size, self.value, dtype=float)


@DELAYS.register("exponential")
@dataclass(frozen=True)
class ExponentialDelay(DelayDistribution):
    """Exponential delay with mean ``scale`` — the straggler model of Section 3.2."""

    scale: float

    @classmethod
    def from_moments(cls, mean: float, std: float) -> "ExponentialDelay":
        """Match the mean; an exponential's std is pinned to its mean."""
        return cls(scale=mean)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def mean(self) -> float:
        return self.scale

    @property
    def variance(self) -> float:
        return self.scale**2

    def sample(self, size, rng=None) -> np.ndarray:
        gen = check_random_state(rng)
        return gen.exponential(self.scale, size=size)


@DELAYS.register("shifted_exponential")
@dataclass(frozen=True)
class ShiftedExponentialDelay(DelayDistribution):
    """``shift + Exp(scale)``: a minimum compute time plus exponential straggling.

    This is the standard model for machine slowdown in the straggler
    literature (e.g. coded-computing papers): the shift captures the
    deterministic FLOP cost, the exponential tail captures contention.
    """

    shift: float
    scale: float

    @classmethod
    def from_moments(cls, mean: float, std: float) -> "ShiftedExponentialDelay":
        """Set the exponential part's scale to the std (capped so shift >= 0)."""
        if std <= 0:
            raise ValueError(f"std must be positive, got {std}")
        scale = min(std, mean)
        return cls(shift=mean - scale, scale=scale)

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError(f"shift must be non-negative, got {self.shift}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def mean(self) -> float:
        return self.shift + self.scale

    @property
    def variance(self) -> float:
        return self.scale**2

    def sample(self, size, rng=None) -> np.ndarray:
        gen = check_random_state(rng)
        return self.shift + gen.exponential(self.scale, size=size)


@DELAYS.register("uniform")
@dataclass(frozen=True)
class UniformDelay(DelayDistribution):
    """Uniform delay on ``[low, high]``."""

    low: float
    high: float

    @classmethod
    def from_moments(cls, mean: float, std: float) -> "UniformDelay":
        """Center at the mean with half-width √3·std (capped so low >= 0)."""
        if std <= 0:
            raise ValueError(f"std must be positive, got {std}")
        half_width = min(math.sqrt(3.0) * std, mean)
        return cls(low=mean - half_width, high=mean + half_width)

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"require 0 <= low <= high, got [{self.low}, {self.high}]")

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def sample(self, size, rng=None) -> np.ndarray:
        gen = check_random_state(rng)
        return gen.uniform(self.low, self.high, size=size)


@DELAYS.register("pareto")
@dataclass(frozen=True)
class ParetoDelay(DelayDistribution):
    """Pareto (heavy-tailed) delay with minimum ``scale`` and shape ``alpha > 2``.

    Requires ``alpha > 2`` so the variance is finite; heavy-tailed compute
    times model severe stragglers where periodic averaging's variance
    reduction (the Erlang effect) matters most.
    """

    scale: float
    alpha: float

    @classmethod
    def from_moments(cls, mean: float, std: float) -> "ParetoDelay":
        """Solve E = αs/(α−1), Var = std² for the shape: α(α−2) = (mean/std)²."""
        if std <= 0:
            raise ValueError(f"std must be positive, got {std}")
        f = std / mean
        shape = 1.0 + math.sqrt(1.0 + 1.0 / f**2)
        return cls(scale=mean * (shape - 1.0) / shape, alpha=shape)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.alpha <= 2:
            raise ValueError(f"alpha must exceed 2 for finite variance, got {self.alpha}")

    @property
    def mean(self) -> float:
        return self.alpha * self.scale / (self.alpha - 1)

    @property
    def variance(self) -> float:
        a = self.alpha
        return self.scale**2 * a / ((a - 1) ** 2 * (a - 2))

    def sample(self, size, rng=None) -> np.ndarray:
        gen = check_random_state(rng)
        # numpy's pareto is the Lomax form; add 1 and rescale to classical Pareto.
        return self.scale * (1.0 + gen.pareto(self.alpha, size=size))


class AveragedDelay(DelayDistribution):
    """Distribution of the sample mean of ``tau`` i.i.d. draws of a base delay.

    This is the paper's ``Ȳ_i = (Y_{i,1} + ... + Y_{i,τ}) / τ`` (eq. 9).  For
    exponential bases the mean is Erlang-distributed; in general we only need
    sampling plus the first two moments, which follow from i.i.d. averaging.
    """

    def __init__(self, base: DelayDistribution, tau: int):
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        self.base = base
        self.tau = int(tau)

    @property
    def mean(self) -> float:
        return self.base.mean

    @property
    def variance(self) -> float:
        return self.base.variance / self.tau

    def sample(self, size, rng=None) -> np.ndarray:
        gen = check_random_state(rng)
        if isinstance(size, tuple):
            shape = size + (self.tau,)
        else:
            shape = (int(size), self.tau)
        draws = self.base.sample(shape, gen)
        return draws.mean(axis=-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AveragedDelay(base={self.base!r}, tau={self.tau})"

