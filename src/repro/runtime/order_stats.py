"""Order statistics of worker compute times.

Fully synchronous SGD waits for the *slowest* of ``m`` workers each
iteration, so its per-iteration cost is the maximum order statistic
``Y_{m:m}``.  PASGD waits for the slowest *average over τ local steps*
``Ȳ_{m:m}``, whose variance is τ× smaller, which is the paper's
straggler-mitigation argument (Section 3.2, Figure 5).

This module provides the closed form for exponential compute times
(``E[Y_{m:m}] = y * H_m``), generic Monte-Carlo estimators for arbitrary
distributions, and the empirical per-iteration runtime distributions used to
regenerate Figure 5.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.distributions import DelayDistribution, ExponentialDelay
from repro.utils.domains import AT_LEAST_ONE, POSITIVE
from repro.utils.seeding import check_random_state

__all__ = [
    "harmonic_number",
    "expected_max_exponential",
    "expected_max_iid",
    "expected_max_averaged",
    "empirical_max_distribution",
]


def harmonic_number(m: int) -> float:
    """The m-th harmonic number ``H_m = sum_{i=1}^m 1/i``."""
    AT_LEAST_ONE("m", m)
    return float(np.sum(1.0 / np.arange(1, m + 1)))


def expected_max_exponential(mean: float, m: int) -> float:
    """Exact ``E[Y_{m:m}]`` for i.i.d. Exp(mean) compute times.

    The paper notes ``E[Y_{m:m}] = y * sum_{i=1}^m 1/i ≈ y log m``, so the
    per-iteration cost of fully synchronous SGD grows logarithmically with
    the number of workers.
    """
    POSITIVE("mean", mean)
    return mean * harmonic_number(m)


def expected_max_iid(
    dist: DelayDistribution,
    m: int,
    n_samples: int = 20000,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Monte-Carlo estimate of ``E[max(Y_1, ..., Y_m)]`` for i.i.d. ``Y ~ dist``.

    Uses the exact closed form when ``dist`` is exponential or has zero
    variance (constant), otherwise simulates.
    """
    AT_LEAST_ONE("m", m)
    if dist.variance == 0.0:
        return dist.mean
    if isinstance(dist, ExponentialDelay):
        return expected_max_exponential(dist.mean, m)
    gen = check_random_state(rng)
    draws = dist.sample((n_samples, m), gen)
    return float(draws.max(axis=1).mean())


def expected_max_averaged(
    dist: DelayDistribution,
    m: int,
    tau: int,
    n_samples: int = 20000,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Monte-Carlo estimate of ``E[Ȳ_{m:m}]`` where ``Ȳ`` averages τ draws.

    This is the first term of the PASGD per-iteration runtime (eq. 11).  For
    τ = 1 it coincides with :func:`expected_max_iid`.
    """
    AT_LEAST_ONE("tau", tau)
    if tau == 1:
        return expected_max_iid(dist, m, n_samples=n_samples, rng=rng)
    if dist.variance == 0.0:
        return dist.mean
    gen = check_random_state(rng)
    avg = dist.averaged(tau)
    draws = avg.sample((n_samples, m), gen)
    return float(draws.max(axis=1).mean())


def empirical_max_distribution(
    dist: DelayDistribution,
    m: int,
    tau: int,
    comm_delay: float,
    n_samples: int = 20000,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Samples of the per-iteration runtime ``max_i Ȳ_i + D/τ``.

    Used to regenerate Figure 5: the histogram of per-iteration runtime for
    fully synchronous SGD (τ=1) versus PASGD (τ=10) with exponential compute
    times.  ``comm_delay`` is the (deterministic) communication delay ``D``.
    """
    AT_LEAST_ONE("m", m)
    AT_LEAST_ONE("tau", tau)
    if comm_delay < 0:
        raise ValueError(f"comm_delay must be non-negative, got {comm_delay}")
    gen = check_random_state(rng)
    source = dist if tau == 1 else dist.averaged(tau)
    draws = source.sample((n_samples, m), gen)
    return draws.max(axis=1) + comm_delay / tau
