"""Expected-runtime model of Section 3 (equations 7–12).

The two quantities of interest are the expected runtime per *local*
iteration:

* fully synchronous SGD (eq. 8): ``E[T_sync]  = E[Y_{m:m}] + E[D]``
* periodic-averaging SGD (eq. 11): ``E[T_PAvg] = E[Ȳ_{m:m}] + E[D]/τ``

and the speed-up of PASGD over synchronous SGD (eq. 12 for the constant-delay
case): ``(1 + α) / (1 + α/τ)`` with α = D/Y.

These are the predictions; what a run measures is the simulated cluster's
ledger (``SimulatedCluster.breakdown``), fed by ``repro.runtime.simulator``.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.distributions import DelayDistribution
from repro.runtime.network import NetworkModel
from repro.runtime.order_stats import expected_max_averaged, expected_max_iid

__all__ = [
    "expected_runtime_sync",
    "expected_runtime_pasgd",
    "speedup_constant_delays",
    "speedup_over_sync",
]


def expected_runtime_sync(
    compute: DelayDistribution,
    network: NetworkModel,
    m: int,
    n_samples: int = 20000,
    rng=None,
) -> float:
    """Expected runtime per iteration of fully synchronous SGD (eq. 8)."""
    return expected_max_iid(compute, m, n_samples=n_samples, rng=rng) + network.mean_delay(m)


def expected_runtime_pasgd(
    compute: DelayDistribution,
    network: NetworkModel,
    m: int,
    tau: int,
    n_samples: int = 20000,
    rng=None,
) -> float:
    """Expected runtime per local iteration of PASGD with period τ (eq. 11)."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    comp = expected_max_averaged(compute, m, tau, n_samples=n_samples, rng=rng)
    return comp + network.mean_delay(m) / tau


def speedup_constant_delays(alpha: float, tau: int | np.ndarray) -> float | np.ndarray:
    """Speed-up of PASGD over synchronous SGD when Y and D are constants (eq. 12).

    ``speedup = (1 + α) / (1 + α/τ)`` where ``α = D / Y`` is the
    communication/computation ratio.  The speed-up is 1 at τ=1 and increases
    monotonically towards ``1 + α`` as τ grows.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 1):
        raise ValueError("tau must be >= 1")
    result = (1.0 + alpha) / (1.0 + alpha / tau_arr)
    if np.isscalar(tau) or (isinstance(tau, np.ndarray) and tau.ndim == 0):
        return float(result)
    return result


def speedup_over_sync(
    compute: DelayDistribution,
    network: NetworkModel,
    m: int,
    tau: int,
    n_samples: int = 20000,
    rng=None,
) -> float:
    """General speed-up E[T_sync] / E[T_PAvg] for arbitrary delay distributions."""
    t_sync = expected_runtime_sync(compute, network, m, n_samples=n_samples, rng=rng)
    t_pasgd = expected_runtime_pasgd(compute, network, m, tau, n_samples=n_samples, rng=rng)
    return t_sync / t_pasgd

