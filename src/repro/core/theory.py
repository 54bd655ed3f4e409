"""Theoretical results of the paper in executable form.

Implements:

* Theorem 1 (eq. 13): the error-runtime bound for PASGD with fixed τ —
  ``2(F(x1)-Finf)/(ηT) · (Y + D/τ) + ηLσ²/m + η²L²σ²(τ-1)``.
* Lemma 1 (eq. 26): the error-vs-iterations bound it derives from.
* Theorem 2 (eq. 14): the bound-minimizing communication period
  ``τ* = sqrt(2(F(x1)-Finf)D / (η³L²σ²T))``.
* Theorem 3 (eq. 21): the sufficient conditions on {(η_r, τ_r)} for
  convergence of the adaptive scheme, plus the non-asymptotic bound for a
  variable-τ sequence (eq. 66).
* The learning-rate condition ``ηL + η²L²τ(τ-1) ≤ 1`` under which Theorem 1
  holds.

These functions are used three ways: by the AdaComm controller (through the
practical update rules in ``repro.core.adacomm``), by the Figure 6 rows of
``CLAIMS.json`` (``repro.experiments.claims``), and by the test suite
(verifying convexity of the bound in τ, correctness of the minimizer, etc.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TheoreticalConstants",
    "learning_rate_condition",
    "error_iteration_bound",
    "error_runtime_bound",
    "optimal_communication_period",
    "adacomm_convergence_conditions",
    "variable_tau_bound",
]


@dataclass(frozen=True)
class TheoreticalConstants:
    """Problem constants appearing in the convergence analysis.

    Attributes
    ----------
    initial_gap:
        ``F(x1) − F_inf``, the initial optimality gap.
    lipschitz:
        ``L``, the gradient Lipschitz constant (Assumption 1).
    gradient_variance:
        ``σ²``, the variance bound of mini-batch stochastic gradients
        (Assumption 3).
    n_workers:
        ``m``, number of worker nodes.
    compute_time:
        ``Y``, the (mean) local computation time per mini-batch, seconds.
    communication_delay:
        ``D``, the (mean) all-node broadcast delay, seconds.
    """

    initial_gap: float
    lipschitz: float
    gradient_variance: float
    n_workers: int
    compute_time: float = 1.0
    communication_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.initial_gap < 0:
            raise ValueError("initial_gap must be non-negative")
        if self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        if self.gradient_variance < 0:
            raise ValueError("gradient_variance must be non-negative")
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.compute_time <= 0:
            raise ValueError("compute_time must be positive")
        if self.communication_delay < 0:
            raise ValueError("communication_delay must be non-negative")


def learning_rate_condition(lr: float, lipschitz: float, tau: int) -> bool:
    """Check Theorem 1's step-size condition ``ηL + η²L²τ(τ−1) ≤ 1``."""
    if lr <= 0 or lipschitz <= 0 or tau < 1:
        raise ValueError("lr and lipschitz must be positive and tau >= 1")
    return lr * lipschitz + (lr**2) * (lipschitz**2) * tau * (tau - 1) <= 1.0 + 1e-12


def error_iteration_bound(
    constants: TheoreticalConstants, lr: float, tau: int, n_iterations: int
) -> float:
    """Lemma 1 / eq. 26: bound on the min expected squared gradient norm after K iterations.

    ``2(F(x1)−Finf)/(ηK) + ηLσ²/m + η²L²σ²(τ−1)``
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    c = constants
    return (
        2.0 * c.initial_gap / (lr * n_iterations)
        + lr * c.lipschitz * c.gradient_variance / c.n_workers
        + (lr**2) * (c.lipschitz**2) * c.gradient_variance * (tau - 1)
    )


def error_runtime_bound(
    constants: TheoreticalConstants, lr: float, tau: int | float, wall_time: float
) -> float:
    """Theorem 1 / eq. 13: bound on the min expected squared gradient norm after T seconds.

    Substituting ``K = T / (Y + D/τ)`` into the iteration bound gives

    ``2(F(x1)−Finf)/(ηT) · (Y + D/τ) + ηLσ²/m + η²L²σ²(τ−1)``.

    ``tau`` may be fractional here because Theorem 2 optimizes over a
    continuous relaxation.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if wall_time <= 0:
        raise ValueError("wall_time must be positive")
    c = constants
    runtime_per_iter = c.compute_time + c.communication_delay / tau
    return (
        2.0 * c.initial_gap / (lr * wall_time) * runtime_per_iter
        + lr * c.lipschitz * c.gradient_variance / c.n_workers
        + (lr**2) * (c.lipschitz**2) * c.gradient_variance * (tau - 1)
    )


def optimal_communication_period(
    constants: TheoreticalConstants, lr: float, wall_time: float, clip_to_int: bool = False
) -> float:
    """Theorem 2 / eq. 14: the τ minimizing the error-runtime bound at time T.

    ``τ* = sqrt( 2 (F(x1)−Finf) D / (η³ L² σ² T) )``

    Returns the continuous minimizer by default; with ``clip_to_int=True``
    the value is rounded up (ceil) and clipped below at 1, matching how the
    practical rules consume it.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if wall_time <= 0:
        raise ValueError("wall_time must be positive")
    c = constants
    if c.gradient_variance == 0 or c.lipschitz == 0:
        raise ValueError("optimal tau undefined for zero gradient variance or Lipschitz constant")
    if c.communication_delay == 0 or c.initial_gap == 0:
        tau_star = 1.0
    else:
        tau_star = math.sqrt(
            2.0
            * c.initial_gap
            * c.communication_delay
            / ((lr**3) * (c.lipschitz**2) * c.gradient_variance * wall_time)
        )
    return float(max(1, math.ceil(tau_star))) if clip_to_int else tau_star


def adacomm_convergence_conditions(
    lrs: np.ndarray | list[float], taus: np.ndarray | list[int]
) -> dict[str, float]:
    """Evaluate the three series of Theorem 3 (eq. 21) for a finite schedule.

    Returns the partial sums ``sum η_r τ_r``, ``sum η_r² τ_r`` and
    ``sum η_r³ τ_r²``.  For an infinite schedule to converge, the first must
    diverge while the last two stay finite; for finite schedules the test
    suite checks the expected qualitative behaviour (e.g. decreasing τ makes
    the higher-order sums smaller for the same learning-rate sequence).
    """
    lrs = np.asarray(lrs, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if lrs.shape != taus.shape:
        raise ValueError("lrs and taus must have the same length")
    if np.any(lrs <= 0) or np.any(taus < 1):
        raise ValueError("learning rates must be positive and taus >= 1")
    return {
        "sum_lr_tau": float(np.sum(lrs * taus)),
        "sum_lr2_tau": float(np.sum(lrs**2 * taus)),
        "sum_lr3_tau2": float(np.sum(lrs**3 * taus**2)),
    }


def variable_tau_bound(
    constants: TheoreticalConstants, lr: float, taus: np.ndarray | list[int]
) -> float:
    """Non-asymptotic bound for a fixed-LR variable-τ schedule (eq. 66).

    ``2(F(x1)−F*) / (ηK) + ηLσ²/m + η²L²σ² (Σ τ_j² / Σ τ_j − 1)``
    with ``K = Σ τ_j``.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    taus = np.asarray(taus, dtype=float)
    if taus.size == 0 or np.any(taus < 1):
        raise ValueError("taus must be a non-empty sequence of values >= 1")
    c = constants
    total_iters = float(np.sum(taus))
    effective_tau_term = float(np.sum(taus**2) / total_iters - 1.0)
    return (
        2.0 * c.initial_gap / (lr * total_iters)
        + lr * c.lipschitz * c.gradient_variance / c.n_workers
        + (lr**2) * (c.lipschitz**2) * c.gradient_variance * effective_tau_term
    )
