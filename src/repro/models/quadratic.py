"""Synthetic quadratic objectives with analytically known constants.

Theorem 1's bound involves the Lipschitz constant ``L`` of the gradient, the
gradient-noise variance ``σ²`` and the initial optimality gap ``F(x1)-Finf``.
For deep networks these are unknown, which is exactly why the paper replaces
the closed-form τ* (eq. 14) with the practical update rule (eq. 17).  The
quadratic problems in this module make all three constants exact, so the
tests and the theory-validation benches can compare simulated PASGD/AdaComm
behaviour against the bound directly.

``QuadraticObjective`` is F(x) = 0.5 (x-x*)^T A (x-x*) + f_inf with stochastic
gradients ∇F(x) + ζ, ζ ~ N(0, σ²/d I).  ``NoisyQuadraticProblem`` wraps it in
the same ``loss``/parameter interface as the NN models so the PASGD trainer
can optimize it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.layers import Module
from repro.nn.tensor import Tensor
from repro.utils.seeding import check_random_state

__all__ = ["QuadraticObjective", "NoisyQuadraticProblem"]


@dataclass
class QuadraticObjective:
    """F(x) = 0.5 (x - x*)^T A (x - x*) + f_inf with A symmetric PSD.

    Attributes
    ----------
    matrix:
        The Hessian ``A`` (d × d, symmetric positive semi-definite).
    optimum:
        The minimizer ``x*``.
    f_inf:
        The minimum value ``F(x*)``.
    noise_std:
        Standard deviation of the isotropic gradient noise per coordinate.
    """

    matrix: np.ndarray
    optimum: np.ndarray
    f_inf: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.optimum = np.asarray(self.optimum, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")
        if self.optimum.shape != (self.matrix.shape[0],):
            raise ValueError("optimum must be a vector matching the matrix dimension")
        if not np.allclose(self.matrix, self.matrix.T, atol=1e-10):
            raise ValueError("matrix must be symmetric")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")

    @classmethod
    def random(
        cls,
        dim: int,
        condition_number: float = 10.0,
        noise_std: float = 0.1,
        f_inf: float = 0.0,
        rng=None,
    ) -> "QuadraticObjective":
        """Random quadratic with eigenvalues log-spaced in [1/κ, 1] (so L = 1)."""
        if dim < 1:
            raise ValueError("dim must be positive")
        if condition_number < 1:
            raise ValueError("condition_number must be >= 1")
        gen = check_random_state(rng)
        eigs = np.logspace(-np.log10(condition_number), 0.0, dim)
        q, _ = np.linalg.qr(gen.normal(size=(dim, dim)))
        matrix = q @ np.diag(eigs) @ q.T
        matrix = 0.5 * (matrix + matrix.T)
        optimum = gen.normal(size=dim)
        return cls(matrix=matrix, optimum=optimum, f_inf=f_inf, noise_std=noise_std)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def lipschitz_constant(self) -> float:
        """L = largest eigenvalue of A."""
        return float(np.linalg.eigvalsh(self.matrix).max())

    @property
    def gradient_noise_variance(self) -> float:
        """σ² = E‖ζ‖² = d · noise_std² (the constant in Theorem 1)."""
        return self.dim * self.noise_std**2

    def value(self, x: np.ndarray) -> float:
        """Exact objective value F(x)."""
        diff = np.asarray(x, dtype=float) - self.optimum
        return float(0.5 * diff @ self.matrix @ diff + self.f_inf)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact gradient ∇F(x) = A (x - x*)."""
        return self.matrix @ (np.asarray(x, dtype=float) - self.optimum)

    def stochastic_gradient(self, x: np.ndarray, rng=None) -> np.ndarray:
        """Unbiased noisy gradient ∇F(x) + ζ with ζ ~ N(0, noise_std² I)."""
        gen = check_random_state(rng)
        grad = self.gradient(x)
        if self.noise_std > 0:
            grad = grad + gen.normal(0.0, self.noise_std, size=self.dim)
        return grad

    def gradient_norm_squared(self, x: np.ndarray) -> float:
        g = self.gradient(x)
        return float(g @ g)

    # -- stacked (worker-bank) evaluation -----------------------------------
    def stacked_values(self, X: np.ndarray) -> np.ndarray:
        """Exact objective values of m stacked iterates: ``(m, d) -> (m,)``.

        Row i reproduces :meth:`value` on ``X[i]`` with the identical
        vec-mat-vec evaluation order, so losses logged by the loop and bank
        backends agree to the last bit.
        """
        X = np.asarray(X, dtype=float)
        return np.array([self.value(x) for x in X])

    def stacked_stochastic_gradients(self, X: np.ndarray, rngs: Sequence | None = None) -> np.ndarray:
        """Per-worker noisy gradients for m stacked iterates: ``(m, d)``.

        ``rngs[i]`` is worker i's noise stream; row i equals
        :meth:`stochastic_gradient` on ``(X[i], rngs[i])``, consuming each
        stream exactly as m independent calls would.  The d×d products stay
        per-row on purpose: BLAS accumulates GEMV and GEMM differently, and
        byte-identical cross-backend trajectories outrank the negligible
        batched-matmul win at these dimensions — the bank's speedup comes
        from the single stacked autograd/SGD step, not from this d×d matvec.
        """
        X = np.asarray(X, dtype=float)
        if rngs is None:
            rngs = [None] * len(X)
        if len(rngs) != len(X):
            raise ValueError(f"{len(X)} stacked iterates but {len(rngs)} RNG streams")
        return np.stack(
            [self.stochastic_gradient(x, rng) for x, rng in zip(X, rngs)]
        )


class NoisyQuadraticProblem(Module):
    """Module wrapper exposing a quadratic objective through the model interface.

    The trainer calls ``model.loss(x_batch, y_batch)``; for quadratic problems
    the "data batch" is ignored and the stochastic gradient noise is injected
    directly, with variance matching ``objective.noise_std``.  The loss tensor
    returned is built so that ``backward()`` deposits exactly the stochastic
    gradient into the parameter, which lets the standard SGD optimizer drive
    the analytic problem.
    """

    def __init__(self, objective: QuadraticObjective, x0: np.ndarray | None = None, rng=None):
        super().__init__()
        self.objective = objective
        start = np.zeros(objective.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
        if start.shape != (objective.dim,):
            raise ValueError("x0 must match the objective dimension")
        self.x = Tensor(start, requires_grad=True)
        self._rng = check_random_state(rng)
        #: Per-worker noise streams for the bank path (wired by
        #: ``repro.nn.bank.attach_bank_streams`` at backend construction).
        self._bank_rngs: "list | None" = None

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return params[f"{prefix}x"]

    def bank_loss(self, x_batch=None, y_batch=None, params=None) -> Tensor:
        """Per-worker surrogate losses ``(m,)`` over stacked iterates.

        Entry i is ``g_noisy_i · x_i`` with ``g_noisy_i`` — worker i's noisy
        gradient, drawn from worker i's noise stream — held constant, plus a
        detached offset: the gradient of ``losses.sum()`` w.r.t. the stacked
        parameter is exactly the m noisy gradients, and each loss value is
        the exact objective value F(x_i) (useful for logging).
        """
        X = params["x"]  # (m, d) stacked iterates
        m = X.shape[0]
        rngs = self._worker_streams(m, "noise") if self.objective.noise_std > 0 else [None] * m
        x_vals = X.data
        g_noisy = self.objective.stacked_stochastic_gradients(x_vals, rngs)
        values = self.objective.stacked_values(x_vals)
        offsets = values - np.array(
            [float(g @ xv) for g, xv in zip(g_noisy, x_vals)]
        )
        return (X * Tensor(g_noisy)).sum(axis=1) + Tensor(offsets)

    def _consumes_stream(self) -> bool:
        return self.objective.noise_std > 0

    def current_value(self) -> float:
        """Exact objective value at the current iterate."""
        return self.objective.value(self.x.data)

    def current_gradient_norm(self) -> float:
        """Exact ‖∇F(x)‖ at the current iterate."""
        return float(np.linalg.norm(self.objective.gradient(self.x.data)))
