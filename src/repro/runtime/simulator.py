"""Sampling the delays that drive the virtual wall clock.

The :class:`RuntimeSimulator` only samples; the simulated cluster
(``repro.distributed.cluster``) turns the draws into clock advances and is
the one ledger of simulated time (``SimulatedCluster.breakdown``).  The
cluster asks two questions:

* "all m workers just ran τ local steps each — how long did each take?"
  Answer: the ``(m,)`` per-worker totals ``sum_{k=1}^{τ} Y_{i,k}``
  (:meth:`~RuntimeSimulator.sample_local_period`).  Within a period the
  workers are not synchronized, so the barrier waits for
  ``max_i sum_k Y_{i,k}`` (eq. 11), or for the survivors' maximum under
  elastic dropout; a τ = 1 period is the per-step barrier of eq. 8.
* "the workers just averaged their models — how long did the broadcast take?"
  Answer: ``D = D0 s(m)`` (eq. 5; :meth:`~RuntimeSimulator.sample_communication`).

Keeping the sampling here (rather than inside the trainer) lets the same
trainer run under any delay regime and makes the delay model unit-testable
in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.distributions import DelayDistribution
from repro.runtime.network import NetworkModel
from repro.utils.domains import AT_LEAST_ONE
from repro.utils.seeding import check_random_state

__all__ = ["AsyncRoundTiming", "RuntimeSimulator"]


@dataclass(frozen=True)
class AsyncRoundTiming:
    """Per-worker timings of one asynchronous generation (no barrier).

    Attributes
    ----------
    arrival_times:
        Absolute per-worker virtual times at which each worker's update
        reaches the parameter server (its clock + τ steps + one push delay).
    per_worker_compute:
        Per-worker total compute time of the τ local steps.
    per_worker_push:
        Per-worker point-to-point push delay to the server.
    """

    arrival_times: np.ndarray
    per_worker_compute: np.ndarray
    per_worker_push: np.ndarray


class RuntimeSimulator:
    """Samples compute and communication delays for a simulated cluster."""

    def __init__(
        self,
        compute: DelayDistribution,
        network: NetworkModel,
        n_workers: int,
        rng: np.random.Generator | int | None = None,
    ):
        AT_LEAST_ONE("n_workers", n_workers)
        self.compute = compute
        self.network = network
        self.n_workers = int(n_workers)
        self._rng = check_random_state(rng)
        # Per-worker virtual clocks for the async (barrier-free) execution
        # mode; synchronous paths never read or advance them.
        self.worker_clocks = np.zeros(self.n_workers)

    def sample_local_period(self, tau: int) -> np.ndarray:
        """Per-worker compute time of τ local steps: the ``(m,)`` sums ``sum_k Y_{i,k}``.

        The period ends when the slowest worker finishes, ``max_i sum_k Y_{i,k}``;
        the sum averages out per-step noise, which is the straggler mitigation
        of periodic averaging.
        """
        return self._per_worker_compute(tau)

    def sample_async_period(self, tau: int) -> AsyncRoundTiming:
        """Per-worker timings of τ async local steps plus a server push.

        Unlike :meth:`sample_local_period` there is no barrier: each worker
        advances its *own* virtual clock by its τ-step compute time plus one
        point-to-point push delay (the network scaling evaluated at size 1 —
        a single worker↔server transfer, not an all-node collective), and the
        absolute arrival times determine the order in which the parameter
        server folds the updates in.
        """
        per_worker = self._per_worker_compute(tau)
        push = np.full(self.n_workers, self.network.sample_delay(1))
        arrivals = self.worker_clocks + per_worker + push
        self.worker_clocks = arrivals.copy()
        return AsyncRoundTiming(
            arrival_times=arrivals,
            per_worker_compute=per_worker,
            per_worker_push=push,
        )

    def sample_communication(self) -> float:
        """Duration of one all-node model-averaging round."""
        return float(self.network.sample_delay(self.n_workers))

    # Not a public sampler: ``benchmarks/e2e/traced_main.py`` times the three
    # public ones as ``runtime.sample_s``, and an async period is one call.
    def _per_worker_compute(self, tau: int) -> np.ndarray:
        AT_LEAST_ONE("tau", tau)
        return self.compute.sample((self.n_workers, tau), self._rng).sum(axis=1)
