"""Communication-period schedules, ADACOMM among them (Section 4).

A ``CommunicationSchedule`` answers one question for the trainer: *how many
local steps should the workers take before the next averaging step?*  Three
implementations cover the paper's experiments:

* :class:`FixedCommunicationSchedule` — the PASGD baselines (τ = 1 is fully
  synchronous SGD, τ = 100 the extreme-throughput baseline, τ = 5/20 the
  manually tuned baselines).
* :class:`SequenceCommunicationSchedule` — an arbitrary pre-specified
  {τ_0, τ_1, ...} sequence, used by the variable-τ convergence analysis
  (Theorem 3) tests and by ablations.
* :class:`AdaCommSchedule` — ADACOMM.  Training is cut into wall-clock
  intervals of length T0; the first observation fixes the reference loss F_0
  and learning rate η_0, and at each interval boundary τ is re-estimated from
  the latest loss F_l and learning rate η_l:

  - eq. 20: τ_l = ⌈√((η_0/η_l) · F_l/F_0) · τ_0⌉ (:func:`tau_rule`; at a
    constant learning rate it is eq. 17, τ_l = ⌈√(F_l/F_0) · τ_0⌉, and it is
    the practical ``ηL ≈ 1`` form of eq. 19);
  - eq. 18: if that candidate is not strictly smaller than the current τ,
    τ ← ⌊γ · τ⌋ instead (the paper uses γ = 1/2), so τ keeps shrinking when
    the loss plateaus.

  τ never drops below 1 and never increases.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.api.registries import COMM_SCHEDULES
from repro.utils.logging import get_logger

logger = get_logger("core.schedules")

__all__ = [
    "CommunicationSchedule",
    "FixedCommunicationSchedule",
    "SequenceCommunicationSchedule",
    "AdaCommSchedule",
    "tau_rule",
]


class CommunicationSchedule(abc.ABC):
    """Decides the communication period for each local-update round."""

    @abc.abstractmethod
    def next_tau(self) -> int:
        """Communication period to use for the upcoming local-update period."""

    def peek_tau(self) -> int:
        """Communication period the next call to :meth:`next_tau` would return,
        without consuming it (only matters for stateful sequence schedules)."""
        return self.next_tau()

    def observe(self, wall_time: float, train_loss: float, lr: float) -> None:
        """Report progress after an averaging step (no-op for static schedules)."""

    @property
    @abc.abstractmethod
    def label(self) -> str:
        """Short human-readable name used in results and plots."""


@COMM_SCHEDULES.register("fixed")
class FixedCommunicationSchedule(CommunicationSchedule):
    """Constant communication period τ (τ = 1 is fully synchronous SGD)."""

    def __init__(self, tau: int):
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        self.tau = int(tau)

    def next_tau(self) -> int:
        return self.tau

    @property
    def label(self) -> str:
        return "sync-sgd" if self.tau == 1 else f"pasgd-tau{self.tau}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"FixedCommunicationSchedule(tau={self.tau})"


@COMM_SCHEDULES.register("sequence")
class SequenceCommunicationSchedule(CommunicationSchedule):
    """Explicit period sequence {τ_0, τ_1, ...}; the last value repeats forever."""

    def __init__(self, taus: Sequence[int]):
        taus = [int(t) for t in taus]
        if not taus:
            raise ValueError("period sequence must be non-empty")
        if any(t < 1 for t in taus):
            raise ValueError("all periods must be >= 1")
        self.taus = taus
        self._index = 0

    def next_tau(self) -> int:
        tau = self.taus[min(self._index, len(self.taus) - 1)]
        self._index += 1
        return tau

    def peek_tau(self) -> int:
        return self.taus[min(self._index, len(self.taus) - 1)]

    @property
    def label(self) -> str:
        return f"sequence-{len(self.taus)}"


def tau_rule(initial_loss: float, loss: float, initial_tau: int, lr_ratio: float = 1.0) -> int:
    """Eq. 20's candidate period, ``⌈√(lr_ratio · loss/initial_loss) · initial_tau⌉``, at least 1.

    ``lr_ratio`` is η_0/η_l; at its default the rule is eq. 17.
    """
    return max(1, math.ceil(math.sqrt(lr_ratio * (loss / initial_loss)) * initial_tau))


@COMM_SCHEDULES.register("adacomm")
@dataclass
class AdaCommSchedule(CommunicationSchedule):
    """ADACOMM: τ re-estimated every ``interval_length`` simulated seconds.

    Attributes
    ----------
    initial_tau:
        τ_0 for the first interval.
    interval_length:
        T0, the wall-clock length of each adaptation interval in (simulated)
        seconds.  The paper uses 60 s (~10 epochs at τ_0) on its testbed.
    gamma:
        The eq. 18 decay applied when the rule fails to strictly decrease τ.
    tau_history:
        ``(wall_time, τ)`` at the start and at every adaptation.
    """

    initial_tau: int = 10
    interval_length: float = 60.0
    gamma: float = 0.5
    tau_history: list[tuple[float, int]] = field(init=False)
    _tau: int = field(init=False, repr=False)
    _initial_loss: "float | None" = field(default=None, init=False, repr=False)
    _initial_lr: "float | None" = field(default=None, init=False, repr=False)
    _next_boundary: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.initial_tau < 1:
            raise ValueError(f"initial_tau must be >= 1, got {self.initial_tau}")
        if self.interval_length <= 0:
            raise ValueError(f"interval_length must be positive, got {self.interval_length}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        self._tau = self.initial_tau
        self._next_boundary = self.interval_length
        self.tau_history = [(0.0, self._tau)]

    def next_tau(self) -> int:
        return self._tau

    def observe(self, wall_time: float, train_loss: float, lr: float) -> None:
        """Report progress after an averaging step; adapts τ at an interval boundary.

        The first observation fixes F_0 and η_0.  When ``wall_time`` has
        crossed one or more boundaries since the last adaptation, τ adapts
        once, with the latest loss (an implementation that only wakes up at
        averaging steps).
        """
        if wall_time < 0:
            raise ValueError("wall_time must be non-negative")
        if not math.isfinite(train_loss):
            # A diverging run reports NaN (or inf) losses; adapting on one
            # would poison every later τ (and ceil(nan·τ) raises).  Keep the
            # previous period and wait for a finite observation — the next
            # boundary crossing adapts with whatever loss is reported then.
            logger.warning(
                "ignoring non-finite training loss %r at t=%.3f; keeping tau=%d",
                train_loss,
                wall_time,
                self._tau,
            )
            return
        if train_loss < 0:
            raise ValueError("train_loss must be non-negative")
        if lr <= 0:
            raise ValueError("lr must be positive")

        if self._initial_loss is None:
            # Guard against a zero initial loss (already converged).
            self._initial_loss = max(train_loss, 1e-12)
            self._initial_lr = lr
            return
        if wall_time < self._next_boundary:
            return
        while wall_time >= self._next_boundary:
            self._next_boundary += self.interval_length

        candidate = tau_rule(self._initial_loss, train_loss, self.initial_tau, self._initial_lr / lr)
        self._tau = candidate if candidate < self._tau else max(1, math.floor(self.gamma * self._tau))
        self.tau_history.append((wall_time, self._tau))

    @property
    def label(self) -> str:
        return "adacomm"
