"""Learning-rate schedules.

The paper's experiments use either a fixed learning rate or a step decay
("decay the learning rate by 10 after the 80th/120th/160th/200th epochs").
Section 4.3.2 adds a coupling rule: when AdaComm is active, a scheduled decay
is *postponed* until the communication period has been brought back down to
τ = 1, so that the extra gradient noise introduced by local updates is
eliminated before the learning rate drops.  ``TauGatedStepLR`` implements
that gating; the trainer feeds it the current τ.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.api.registries import LR_SCHEDULES
from repro.optim.sgd import require_finite
from repro.utils.domains import POSITIVE, Interval

__all__ = [
    "LRSchedule",
    "ConstantLR",
    "StepDecayLR",
    "MultiStepLR",
    "TauGatedStepLR",
    "make_lr_schedule",
]

#: A decay factor's range: 1 keeps the rate, and 0 would zero it.
DECAY_GAMMA = Interval(0, 1, lo_open=True)


def check_milestones(name: str, milestones: tuple) -> None:
    """Refuse milestones that are not positive epochs in ascending order."""
    POSITIVE(name, tuple(milestones))
    if list(milestones) != sorted(milestones):
        raise ValueError(f"{name} must be sorted ascending, got {milestones}")


class LRSchedule(abc.ABC):
    """Maps training progress (epochs and current τ) to a learning rate."""

    @abc.abstractmethod
    def lr_at(self, epoch: float, tau: int = 1) -> float:
        """Learning rate to use at fractional ``epoch`` given current period ``tau``."""

    @property
    @abc.abstractmethod
    def initial_lr(self) -> float:
        """Learning rate at the start of training."""


@LR_SCHEDULES.register("constant")
@dataclass(frozen=True)
class ConstantLR(LRSchedule):
    """Fixed learning rate."""

    lr: float

    def __post_init__(self) -> None:
        require_finite("learning rate", self.lr)

    def lr_at(self, epoch: float, tau: int = 1) -> float:
        return self.lr

    @property
    def initial_lr(self) -> float:
        return self.lr


@LR_SCHEDULES.register("step")
@dataclass(frozen=True)
class StepDecayLR(LRSchedule):
    """Multiply the learning rate by ``gamma`` every ``step_epochs`` epochs."""

    lr: float
    step_epochs: float
    gamma: float = 0.1

    def __post_init__(self) -> None:
        require_finite("learning rate", self.lr)
        POSITIVE("step_epochs", self.step_epochs)
        DECAY_GAMMA("gamma", self.gamma)

    def lr_at(self, epoch: float, tau: int = 1) -> float:
        n_decays = int(epoch // self.step_epochs)
        return self.lr * self.gamma**n_decays

    @property
    def initial_lr(self) -> float:
        return self.lr


@LR_SCHEDULES.register("multistep")
@dataclass(frozen=True)
class MultiStepLR(LRSchedule):
    """Decay by ``gamma`` at each epoch milestone (the paper's 80/120/160/200)."""

    lr: float
    milestones: tuple[float, ...] = (80.0, 120.0, 160.0, 200.0)
    gamma: float = 0.1

    def __post_init__(self) -> None:
        require_finite("learning rate", self.lr)
        DECAY_GAMMA("gamma", self.gamma)
        check_milestones("milestones", self.milestones)

    def lr_at(self, epoch: float, tau: int = 1) -> float:
        n_decays = sum(1 for m in self.milestones if epoch >= m)
        return self.lr * self.gamma**n_decays

    @property
    def initial_lr(self) -> float:
        return self.lr


@LR_SCHEDULES.register("tau_gated")
@dataclass
class TauGatedStepLR(LRSchedule):
    """MultiStep decay that is postponed while the communication period exceeds 1.

    Section 4.3.2: "if the learning rate is scheduled to be decayed at the
    80th epoch but at that time the communication period τ is still larger
    than 1, then we will continue [to] use the current learning rate until
    τ = 1."  The gate is per-milestone: a milestone only "fires" the first
    time it is requested with τ == 1, and the decay count never decreases.
    """

    lr: float
    milestones: tuple[float, ...] = (80.0, 120.0, 160.0, 200.0)
    gamma: float = 0.1
    _fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        require_finite("learning rate", self.lr)
        DECAY_GAMMA("gamma", self.gamma)
        check_milestones("milestones", self.milestones)

    def lr_at(self, epoch: float, tau: int = 1) -> float:
        eligible = sum(1 for m in self.milestones if epoch >= m)
        if tau <= 1 and eligible > self._fired:
            self._fired = eligible
        return self.lr * self.gamma**self._fired

    @property
    def initial_lr(self) -> float:
        return self.lr

    @property
    def decays_applied(self) -> int:
        """Number of milestone decays that have actually fired."""
        return self._fired


def make_lr_schedule(name: str, **kwargs) -> LRSchedule:
    """Factory: ``constant``, ``step``, ``multistep``, or ``tau_gated``
    (backed by the shared ``LR_SCHEDULES`` registry)."""
    return LR_SCHEDULES.build(name, **kwargs)
