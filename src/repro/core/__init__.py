"""Core contribution: error-runtime theory, AdaComm, and the PASGD trainer.

* ``theory`` — Theorem 1's error-runtime bound, Theorem 2's optimal τ*, and
  Theorem 3's convergence-condition checks for variable (τ, η) sequences.
* ``schedules`` — the ``CommunicationSchedule`` interface with fixed-τ,
  explicit-sequence and AdaComm implementations; :class:`AdaCommSchedule`
  is the whole adaptive algorithm, and its module docstring states its
  update rules (eqs. 17, 18 and 20).
* ``trainer`` — :class:`PASGDTrainer`, which drives a simulated cluster under
  a communication schedule and an LR schedule and records loss/accuracy
  versus iterations *and* simulated wall-clock time.
"""

from repro.core.theory import (
    TheoreticalConstants,
    error_runtime_bound,
    error_iteration_bound,
    optimal_communication_period,
    adacomm_convergence_conditions,
    variable_tau_bound,
)
from repro.core.schedules import (
    CommunicationSchedule,
    FixedCommunicationSchedule,
    SequenceCommunicationSchedule,
    AdaCommSchedule,
    tau_rule,
)
from repro.core.trainer import PASGDTrainer, TrainerConfig

__all__ = [
    "TheoreticalConstants",
    "error_runtime_bound",
    "error_iteration_bound",
    "optimal_communication_period",
    "adacomm_convergence_conditions",
    "variable_tau_bound",
    "CommunicationSchedule",
    "FixedCommunicationSchedule",
    "SequenceCommunicationSchedule",
    "AdaCommSchedule",
    "tau_rule",
    "PASGDTrainer",
    "TrainerConfig",
]
