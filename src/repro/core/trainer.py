"""The PASGD trainer: runs a simulated cluster under a communication schedule.

One ``PASGDTrainer.train()`` call produces a :class:`~repro.utils.results.RunRecord`
containing the loss/accuracy trajectory of the *synchronized* model against
both the iteration count and the simulated wall clock — the two x-axes of
Figure 1.  The trainer is agnostic to which schedule drives it, so the same
code path produces the fully-synchronous baseline (τ=1), the fixed-τ PASGD
baselines, and ADACOMM, exactly as in the paper's experiments.

Training loop per round:

1. ask the schedule for τ;
2. ask the LR schedule for η (given the epoch count and current τ — this is
   where the "decay τ to 1 before decaying η" gating happens) and push it to
   all workers;
3. run τ local steps on every worker (clock advances by the slowest worker);
4. run the cluster's collective — by default, average the models (clock
   advances by the communication delay), applying block momentum if
   configured;
5. evaluate the synchronized model if an evaluation is due and log a point;
6. report (wall time, loss, lr) back to the schedule so AdaComm can adapt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.schedules import CommunicationSchedule
from repro.distributed.cluster import RowMetric, SimulatedCluster
from repro.nn.layers import Module
from repro.obs.emit import span
from repro.optim.lr_schedules import ConstantLR, LRSchedule
from repro.utils.domains import AT_LEAST_ONE
from repro.utils.logging import get_logger
from repro.utils.results import MetricPoint, RunRecord

__all__ = ["TrainerConfig", "PASGDTrainer"]

logger = get_logger("core.trainer")


@dataclass
class TrainerConfig:
    """Stopping criteria and evaluation cadence for a training run.

    Attributes
    ----------
    max_wall_time:
        Simulated wall-clock budget in seconds (inf to disable).
    max_iterations:
        Budget on total local iterations (inf to disable).  At least one of
        the two budgets must be finite.
    eval_every_rounds:
        Evaluate the synchronized model every this many communication rounds.
    iterations_per_epoch:
        Used to convert iteration counts to "epochs" for the LR schedule when
        the cluster has no dataset (e.g. quadratic objectives).  When a
        dataset is present the cluster's own epoch counter is used instead.
    record_discrepancy:
        If True, log the pre-averaging model discrepancy at each evaluation
        (the quantity bounded in the convergence proof).
    """

    max_wall_time: float = math.inf
    max_iterations: float = math.inf
    eval_every_rounds: int = 1
    iterations_per_epoch: int = 100
    record_discrepancy: bool = False

    def __post_init__(self) -> None:
        if math.isinf(self.max_wall_time) and math.isinf(self.max_iterations):
            raise ValueError("at least one of max_wall_time / max_iterations must be finite")
        if self.max_wall_time <= 0 or self.max_iterations <= 0:
            raise ValueError("budgets must be positive")
        AT_LEAST_ONE("eval_every_rounds", self.eval_every_rounds)
        AT_LEAST_ONE("iterations_per_epoch", self.iterations_per_epoch)


class PASGDTrainer:
    """Drives a :class:`SimulatedCluster` under communication and LR schedules.

    Parameters
    ----------
    cluster:
        The simulated cluster (workers, delay model, virtual clock).
    schedule:
        Communication-period schedule (fixed τ, sequence, or AdaComm).
    lr_schedule:
        Learning-rate schedule; defaults to a constant equal to the cluster's
        initial learning rate.
    train_eval_data, test_eval_data:
        Optional ``(X, y)`` pairs used to evaluate the synchronized model's
        training loss and test accuracy.  If ``train_eval_data`` is omitted,
        the mean local batch loss of the last period is logged instead (and
        for data-free objectives, ``loss_fn`` below is used).
    loss_fn:
        Optional override ``model -> float`` computing the training loss of
        the synchronized model (used by the quadratic-objective experiments
        where the loss has a closed form).  It runs like the data metrics:
        eval mode, gradients off.

    Both metrics of an evaluation point run in one
    :meth:`~repro.distributed.cluster.SimulatedCluster.evaluate_synchronized`
    call: one load of the synchronized model, one eval scope.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        schedule: CommunicationSchedule,
        lr_schedule: LRSchedule | None = None,
        train_eval_data: tuple[np.ndarray, np.ndarray] | None = None,
        test_eval_data: tuple[np.ndarray, np.ndarray] | None = None,
        loss_fn: Callable[[Module], float] | None = None,
        config: TrainerConfig | None = None,
        name: str | None = None,
    ):
        self.cluster = cluster
        self.schedule = schedule
        self.lr_schedule = lr_schedule or ConstantLR(cluster.current_lr)
        self.config = config or TrainerConfig(max_iterations=1000)
        self.name = name or schedule.label
        # metric name -> ``model -> float``, evaluated together at every point.
        self._metrics: dict[str, Callable[[Module], float]] = {}
        if loss_fn is not None:
            self._metrics["train_loss"] = loss_fn
        elif train_eval_data is not None:
            self._metrics["train_loss"] = RowMetric("loss", *train_eval_data)
        if test_eval_data is not None:
            self._metrics["test_accuracy"] = RowMetric("accuracy", *test_eval_data)

    # -- evaluation -----------------------------------------------------------
    def _evaluate(self, round_index: int, fallback_loss: float) -> tuple[float, float]:
        """``(train loss, test accuracy)`` of the synchronized model, one call.

        A metric without data reads ``fallback_loss`` / nan.  Evaluation is
        free on the virtual clock, so the span's virtual duration is 0 while
        its wall duration is not — the divergence the dual-clock trace shows.
        """
        with span("eval", clock=self.cluster.clock, round=round_index):
            values = self.cluster.evaluate_synchronized(*self._metrics.values())
        got = dict(zip(self._metrics, values))
        return got.get("train_loss", fallback_loss), got.get("test_accuracy", float("nan"))

    def _current_epoch(self) -> float:
        epochs = self.cluster.epochs_completed()
        if epochs > 0:
            return epochs
        return self.cluster.total_local_iterations / self.config.iterations_per_epoch

    # -- round execution ------------------------------------------------------
    def _execute_round(self, tau: int, lr: float, round_index: int) -> tuple[float, dict]:
        """One communication round; returns (period loss, extra point fields).

        τ local steps at every worker, then the cluster's collective — the
        exact mean, a gossip mix or an arrival-ordered server fold; the
        round is the same for all three.
        """
        # The span's virtual duration is the round's simulated cost.
        with span("round", clock=self.cluster.clock, round=round_index, tau=tau, lr=lr):
            period_loss = self.cluster.run_local_period(tau)

            extra: dict[str, float] = {}
            if self.config.record_discrepancy:
                extra["model_discrepancy"] = self.cluster.model_discrepancy()

            self.cluster.average_models()
        return period_loss, extra

    # -- main loop -----------------------------------------------------------
    def train(self) -> RunRecord:
        """Run until the wall-clock or iteration budget is exhausted."""
        cfg = self.config
        record = RunRecord(
            name=self.name,
            config={
                "schedule": self.schedule.label,
                "n_workers": self.cluster.n_workers,
                "initial_lr": self.lr_schedule.initial_lr,
                "max_wall_time": cfg.max_wall_time,
                "max_iterations": cfg.max_iterations,
            },
        )

        # Initial evaluation at t = 0 so every curve starts from the same point.
        initial_loss, initial_acc = self._evaluate(0, fallback_loss=float("nan"))
        record.log(
            MetricPoint(
                iteration=0,
                wall_time=0.0,
                train_loss=initial_loss if not math.isnan(initial_loss) else float("inf"),
                test_accuracy=initial_acc,
                tau=self.schedule.peek_tau(),
                lr=self.lr_schedule.initial_lr,
            )
        )
        # Seed adaptive schedules with the starting loss (a non-finite loss
        # would poison AdaComm's reference F_0, so it is simply not reported).
        if math.isfinite(initial_loss):
            self.schedule.observe(0.0, max(initial_loss, 0.0), self.lr_schedule.initial_lr)

        rounds = 0
        while (
            self.cluster.clock.now < cfg.max_wall_time
            and self.cluster.total_local_iterations < cfg.max_iterations
        ):
            tau = self.schedule.next_tau()
            lr = self.lr_schedule.lr_at(self._current_epoch(), tau=tau)
            self.cluster.set_lr(lr)

            period_loss, extra = self._execute_round(tau, lr, rounds + 1)
            rounds += 1

            if rounds % cfg.eval_every_rounds == 0:
                train_loss, test_acc = self._evaluate(rounds, fallback_loss=period_loss)
            else:
                train_loss = period_loss
                test_acc = float("nan")

            wall_time = self.cluster.clock.now
            record.log(
                MetricPoint(
                    iteration=self.cluster.total_local_iterations,
                    wall_time=wall_time,
                    train_loss=train_loss,
                    test_accuracy=test_acc,
                    tau=tau,
                    lr=lr,
                    extra=extra,
                )
            )
            self.schedule.observe(wall_time, max(train_loss, 0.0), lr)

        if rounds > 0 and rounds % cfg.eval_every_rounds != 0:
            # The budget expired on a non-eval round, so the last logged point
            # carries the period-loss proxy and test_accuracy=nan — evaluate
            # the final synchronized model once so every run ends on a real
            # measurement (final-accuracy readers and the error-runtime
            # frontier consume the last point).
            final_loss, final_acc = self._evaluate(rounds, fallback_loss=period_loss)
            record.log(
                MetricPoint(
                    iteration=self.cluster.total_local_iterations,
                    wall_time=self.cluster.clock.now,
                    train_loss=final_loss,
                    test_accuracy=final_acc,
                    tau=tau,
                    lr=lr,
                )
            )

        logger.debug(
            "run %s finished: %d rounds, %d iterations, %.2f simulated seconds",
            self.name,
            rounds,
            self.cluster.total_local_iterations,
            self.cluster.clock.now,
        )
        return record


# benchmarks/e2e (frozen for this PR) resolves this name in LAYER_TARGETS; the
# benchmark PR that drops it there deletes the alias.
AsyncPASGDTrainer = PASGDTrainer
