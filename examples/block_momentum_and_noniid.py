"""Extensions: block momentum (Section 5.3) and non-i.i.d. (federated) shards.

Two mini-studies on the same communication-heavy workload:

1. **Block momentum** — compares plain PASGD against PASGD with the global
   block-momentum buffer of eq. 24–25 (β_glob = 0.3, local momentum 0.9 with
   buffers cleared at each averaging step), both driven by ADACOMM.
2. **Non-i.i.d. shards** — the paper notes that adaptive communication extends
   directly to Federated Learning.  Here each worker's shard is label-skewed
   (two dominant classes per worker), which increases the model discrepancy
   between averaging steps; ADACOMM responds by shrinking τ sooner.

Run with:  python examples/block_momentum_and_noniid.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AdaCommSchedule,
    NetworkModel,
    PASGDTrainer,
    RuntimeSimulator,
    SimulatedCluster,
    TrainerConfig,
)
from repro.data.partition import partition_dataset
from repro.data.synthetic import make_synth_cifar10
from repro.distributed import Exact
from repro.models.mlp import MLP
from repro.runtime.distributions import ShiftedExponentialDelay

N_WORKERS = 4
ALPHA = 4.0
WALL_TIME = 1200.0


def build_and_train(
    use_block_momentum: bool,
    partition_strategy: str = "iid",
    lr: float = 0.05,
    seed: int = 0,
    record_discrepancy: bool = False,
):
    dataset = make_synth_cifar10(n_samples=2500, n_features=64, rng=seed)
    train, test = dataset.split(test_fraction=0.2, rng=seed)
    partition = partition_dataset(train, N_WORKERS, strategy=partition_strategy, rng=seed)

    def model_fn():
        return MLP(n_features=64, n_classes=10, hidden_sizes=(), rng=321)

    runtime = RuntimeSimulator(
        ShiftedExponentialDelay(shift=0.75, scale=0.25),
        NetworkModel(base_delay=ALPHA, scaling="constant"),
        N_WORKERS,
        rng=seed,
    )
    cluster = SimulatedCluster(
        model_fn=model_fn,
        dataset=partition,
        runtime=runtime,
        n_workers=N_WORKERS,
        batch_size=8,
        lr=lr,
        momentum=0.9 if use_block_momentum else 0.0,
        collective=Exact(block_momentum=0.3 if use_block_momentum else 0.0),
        seed=seed,
    )
    schedule = AdaCommSchedule(initial_tau=20, interval_length=100.0)
    trainer = PASGDTrainer(
        cluster,
        schedule,
        train_eval_data=(train.X, train.y),
        test_eval_data=(test.X, test.y),
        config=TrainerConfig(max_wall_time=WALL_TIME, record_discrepancy=record_discrepancy),
        name=("block-momentum" if use_block_momentum else "plain")
        + ("" if partition_strategy == "iid" else f"+{partition_strategy}"),
    )
    return trainer.train(), schedule


def describe(record, schedule) -> None:
    taus = [tau for _, tau in schedule.tau_history]
    print(f"  {record.name:22s} final loss {record.final_loss():.4f}"
          f"   best acc {100 * record.best_accuracy():.2f}%"
          f"   tau sequence {taus}")


def main() -> None:
    print("ADACOMM with and without block momentum (iid shards)  [Figure 11]")
    plain, plain_sched = build_and_train(use_block_momentum=False)
    block, block_sched = build_and_train(use_block_momentum=True)
    describe(plain, plain_sched)
    describe(block, block_sched)
    target = 1.0
    print(f"  time to training loss {target}: plain {plain.time_to_loss(target):.0f} s, "
          f"block momentum {block.time_to_loss(target):.0f} s")

    print("\nADACOMM under iid vs label-skewed (federated-style) shards")
    iid, iid_sched = build_and_train(False, partition_strategy="iid", record_discrepancy=True)
    skew, skew_sched = build_and_train(False, partition_strategy="label_skew", record_discrepancy=True)
    describe(iid, iid_sched)
    describe(skew, skew_sched)

    def mean_discrepancy(record):
        values = [p.extra["model_discrepancy"] for p in record.points if "model_discrepancy" in p.extra]
        return float(np.mean(values)) if values else float("nan")

    print(f"  mean pre-averaging model discrepancy: iid {mean_discrepancy(iid):.3f} "
          f"vs label-skew {mean_discrepancy(skew):.3f}")
    print("  (heterogeneous shards make local models drift further apart between")
    print("   averaging steps, which is why smaller tau / earlier adaptation helps there)")


if __name__ == "__main__":
    main()
