"""The paper's claims as one table: ``python -m repro.experiments.claims``.

Each :class:`Claim` is one quantity of a figure or table: the paper's value
where it states one, the simulator's, the analytical model's where one exists,
and the relation that must hold.  Only relations gate.  Trained rows read
``paper_claims`` / ``paper_ablations`` cells from the CLI's default store
``sweeps/`` (so ``python -m repro --sweep paper_claims`` renders them as cache
hits); the runtime-model rows and Fig 14's hand-built cluster are computed
here.  Simulated time is deterministic: the command rewrites the same
``CLAIMS.json`` bytes every time and exits 1 if any relation fails.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.theory import TheoreticalConstants, error_runtime_bound
from repro.distributed.cluster import RowMetric, SimulatedCluster
from repro.experiments.configs import make_config
from repro.experiments.tables import accuracy_table, format_table
from repro.models.mlp import MLP
from repro.nn.losses import accuracy
from repro.runtime.distributions import ConstantDelay, ExponentialDelay
from repro.runtime.model import speedup_constant_delays, speedup_over_sync
from repro.runtime.network import NetworkModel
from repro.runtime.order_stats import empirical_max_distribution, expected_max_exponential
from repro.runtime.simulator import RuntimeSimulator
from repro.sweep import ResultStore, SweepRunner
from repro.sweep.campaigns import paper_ablations_sweep, paper_claims_sweep
from repro.utils.results import RunRecord, RunStore, encode_json_floats

__all__ = ["Claim", "runtime_claims", "fig14_claims", "lineup_claims", "ablation_claims", "main"]

CLAIMS_FILE = "CLAIMS.json"
STORE = "sweeps"  # the CLI's default --store

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One row.  ``relation`` reads ``"<subject> <op> <bound>"`` or ``"<subject> is finite"``,
    the subject being ``simulator``, ``analytic`` or ``|simulator - analytic|``."""

    id: str
    quantity: str
    relation: str
    simulator: "float | None" = None
    analytic: "float | None" = None
    paper: "float | None" = None

    @property
    def figure(self) -> str:
        """``fig9b`` -> ``Fig 9(b)``, ``table1`` -> ``Table 1``; ``ablation`` stays."""
        prefix = self.id.split(".")[0]
        match = re.fullmatch(r"(fig|table)(\d+)([a-z]?)", prefix)
        if match is None:
            return prefix
        kind, number, panel = match.groups()
        return f"{kind.title()} {number}" + (f"({panel})" if panel else "")

    @property
    def holds(self) -> bool:
        subject, op, bound = self.relation.rsplit(" ", 2)
        value = abs(self.simulator - self.analytic) if subject.startswith("|") else getattr(self, subject)
        return math.isfinite(value) if op == "is" else bool(_OPS[op](value, float(bound)))

    def to_dict(self) -> dict:
        ratio = None if self.paper is None or self.simulator is None else self.simulator / self.paper
        values = dict(paper=self.paper, simulator=self.simulator, analytic=self.analytic, simulator_over_paper=ratio)
        return {
            "id": self.id, "figure": self.figure, "quantity": self.quantity, "relation": self.relation,
            "holds": self.holds, **{key: None if v is None else float(v) for key, v in values.items()},
        }


def _floor(record: RunRecord) -> float:
    """The loss floor: mean train loss of the last eight points."""
    return float(np.mean(record.train_losses[-8:]))


def runtime_claims() -> list[Claim]:
    """Figs 4, 5, 6 and 8, from the runtime model and Theorem 1 alone."""
    rows = []
    speedup = speedup_constant_delays
    taus = np.array([1, 2, 5, 10, 20, 40, 60, 80, 100])
    for alpha in (0.1, 0.5, 0.9):
        curve = speedup(alpha, taus)
        network = NetworkModel(alpha, "constant")
        over_sync = {tau: speedup_over_sync(ConstantDelay(1.0), network, 4, tau) for tau in (1, 100)}
        what = f"PASGD speed-up over sync SGD at α = {alpha}"
        rows += [
            Claim(f"fig4.a{alpha}.speedup_tau1", f"{what}, τ = 1", "analytic == 1.0", over_sync[1], curve[0]),
            Claim(f"fig4.a{alpha}.speedup_tau100", f"{what}, τ = 100", "|simulator - analytic| < 1e-09",
                  over_sync[100], curve[-1]),
            Claim(f"fig4.a{alpha}.min_step", f"smallest step of that curve over τ = {list(taus)}",
                  "analytic >= -1e-12", analytic=np.diff(curve).min()),
        ]
    rows += [
        Claim("fig4.alpha_gain_tau100", "speed-up at α = 0.9 / at α = 0.1, τ = 100", "analytic > 1.0",
              analytic=speedup(0.9, 100) / speedup(0.1, 100)),
        Claim("fig4.alpha_gain_tau20", "speed-up at α = 0.9 / at α = 0.5, τ = 20", "analytic > 1.0",
              analytic=speedup(0.9, 20) / speedup(0.5, 20)),
        Claim("fig4.tau_gain_a0.9", "speed-up at τ = 20 / at τ = 5, α = 0.9", "analytic > 1.0",
              analytic=speedup(0.9, 20) / speedup(0.9, 5)),
        Claim("fig4.a0.9.closed_form_tau100", "|speed-up at α = 0.9, τ = 100 / (1.9 / 1.009) - 1|",
              "analytic <= 0.001", analytic=abs(speedup(0.9, 100) / (1.9 / 1.009) - 1.0)),
    ]

    # Fig 5: D = 1, exponential compute times with mean 1, m = 16.
    sync = empirical_max_distribution(ExponentialDelay(1.0), 16, tau=1, comm_delay=1.0, n_samples=50_000, rng=0)
    pasgd = empirical_max_distribution(ExponentialDelay(1.0), 16, tau=10, comm_delay=1.0, n_samples=50_000, rng=1)
    rows += [
        Claim("fig5.sync_mean", "mean per-iteration runtime of sync SGD (s)", "|simulator - analytic| < 0.05",
              sync.mean(), expected_max_exponential(1.0, 16) + 1.0),
        Claim("fig5.mean_speedup_tau10", "mean per-iteration runtime, sync SGD / PASGD τ = 10", "simulator > 1.5",
              sync.mean() / pasgd.mean(), paper=2.0),
    ] + [
        Claim(f"fig5.p{q}_tau10_vs_sync", f"p{q} per-iteration runtime, PASGD τ = 10 / sync SGD", "simulator < 1.0",
              np.quantile(pasgd, q / 100) / np.quantile(sync, q / 100))
        for q in (95, 99)
    ]

    # Fig 6: the caption's constants (F(x1) = 1, L = 1, σ² = 1, η = 0.08) at Fig 5's delays.
    constants = TheoreticalConstants(
        initial_gap=1.0, lipschitz=1.0, gradient_variance=1.0, n_workers=16, compute_time=1.0, communication_delay=1.0
    )
    times = np.linspace(50.0, 4000.0, 40)
    bound = {tau: np.array([error_runtime_bound(constants, 0.08, tau, t) for t in times]) for tau in (1, 10)}
    rows += [
        Claim("fig6.bound_tau10_vs_sync_at_50s", "Theorem 1 bound at 50 s, τ = 10 / τ = 1", "analytic < 1.0",
              analytic=bound[10][0] / bound[1][0]),
        Claim("fig6.bound_tau10_vs_sync_at_4000s", "Theorem 1 bound at 4000 s, τ = 10 / τ = 1", "analytic > 1.0",
              analytic=bound[10][-1] / bound[1][-1]),
    ] + [
        Claim(f"fig6.tau{tau}.max_step", f"largest step of the τ = {tau} bound over 50-4000 s", "analytic <= 1e-12",
              analytic=np.diff(bound[tau]).max())
        for tau in (1, 10)
    ]

    # Fig 8: 100 iterations of each workload's delay model at τ = 1 and 10.
    alpha, comm, comp = {}, {}, {}
    for workload in ("vgg", "resnet"):
        config = make_config(f"{workload}_cifar10_fixed_lr")
        alpha[workload] = config.alpha
        for tau in (1, 10):
            simulator = RuntimeSimulator(
                config.compute_distribution(),
                NetworkModel(config.communication_delay, config.network_scaling), config.n_workers, rng=0,
            )
            # A barrier round: the slowest worker's τ steps, then one broadcast.
            comp[workload, tau] = comm[workload, tau] = 0.0
            for _ in range(100 // tau):
                comp[workload, tau] += float(simulator.sample_local_period(tau).max())
                comm[workload, tau] += simulator.sample_communication()
    return rows + [
        Claim(f"fig8.{workload}.comm_vs_compute_tau1",
              f"{workload}_lite communication / computation time over 100 iterations, τ = 1", relation,
              comm[workload, 1] / comp[workload, 1], alpha[workload], paper)
        for workload, relation, paper in (("vgg", "simulator > 1.0", 4.0), ("resnet", "simulator < 1.0", None))
    ] + [
        Claim("fig8.vgg.comm_tau10_vs_tau1", "vgg_lite communication time, τ = 10 / τ = 1", "simulator < 0.2",
              comm["vgg", 10] / comm["vgg", 1], 1 / 10),
    ]


def fig14_claims() -> list[Claim]:
    """Fig 14: worker 0's local model just before averaging vs the synchronized model."""
    config = make_config("vgg_cifar10_fixed_lr", lr=0.3)
    train, test = config.build_dataset(rng=0).split(test_fraction=0.2, rng=0)
    runtime = RuntimeSimulator(
        config.compute_distribution(),
        NetworkModel(config.communication_delay, config.network_scaling), config.n_workers, rng=0,
    )
    cluster = SimulatedCluster(
        lambda: MLP(config.n_features, config.n_classes, hidden_sizes=config.hidden_sizes, rng=11),
        train, runtime, config.n_workers, batch_size=config.batch_size,
        lr=config.lr, weight_decay=config.weight_decay, seed=0,
    )
    local, synced = [], []
    with cluster:
        for _ in range(60):
            cluster.run_local_period(15)
            local.append(accuracy(cluster.workers[0].model(test.X), test.y))
            cluster.average_models()
            synced.extend(cluster.evaluate_synchronized(RowMetric("accuracy", test.X, test.y)))
    gap = 100 * float(np.mean(synced[30:]) - np.mean(local[30:]))  # once the curves have settled
    return [Claim("fig14.accuracy_gap", "synchronized minus local test accuracy, PASGD τ = 15, rounds 30-59 (points)",
                  "simulator > 0.0", gap, paper=10.0)]


#: Per config: its figure's id prefix, then the train-loss target, the relation
#: and the paper's value for AdaComm's speed-up over sync SGD, t_sync / t_adacomm.
_LINEUPS = {
    "vgg_cifar10_variable_lr": ("fig9a", 0.80, "simulator > 1.0", None),
    "vgg_cifar10_fixed_lr": ("fig9b", 0.80, "simulator > 1.25", 3.0),
    "vgg_cifar100_fixed_lr": ("fig9c", 3.5, "simulator >= 1.0", None),
    "resnet_cifar10_variable_lr": ("fig10a", 0.85, "simulator > 0.8", None),
    "resnet_cifar10_fixed_lr": ("fig10b", 0.85, "simulator > 0.8", None),
    "resnet_cifar100_fixed_lr": ("fig10c", 3.5, "simulator > 0.8", None),
    "resnet_cifar10_block_momentum": ("fig11a", 0.9, f"simulator > {1 / 1.3!r}", None),
    "vgg_cifar10_block_momentum": ("fig11b", 0.85, "simulator > 1.0", None),
    "resnet_cifar100_block_momentum": ("fig11c", None, None, None),
    "vgg_cifar10_8workers": ("fig12", 0.85, "simulator > 1.0", 2.9),
    "resnet_cifar10_8workers": ("fig13", 0.9, f"simulator > {1 / 1.3!r}", 1.6),
}
#: Table 1's settings, read from the scale-1 Fig 9 / Fig 10 cells.
_TABLE1 = ("vgg_cifar10_fixed_lr", "vgg_cifar10_variable_lr", "resnet_cifar10_fixed_lr", "resnet_cifar10_variable_lr")


def lineup_claims(name: str, runs: RunStore) -> list[Claim]:
    """The rows one ``paper_claims`` cell, the named config's lineup, supports."""
    key, target, relation, paper = _LINEUPS[name]
    sync, ada, tau100 = runs.get("sync-sgd"), runs.get("adacomm"), runs.get("pasgd-tau100")
    rows = []
    if relation is not None:
        rows.append(Claim(f"{key}.adacomm_speedup", f"t_sync / t_adacomm to train loss {target}", relation,
                          runs.speedup("adacomm", "sync-sgd", target), paper=paper))
    if key in ("fig11c", "fig13"):
        rows.append(Claim(f"{key}.adacomm_final_loss", "AdaComm's final train loss", "simulator is finite",
                          ada.final_loss()))
    if key == "fig10b":
        rows.append(Claim("fig10b.adacomm_floor_vs_tau100", "loss floor, AdaComm / τ = 100", "simulator < 1.0",
                          _floor(ada) / _floor(tau100)))
    if key == "fig9b":  # Fig 1 is the first 900 s of the same runs
        def loss_by_iteration(record: RunRecord) -> float:
            return [p.train_loss for p in record.points if p.iteration <= 100][-1]

        tau20, taus = runs.get("pasgd-tau20"), [p.tau for p in ada.points[1:]]
        rows += [
            Claim("fig1.sync_vs_tau20_loss_at_iteration100", "train loss at iteration <= 100, sync SGD / τ = 20",
                  "simulator <= 1.1", loss_by_iteration(sync) / loss_by_iteration(tau20)),
            Claim("fig1.tau20_vs_sync_loss_at_250s", "train loss at 250 s, τ = 20 / sync SGD", "simulator < 1.0",
                  tau20.loss_at_time(250.0) / sync.loss_at_time(250.0)),
            Claim("fig9b.tau20_speedup_at_0.9", "t_sync / t_tau20 to train loss 0.9", "simulator > 1.0",
                  runs.speedup("pasgd-tau20", "sync-sgd", 0.9)),
            Claim("fig9b.tau100_floor_vs_sync", "loss floor, τ = 100 / sync SGD", "simulator > 1.1",
                  _floor(tau100) / _floor(sync)),
            Claim("fig9b.adacomm_floor_vs_sync", "loss floor, AdaComm / sync SGD", "simulator < 1.15",
                  _floor(ada) / _floor(sync)),
            Claim("fig9b.adacomm_floor_vs_tau100", "loss floor, AdaComm / τ = 100", "simulator < 1.0",
                  _floor(ada) / _floor(tau100)),
            Claim("fig9b.adacomm_first_tau", "AdaComm's first τ", "simulator == 20.0", taus[0]),
            Claim("fig9b.adacomm_last_tau", "AdaComm's last τ", "simulator < 20.0", taus[-1]),
            Claim("fig9b.adacomm_max_tau_step", "largest step up of AdaComm's τ", "simulator <= 0.0",
                  max(b - a for a, b in zip(taus, taus[1:]))),
        ]
    if name in _TABLE1:
        accs = dict(accuracy_table(runs))
        best = max(acc for acc in accs.values() if not math.isnan(acc))
        rows += [
            Claim(f"table1.{name}.adacomm_vs_{other}", f"AdaComm's best test accuracy minus {other}'s (points)",
                  f"simulator >= {slack}", accs["adacomm"] - reference)
            for other, reference, slack in (("best", best, -2.0), ("tau100", accs["pasgd-tau100"], -1.0))
        ]
    return rows


def ablation_claims(cells: list) -> list[Claim]:
    """The rows of the ``paper_ablations`` cells, given as ``(overrides, runs)``."""
    rows, speedup = [], {}
    for overrides, runs in cells:
        if overrides["network_scaling"] != "constant":
            speedup[overrides["network_scaling"]] = runs.speedup("adacomm", "sync-sgd", 0.80)
            continue
        setting = overrides["method"].partition(":")[2]  # e.g. "gamma=0.25"
        record = runs.get("adacomm")
        if setting.startswith("initial_tau"):  # adapting makes a mis-chosen τ0 harmless
            rows.append(Claim(f"ablation.{setting}.time_to_0.80", f"AdaComm's time to train loss 0.80 (s), {setting}",
                              "simulator is finite", record.time_to_loss(0.80)))
        else:
            rows.append(Claim(f"ablation.{setting}.floor", f"AdaComm's loss floor, {setting}",
                              "simulator is finite", _floor(record)))
    return rows + [Claim("ablation.scaling.server_vs_ring",
                         "t_sync / t_adacomm to train loss 0.80 at α = 1, parameter server / ring all-reduce",
                         "simulator > 1.0", speedup["parameter_server"] / speedup["ring_allreduce"])]


def _cells(spec, store: ResultStore) -> list:
    """Run (or read back) a campaign: ``(overrides, runs)`` per cell, from the store."""
    report = SweepRunner(store).run(spec)
    print(report.summary())
    if not report.ok:
        raise SystemExit("error: cells failed:\n" + "\n".join(report.failed.values()))
    return [(cell.overrides, store.runs(cell.address)) for cell in report.cells]


def _order(claim: Claim) -> list:
    """The paper's order: natural sort of the figure, ``ablation`` after ``Table 1``."""
    return [int(part) if part.isdigit() else part for part in re.split(r"(\d+)", claim.figure)]


def main() -> int:
    store = ResultStore(STORE)
    specs = (paper_claims_sweep(), paper_ablations_sweep())
    lineups, ablations = (_cells(spec, store) for spec in specs)
    claims = runtime_claims() + fig14_claims() + ablation_claims(ablations)
    for overrides, runs in lineups:
        claims += lineup_claims(overrides["config"], runs)
    claims.sort(key=_order)
    rows = [claim.to_dict() for claim in claims]
    payload = {"campaigns": {spec.name: [cell.address for cell in spec.cells()] for spec in specs}, "claims": rows}
    text = json.dumps(encode_json_floats(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(CLAIMS_FILE).write_text(text + "\n")
    columns = ("id", "paper", "simulator", "analytic", "simulator_over_paper", "relation", "holds")
    print(format_table(columns, [["-" if row[c] is None else row[c] for c in columns] for row in rows],
                       title=f"\nThe paper's claims ({len(rows)} rows, written to {CLAIMS_FILE})"))
    failed = [claim.id for claim in claims if not claim.holds]
    if failed:
        print(f"\nerror: {len(failed)} relation(s) fail: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
