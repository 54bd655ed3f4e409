"""Named sweep campaigns — the multi-run experiments behind the paper's figures.

Each entry in the ``SWEEPS`` registry is a zero-argument factory returning a
:class:`~repro.sweep.spec.SweepSpec`, so campaigns resolve by name exactly
like every other component: ``SWEEPS.build("tau_error_runtime")`` from code,
``python -m repro --sweep tau_error_runtime --jobs 4`` from the CLI, and
``--list sweeps`` to enumerate them.

The paper's headline artifacts are all campaign-shaped:

* ``tau_error_runtime`` — the τ-grid behind the error-vs-runtime trade-off
  curves (Figure 2 / Section 5): one fixed-τ run per cell, replicated over
  seeds, the cells of one seed sharing datasets so curves differ only in
  the communication period.
* ``variable_vs_fixed_tau`` — ADACOMM against the best fixed-τ baselines,
  seed-replicated (the variable-τ vs fixed-τ comparison).
* ``worker_scaling`` — the m × τ grid (scaling sweeps over cluster size).
* ``method_family_frontier`` — the full method family (synchronous, gossip
  over ring/star/MH topologies, async with staleness, elastic dropout, and
  ADACOMM) on one workload, so every execution model lands on the same
  error-runtime frontier figure.
* ``smoke_2x2`` — a 2×2 miniature used by tests and the CI sweep-smoke job.
* ``paper_claims`` / ``paper_ablations`` — the cells behind ``CLAIMS.json``
  (``python -m repro.experiments.claims``): every named config but ``smoke``
  at full size, and the AdaComm / network-scaling ablations.

Budgets are scaled down so every campaign completes in seconds on one core
while preserving the regime (α, τ ranges) each figure probes; pass
``scale``/``seeds`` explicitly to :func:`tau_sweep` and friends for
higher-fidelity versions.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.registries import SWEEPS
from repro.experiments.configs import ExperimentConfig, available_configs, make_config
from repro.sweep.spec import SweepSpec, grid, paired

__all__ = [
    "tau_sweep",
    "method_sweep",
    "scaling_sweep",
    "method_family_sweep",
    "smoke_sweep",
    "paper_claims_sweep",
    "paper_ablations_sweep",
]


def tau_sweep(
    config: str = "vgg_cifar10_fixed_lr",
    taus: Sequence[int] = (1, 4, 20, 100),
    seeds: Sequence[int] = (7, 8),
    scale: float = 0.25,
) -> SweepSpec:
    """The fixed-τ grid behind the error-runtime trade-off figure."""
    base = make_config(config, scale=scale)
    return SweepSpec(
        name="tau_error_runtime",
        base=base,
        axes=grid(tau=list(taus), seed=list(seeds)),
    )


def method_sweep(
    config: str = "vgg_cifar10_fixed_lr",
    methods: Sequence[str] = ("sync-sgd", "pasgd-tau20", "adacomm"),
    seeds: Sequence[int] = (7, 8, 9),
    scale: float = 0.25,
) -> SweepSpec:
    """Variable-τ (ADACOMM) vs fixed-τ baselines, replicated over seeds."""
    base = make_config(config, scale=scale)
    return SweepSpec(
        name="variable_vs_fixed_tau",
        base=base,
        axes=grid(method=list(methods), seed=list(seeds)),
    )


def scaling_sweep(
    config: str = "vgg_cifar10_fixed_lr",
    cluster_sizes: Sequence[int] = (2, 4, 8),
    taus: Sequence[int] = (1, 20),
    scale: float = 0.25,
) -> SweepSpec:
    """The m × τ grid: how the trade-off shifts with cluster size."""
    base = make_config(config, scale=scale)
    return SweepSpec(
        name="worker_scaling",
        base=base,
        axes=grid(m=list(cluster_sizes), tau=list(taus)),
    )


def method_family_sweep(
    config: str = "smoke",
    methods: Sequence[str] = (
        "sync-sgd",
        "pasgd-tau8",
        "adacomm",
        "gossip-ring-tau8",
        "gossip-star-tau8",
        "gossip-mh-tau8",
        "async-tau8",
        "elastic:p=0.1,tau=8",
    ),
    seeds: Sequence[int] = (7, 8),
    n_workers: int = 6,
    scale: float = 1.0,
) -> SweepSpec:
    """Every execution model of the method family on one shared workload.

    One method spec per cell (replicated over seeds; the cells of one seed
    see the same datasets and initializations) covering the
    synchronous baselines, the three gossip topologies, barrier-free async,
    and elastic dropout — the campaign behind the combined
    error-runtime-frontier figure.  ``n_workers`` defaults to 6 — the
    smallest cluster where the Metropolis-Hastings chordal ring (cycle plus
    the i→i+2 chords) is a genuinely sparse graph rather than complete.
    """
    base = make_config(config, scale=scale, n_workers=n_workers)
    return SweepSpec(
        name="method_family_frontier",
        base=base,
        axes=grid(method=list(methods), seed=list(seeds)),
    )


def smoke_sweep() -> SweepSpec:
    """A 2×2 miniature campaign (τ × seed on the smoke config) for CI/tests."""
    base = make_config("smoke")
    return SweepSpec(name="smoke_2x2", base=base, axes=grid(tau=[1, 8], seed=[7, 8]))


def paper_claims_sweep() -> SweepSpec:
    """One cell per named config but ``smoke``; on the all-defaults base a cell
    *is* its named config, address ``cell_hash(make_config(name))`` included."""
    configs = [name for name in available_configs() if name != "smoke"]
    return SweepSpec("paper_claims", ExperimentConfig(name="paper_claims"), grid(config=configs))


def paper_ablations_sweep() -> SweepSpec:
    """The ablations on Fig 9(b)'s workload.

    Twelve cells run one AdaComm each (a lineup holds one ``adacomm``), with
    one of its hand-set knobs changed: eq. 18's decay γ, the interval T0 or
    the initial τ0.  Two run sync SGD and AdaComm at α = 1 under a ring
    all-reduce and a parameter server, where s(m) alone sets the delay.
    """
    knobs = [f"adacomm:gamma={g}" for g in (0.25, 0.5, 0.75, 0.9)]
    knobs += [f"adacomm:interval_length={t}" for t in (60.0, 120.0, 240.0, 480.0)]
    knobs += [f"adacomm:initial_tau={t}" for t in (5, 10, 20, 50)]
    return SweepSpec("paper_ablations", make_config("vgg_cifar10_fixed_lr"), paired(
        method=knobs + [("sync-sgd", "adacomm")] * 2,
        network_scaling=["constant"] * 12 + ["ring_allreduce", "parameter_server"],
        alpha=[4.0] * 12 + [1.0] * 2,
    ))


SWEEPS.register("tau_error_runtime", tau_sweep)
SWEEPS.register("variable_vs_fixed_tau", method_sweep)
SWEEPS.register("worker_scaling", scaling_sweep)
SWEEPS.register("method_family_frontier", method_family_sweep)
SWEEPS.register("smoke_2x2", smoke_sweep)
SWEEPS.register("paper_claims", paper_claims_sweep)
SWEEPS.register("paper_ablations", paper_ablations_sweep)
