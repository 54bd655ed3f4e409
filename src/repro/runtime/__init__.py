"""Runtime substrate: delay distributions, order statistics, and the
runtime-per-iteration model of Section 3 of the paper.

The paper models the local computation time of worker ``i`` at local step
``k`` as an i.i.d. random variable ``Y_{i,k} ~ F_Y`` and the communication
delay of an all-node broadcast as ``D = D0 * s(m)`` (eq. 5, no jitter).
This package predicts and samples; it keeps no totals.  Simulated time is
accounted once, by ``repro.distributed.cluster.SimulatedCluster``.  It
provides:

* ``distributions`` — a family of delay distributions (constant,
  exponential, shifted exponential, uniform, Pareto) with analytic moments.
* ``order_stats`` — expected maxima ``E[Y_{m:m}]`` of i.i.d. samples and of
  τ-averaged (Erlang) samples, both analytic (where closed forms exist) and
  Monte-Carlo.
* ``network`` — communication scaling functions ``s(m)`` for different
  topologies (constant, parameter server, reduction tree, ring all-reduce).
* ``model`` — the expected-runtime expressions (eq. 7–12): ``E[T_sync]``,
  ``E[T_PAvg]`` and the speed-up of PASGD over fully synchronous SGD.
* ``simulator`` — samples per-worker compute times and communication delays;
  the simulated cluster turns them into virtual-clock advances.
"""

from repro.runtime.distributions import (
    DelayDistribution,
    ConstantDelay,
    ExponentialDelay,
    ShiftedExponentialDelay,
    UniformDelay,
    ParetoDelay,
)
from repro.runtime.network import (
    NetworkModel,
    constant_scaling,
    parameter_server_scaling,
    reduction_tree_scaling,
    ring_allreduce_scaling,
)
from repro.runtime.order_stats import (
    expected_max_iid,
    expected_max_exponential,
    expected_max_averaged,
    empirical_max_distribution,
)
from repro.runtime.model import (
    expected_runtime_sync,
    expected_runtime_pasgd,
    speedup_constant_delays,
    speedup_over_sync,
)
from repro.runtime.simulator import RuntimeSimulator

__all__ = [
    "DelayDistribution",
    "ConstantDelay",
    "ExponentialDelay",
    "ShiftedExponentialDelay",
    "UniformDelay",
    "ParetoDelay",
    "NetworkModel",
    "constant_scaling",
    "parameter_server_scaling",
    "reduction_tree_scaling",
    "ring_allreduce_scaling",
    "expected_max_iid",
    "expected_max_exponential",
    "expected_max_averaged",
    "empirical_max_distribution",
    "expected_runtime_sync",
    "expected_runtime_pasgd",
    "speedup_constant_delays",
    "speedup_over_sync",
    "RuntimeSimulator",
]
