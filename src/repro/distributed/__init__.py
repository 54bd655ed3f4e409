"""Simulated distributed training substrate.

The paper runs 4–8 GPU nodes connected by 40 Gbps Ethernet; this package
simulates that cluster in-process.  Each worker holds its own parameters,
data shard, and local optimizer state — one row of a worker-execution
backend's ``(m, P)`` bank (``docs/backends.md``) — and performs local
mini-batch SGD steps (eq. 2/3).  The
:class:`~repro.distributed.cluster.SimulatedCluster` owns the backend, the
model-averaging collective (eq. 3, ``k mod τ = 0`` branch), and the virtual
wall clock driven by the runtime simulator (``repro.runtime``), so that every
training run yields loss-versus-*wall-clock-time* trajectories exactly like
the paper's figures.
"""

from repro.distributed.averaging import average_states, weighted_average_states
from repro.distributed.backends import BackendUnsupported, WorkerBackend, WorkerView
from repro.distributed.worker_bank import LoopWorkers, WorkerBank
from repro.distributed.transport import ShmStatePlane
from repro.distributed.sharded_bank import ShardedBank, shard_slices
from repro.distributed.reuse import BackendHandle
from repro.distributed.collectives import AsyncFold, Exact, Gossip
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.topology import (
    complete_mixing_matrix,
    ring_mixing_matrix,
    star_mixing_matrix,
    metropolis_hastings_weights,
    spectral_gap,
    mix_states,
    consensus_distance,
    rounds_to_consensus,
)

__all__ = [
    "average_states",
    "weighted_average_states",
    "BackendUnsupported",
    "WorkerBackend",
    "WorkerView",
    "LoopWorkers",
    "WorkerBank",
    "ShmStatePlane",
    "ShardedBank",
    "shard_slices",
    "BackendHandle",
    "Exact",
    "Gossip",
    "AsyncFold",
    "SimulatedCluster",
    "complete_mixing_matrix",
    "ring_mixing_matrix",
    "star_mixing_matrix",
    "metropolis_hastings_weights",
    "spectral_gap",
    "mix_states",
    "consensus_distance",
    "rounds_to_consensus",
]
