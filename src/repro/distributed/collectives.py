"""What one communication round does, as a value: ``Exact | Gossip | AsyncFold``.

Every method this repo compares is the same round — τ local steps, then a
communication step — with a different answer to one question: what does that
step do to the ``(m, P)`` worker states and to the virtual clock?  The paper's
collective (eq. 3) and its Section 6 extensions to decentralized and
asynchronous SGD are the three answers.

They are pure, hashable values, and each carries only its own fields — so
gossip with block momentum, gossip with dropout, and async over a gossip
graph are not validated, they are unwritable.  Each range check below exists
here and nowhere else.  Per-run state (momentum buffer, dropout stream,
mixing matrix, version counters) belongs to the
:class:`~repro.distributed.cluster.SimulatedCluster` handed the value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.topology import TOPOLOGIES
from repro.optim.block_momentum import BlockMomentum

__all__ = ["Exact", "Gossip", "AsyncFold", "Collective"]


@dataclass(frozen=True)
class Exact:
    """Barrier, then every worker loads the (weighted) mean of all states.

    ``weighting`` is ``"uniform"`` (eq. 3) or ``"shard_size"`` (FedAvg-style,
    for unbalanced partitions); ``block_momentum`` is the global momentum β
    applied to each average (Section 5.3.1; 0 disables it).  ``dropout_prob``
    / ``dropout_deadline`` switch on elastic stragglers: each round a worker
    is dropped with that seeded probability, or when its τ-step compute time
    exceeds the deadline (virtual seconds); the average folds and the clock
    waits for the survivors only, the fastest worker always survives, and
    the broadcast rejoins everyone.
    """

    weighting: str = "uniform"
    block_momentum: float = 0.0
    dropout_prob: float = 0.0
    dropout_deadline: "float | None" = None

    def __post_init__(self) -> None:
        if self.weighting not in ("uniform", "shard_size"):
            raise ValueError(
                f"unknown weighting {self.weighting!r}; choose 'uniform' or 'shard_size'"
            )
        BlockMomentum(self.block_momentum)  # β's range check lives with eq. 24
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")
        if self.dropout_deadline is not None and self.dropout_deadline <= 0:
            raise ValueError(
                f"dropout_deadline must be positive or None, got {self.dropout_deadline}"
            )

    @property
    def elastic(self) -> bool:
        return self.dropout_prob > 0.0 or self.dropout_deadline is not None

    def record_fields(self) -> dict:
        """Fields a run record carries for this collective (none at the default)."""
        if not self.elastic:
            return {}
        return {"elastic_dropout_prob": self.dropout_prob, "elastic_deadline": self.dropout_deadline}


@dataclass(frozen=True)
class Gossip:
    """``rounds`` mixing steps ``X ← W X`` over one of ``TOPOLOGIES``.

    Each round costs one sampled communication delay and ships one state row
    per directed edge; workers end the step disagreeing, and the synchronized
    model is the network average of the mixed states.
    """

    topology: str
    rounds: int = 1

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose one of {TOPOLOGIES}"
            )
        if self.rounds < 1:
            raise ValueError(f"gossip_rounds must be >= 1, got {self.rounds}")

    def record_fields(self) -> dict:
        return {"topology": self.topology, "gossip_rounds": self.rounds}


@dataclass(frozen=True)
class AsyncFold:
    """No barrier: a parameter server folds the updates in arrival order.

    An update folds in with weight ``1 / (m · (1 + damping · s))``, where the
    staleness ``s`` counts the server versions applied since that worker's
    last pull; the global clock advances to the generation's last arrival.
    """

    damping: float = 0.0

    def __post_init__(self) -> None:
        if self.damping < 0:
            raise ValueError(f"staleness_damping must be non-negative, got {self.damping}")

    def record_fields(self) -> dict:
        return {"mode": "async", "staleness_damping": self.damping}


Collective = Exact | Gossip | AsyncFold
