"""Decentralized averaging topologies (extension, Section 6 of the paper).

The paper notes that adapting the communication frequency "can be easily
extended to other SGD frameworks including ... decentralized SGD (e.g.,
adapting network sparsity)".  This module provides the substrate for that
extension: doubly-stochastic mixing matrices for standard worker topologies
(complete graph, ring, star, arbitrary NetworkX graphs via Metropolis-Hastings
weights), their spectral gap (which governs how fast repeated gossip rounds
reach consensus), and the gossip-averaging primitive itself.

``SimulatedCluster.average_models`` performs exact averaging (complete-graph
mixing); ``mix_states`` generalizes it: one gossip round per communication
step moves every worker towards the network average without requiring an
all-to-all collective.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TOPOLOGIES",
    "complete_mixing_matrix",
    "ring_mixing_matrix",
    "star_mixing_matrix",
    "chordal_ring_graph",
    "metropolis_hastings_weights",
    "mixing_matrix_for",
    "spectral_gap",
    "mix_states",
    "consensus_distance",
    "rounds_to_consensus",
]

#: Topology names accepted by :func:`mixing_matrix_for` (and hence by
#: ``Gossip(topology=...)`` and the ``gossip-<topology>-tau<N>`` method specs).
TOPOLOGIES = ("complete", "ring", "star", "mh")


def _networkx(needed_by: str):
    """Import networkx on first use: only :func:`chordal_ring_graph` needs it
    (every named topology, ``"mh"`` included, is built in NumPy), and at
    ~180 ms it would otherwise be the largest share of every CLI start, shard
    process and sweep helper."""
    try:
        import networkx
    except ImportError:  # pragma: no cover - networkx is installed in this environment
        raise ImportError(f"networkx is required for {needed_by}") from None
    return networkx


def _validate_m(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"number of workers must be a positive integer, got {m!r}")


def complete_mixing_matrix(m: int) -> np.ndarray:
    """W = 11ᵀ/m: one gossip round equals exact averaging (PASGD's collective)."""
    _validate_m(m)
    return np.full((m, m), 1.0 / m)


def ring_mixing_matrix(m: int, self_weight: float | None = None) -> np.ndarray:
    """Symmetric ring: each worker mixes with its two neighbours.

    Defaults to equal weights 1/3 on itself and each neighbour (for m ≥ 3).
    """
    _validate_m(m)
    if m == 1:
        return np.array([[1.0]])
    if m == 2:
        return np.full((2, 2), 0.5)
    w_self = 1.0 / 3.0 if self_weight is None else float(self_weight)
    if not 0.0 < w_self < 1.0:
        raise ValueError("self_weight must be in (0, 1)")
    w_neigh = (1.0 - w_self) / 2.0
    W = np.zeros((m, m))
    for i in range(m):
        W[i, i] = w_self
        W[i, (i - 1) % m] = w_neigh
        W[i, (i + 1) % m] = w_neigh
    return W


def star_mixing_matrix(m: int) -> np.ndarray:
    """Star topology: worker 0 is the hub (a parameter-server-like gossip)."""
    _validate_m(m)
    if m == 1:
        return np.array([[1.0]])
    W = np.zeros((m, m))
    leaf_weight = 1.0 / m
    # Hub mixes uniformly with everyone; leaves mix with the hub and themselves.
    W[0, :] = 1.0 / m
    for i in range(1, m):
        W[i, 0] = leaf_weight
        W[i, i] = 1.0 - leaf_weight
    return W


def metropolis_hastings_weights(graph) -> np.ndarray:
    """Doubly-stochastic mixing matrix for an arbitrary connected NetworkX graph.

    Uses the Metropolis-Hastings rule ``W_ij = 1 / (1 + max(d_i, d_j))`` for
    edges, with the remaining mass on the diagonal.
    """
    index = {n: i for i, n in enumerate(sorted(graph.nodes()))}
    adjacent = np.zeros((len(index), len(index)), dtype=bool)
    for u, v in graph.edges():
        adjacent[index[u], index[v]] = adjacent[index[v], index[u]] = True
    return _mh_weights(adjacent)


def _mh_weights(adjacent: np.ndarray) -> np.ndarray:
    """The Metropolis-Hastings rule on a symmetric boolean adjacency matrix."""
    m = len(adjacent)
    if m == 0:
        raise ValueError("graph must be non-empty")
    seen, frontier = {0}, [0]
    while frontier:  # breadth-first search from node 0
        frontier = [j for j in np.flatnonzero(adjacent[frontier].any(axis=0)).tolist() if j not in seen]
        seen.update(frontier)
    if len(seen) != m:
        raise ValueError("graph must be connected for gossip averaging to reach consensus")
    degrees = adjacent.sum(axis=1)
    W = np.where(adjacent, 1.0 / (1.0 + np.maximum(degrees[:, None], degrees[None, :])), 0.0)
    for i in range(m):
        W[i, i] = 1.0 - W[i].sum()
    return W


def chordal_ring_graph(m: int):
    """The deterministic graph behind the ``"mh"`` topology: a cycle plus chords.

    For m ≥ 5 each node i also links to i+2 (mod m), giving every node degree
    4 — dense enough that the Metropolis-Hastings weights differ from the
    plain ring, sparse enough to stay decentralized.  Small clusters (m ≤ 4)
    fall back to the complete graph, where MH weighting is still well defined.
    """
    nx = _networkx("the 'mh' topology")
    _validate_m(m)
    if m <= 4:
        return nx.complete_graph(m)
    graph = nx.cycle_graph(m)
    graph.add_edges_from((i, (i + 2) % m) for i in range(m))
    return graph


def _chordal_ring_adjacency(m: int) -> np.ndarray:
    """:func:`chordal_ring_graph` as a boolean adjacency matrix, without NetworkX."""
    _validate_m(m)
    nodes = np.arange(m)
    adjacent = np.zeros((m, m), dtype=bool)
    for step in (1, 2) if m > 4 else range(1, m):
        adjacent[nodes, (nodes + step) % m] = adjacent[(nodes + step) % m, nodes] = True
    return adjacent


def mixing_matrix_for(topology: str, m: int) -> np.ndarray:
    """Resolve a topology name to its doubly-stochastic mixing matrix.

    ``"complete"`` is PASGD's exact collective (one gossip round averages
    exactly); ``"ring"`` and ``"star"`` use the closed-form matrices above;
    ``"mh"`` is the Metropolis-Hastings weighting of the deterministic
    chordal-ring graph (:func:`chordal_ring_graph`), built without NetworkX.
    """
    if topology == "complete":
        return complete_mixing_matrix(m)
    if topology == "ring":
        return ring_mixing_matrix(m)
    if topology == "star":
        return star_mixing_matrix(m)
    if topology == "mh":
        return _mh_weights(_chordal_ring_adjacency(m))
    raise ValueError(f"unknown topology {topology!r}; choose one of {TOPOLOGIES}")


def _validate_mixing_matrix(W: np.ndarray) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("mixing matrix must be square")
    if np.any(W < -1e-12):
        raise ValueError("mixing matrix must be non-negative")
    if not np.allclose(W.sum(axis=1), 1.0, atol=1e-8) or not np.allclose(W.sum(axis=0), 1.0, atol=1e-8):
        raise ValueError("mixing matrix must be doubly stochastic")
    return W


def spectral_gap(W: np.ndarray) -> float:
    """1 − |λ₂(W)|: larger gap ⇒ faster consensus per gossip round.

    The complete graph has gap 1 (exact averaging in one round); a large ring
    has a gap approaching 0.
    """
    W = _validate_mixing_matrix(W)
    eigenvalues = np.sort(np.abs(np.linalg.eigvals(W)))[::-1]
    if len(eigenvalues) == 1:
        return 1.0
    return float(1.0 - eigenvalues[1])


def mix_states(states: list[np.ndarray], W: np.ndarray, rounds: int = 1) -> list[np.ndarray]:
    """Apply ``rounds`` gossip rounds: ``x_i ← Σ_j W_ij x_j``.

    With the complete-graph matrix and one round this reproduces PASGD's exact
    model averaging; with sparse topologies it is the decentralized variant.
    """
    W = _validate_mixing_matrix(W)
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    if len(states) != W.shape[0]:
        raise ValueError(f"{len(states)} states but mixing matrix is {W.shape[0]}x{W.shape[0]}")
    X = np.stack(states, axis=0)
    for _ in range(rounds):
        X = W @ X
    return [X[i].copy() for i in range(X.shape[0])]


def consensus_distance(states: list[np.ndarray]) -> float:
    """Mean L2 distance of the states from their average (0 at consensus)."""
    X = np.stack(states, axis=0)
    mean = X.mean(axis=0, keepdims=True)
    return float(np.mean(np.linalg.norm(X - mean, axis=1)))


def rounds_to_consensus(W: np.ndarray, tolerance: float = 1e-3) -> int:
    """Number of gossip rounds needed to shrink disagreement by ``1/tolerance``.

    Uses the standard bound: disagreement contracts by |λ₂| per round, so
    ``ceil(log(tolerance) / log(|λ₂|))`` rounds suffice; 1 round if the gap is
    already 1 (exact averaging).
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must be in (0, 1)")
    gap = spectral_gap(W)
    if gap >= 1.0 - 1e-12:
        return 1
    lam = 1.0 - gap
    return int(np.ceil(np.log(tolerance) / np.log(lam)))
