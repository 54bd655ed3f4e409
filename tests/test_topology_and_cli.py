"""Tests for the decentralized-averaging topologies and the CLI entry point."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from repro.distributed.averaging import average_states
from repro.distributed.topology import (
    TOPOLOGIES,
    chordal_ring_graph,
    complete_mixing_matrix,
    consensus_distance,
    metropolis_hastings_weights,
    mix_states,
    mixing_matrix_for,
    ring_mixing_matrix,
    rounds_to_consensus,
    spectral_gap,
    star_mixing_matrix,
)
from repro.experiments.cli import _load_config, build_parser, main
from repro.experiments.harness import default_methods
from repro.obs import diff_traces, read_trace


class TestMixingMatrices:
    @pytest.mark.parametrize("builder", [complete_mixing_matrix, ring_mixing_matrix, star_mixing_matrix])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_doubly_stochastic(self, builder, m):
        W = builder(m)
        assert W.shape == (m, m)
        np.testing.assert_allclose(W.sum(axis=0), np.ones(m), atol=1e-10)
        np.testing.assert_allclose(W.sum(axis=1), np.ones(m), atol=1e-10)
        assert np.all(W >= -1e-12)

    def test_complete_graph_has_unit_spectral_gap(self):
        assert spectral_gap(complete_mixing_matrix(6)) == pytest.approx(1.0, abs=1e-10)

    def test_ring_gap_shrinks_with_size(self):
        assert spectral_gap(ring_mixing_matrix(4)) > spectral_gap(ring_mixing_matrix(16))

    def test_metropolis_hastings_on_random_graph(self):
        graph = nx.erdos_renyi_graph(10, 0.5, seed=0)
        # Ensure connectivity for the test.
        if not nx.is_connected(graph):
            graph = nx.complete_graph(10)
        W = metropolis_hastings_weights(graph)
        np.testing.assert_allclose(W.sum(axis=1), np.ones(10), atol=1e-10)
        assert spectral_gap(W) > 0

    def test_metropolis_hastings_rejects_disconnected(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2, 3])
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        with pytest.raises(ValueError):
            metropolis_hastings_weights(graph)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            spectral_gap(np.array([[0.5, 0.6], [0.4, 0.5]]))
        with pytest.raises(ValueError):
            spectral_gap(np.array([[1.0, 0.0]]))


class TestGossipAveraging:
    def _states(self, m=6, dim=10, seed=0):
        gen = np.random.default_rng(seed)
        return [gen.normal(size=dim) for _ in range(m)]

    def test_complete_mixing_matches_exact_average(self):
        states = self._states()
        mixed = mix_states(states, complete_mixing_matrix(len(states)), rounds=1)
        exact = average_states(states)
        for s in mixed:
            np.testing.assert_allclose(s, exact, atol=1e-12)

    def test_gossip_preserves_global_mean(self):
        states = self._states()
        W = ring_mixing_matrix(len(states))
        mixed = mix_states(states, W, rounds=5)
        np.testing.assert_allclose(average_states(mixed), average_states(states), atol=1e-10)

    def test_gossip_reduces_consensus_distance(self):
        states = self._states()
        W = ring_mixing_matrix(len(states))
        d0 = consensus_distance(states)
        d5 = consensus_distance(mix_states(states, W, rounds=5))
        d20 = consensus_distance(mix_states(states, W, rounds=20))
        assert d5 < d0 and d20 < d5

    def test_rounds_to_consensus_bound_is_sufficient(self):
        states = self._states(m=8)
        W = ring_mixing_matrix(8)
        rounds = rounds_to_consensus(W, tolerance=1e-3)
        mixed = mix_states(states, W, rounds=rounds)
        assert consensus_distance(mixed) < 1.1e-3 * consensus_distance(states)

    def test_zero_rounds_is_identity(self):
        states = self._states()
        mixed = mix_states(states, ring_mixing_matrix(len(states)), rounds=0)
        for a, b in zip(states, mixed):
            np.testing.assert_allclose(a, b)

    def test_state_count_mismatch(self):
        with pytest.raises(ValueError):
            mix_states(self._states(m=3), ring_mixing_matrix(4))

    def test_rounds_to_consensus_validation(self):
        with pytest.raises(ValueError):
            rounds_to_consensus(ring_mixing_matrix(4), tolerance=2.0)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=10),
    rounds=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_gossip_is_mean_preserving_contraction(m, rounds, seed):
    """Any number of ring-gossip rounds preserves the mean and never increases
    the consensus distance."""
    gen = np.random.default_rng(seed)
    states = [gen.normal(size=5) for _ in range(m)]
    W = ring_mixing_matrix(m)
    mixed = mix_states(states, W, rounds=rounds)
    np.testing.assert_allclose(average_states(mixed), average_states(states), atol=1e-9)
    assert consensus_distance(mixed) <= consensus_distance(states) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    topology=st.sampled_from(TOPOLOGIES),
    m=st.integers(min_value=1, max_value=12),
)
def test_property_every_topology_builds_doubly_stochastic_matrix(topology, m):
    """Every named topology yields a non-negative doubly-stochastic W for
    every cluster size, so gossip always preserves the global mean."""
    W = mixing_matrix_for(topology, m)
    assert W.shape == (m, m)
    assert np.all(W >= -1e-12)
    np.testing.assert_allclose(W.sum(axis=0), np.ones(m), atol=1e-9)
    np.testing.assert_allclose(W.sum(axis=1), np.ones(m), atol=1e-9)
    gap = spectral_gap(W)
    assert 0.0 <= gap <= 1.0 + 1e-9


def reference_mh_weights(graph) -> np.ndarray:
    """``metropolis_hastings_weights`` as it walked the NetworkX graph itself,
    before the rule moved onto a NumPy adjacency: the byte reference."""
    nodes = sorted(graph.nodes())
    index = {n: i for i, n in enumerate(nodes)}
    W = np.zeros((len(nodes), len(nodes)))
    degrees = dict(graph.degree())
    for u, v in graph.edges():
        W[index[u], index[v]] = W[index[v], index[u]] = 1.0 / (1.0 + max(degrees[u], degrees[v]))
    for i in range(len(nodes)):
        W[i, i] = 1.0 - W[i].sum()
    return W


def test_mh_topology_without_networkx_is_the_graph_walk_to_the_byte():
    for m in range(1, 65):
        graph = chordal_ring_graph(m)
        expected = reference_mh_weights(graph)
        assert mixing_matrix_for("mh", m).tobytes() == expected.tobytes(), m
        assert metropolis_hastings_weights(graph).tobytes() == expected.tobytes(), m
    with pytest.raises(ValueError, match="non-empty"):
        metropolis_hastings_weights(nx.Graph())


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_metropolis_hastings_on_random_connected_graphs(n, p, seed):
    """MH weights over any connected graph are symmetric doubly-stochastic."""
    graph = nx.erdos_renyi_graph(n, p, seed=seed)
    graph.add_edges_from((i, i + 1) for i in range(n - 1))  # force connectivity
    W = metropolis_hastings_weights(graph)
    assert W.tobytes() == reference_mh_weights(graph).tobytes()
    np.testing.assert_allclose(W, W.T, atol=1e-12)
    np.testing.assert_allclose(W.sum(axis=1), np.ones(n), atol=1e-9)
    assert np.all(W >= -1e-12)
    assert spectral_gap(W) > 0.0


@settings(max_examples=25, deadline=None)
@given(
    topology=st.sampled_from(["ring", "star", "mh"]),
    m=st.integers(min_value=3, max_value=10),
    rounds=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_contraction_rate_matches_spectral_gap(topology, m, rounds, seed):
    """The consensus deviation contracts at least as fast as |λ2|^rounds —
    the linear-rate guarantee ``spectral_gap`` / ``rounds_to_consensus``
    promise (Frobenius norm of the deviation from the preserved mean)."""
    gen = np.random.default_rng(seed)
    X0 = np.stack([gen.normal(size=6) for _ in range(m)])
    W = mixing_matrix_for(topology, m)
    Xr = np.stack(mix_states(list(X0), W, rounds=rounds))
    lam2 = 1.0 - spectral_gap(W)
    dev0 = np.linalg.norm(X0 - X0.mean(axis=0))
    devr = np.linalg.norm(Xr - Xr.mean(axis=0))
    assert devr <= (lam2**rounds) * dev0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=10),
    dim=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_complete_mix_equals_exact_average(m, dim, seed):
    """One complete-topology mix is the exact global average for every
    worker — the invariant that keeps gossip a strict generalization."""
    gen = np.random.default_rng(seed)
    states = [gen.normal(size=dim) for _ in range(m)]
    mixed = mix_states(states, mixing_matrix_for("complete", m), rounds=1)
    exact = average_states(states)
    for s in mixed:
        np.testing.assert_allclose(s, exact, atol=1e-12)


def _src_env(**extra) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""), **extra}


def test_cli_import_does_not_load_networkx():
    # Only the "mh" topology and arbitrary-graph MH weights need networkx; at
    # ~180 ms it must not be billed to every CLI start, shard process and
    # sweep-pool worker.  Fresh interpreter: this module imports it itself.
    code = (
        "import sys, repro.experiments.cli, repro.sweep.runner, repro.distributed.sharded_bank\n"
        "assert 'networkx' not in sys.modules, 'networkx imported at CLI start'\n"
        "from repro.distributed.topology import mixing_matrix_for\n"
        "mixing_matrix_for('ring', 6)\n"
        "assert 'networkx' not in sys.modules, 'ring topology pulled networkx'\n"
        "assert mixing_matrix_for('mh', 6).shape == (6, 6)\n"
        "assert 'networkx' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_results_ignore_global_rng_clock_and_hash_seed(tmp_path):
    # A seeded result is a pure function of its config.  Under three more hash
    # seeds, with the global RNGs reseeded and every clock read jumping 0-6,000 s
    # (tests/perturbed_main.py), the saved run and the store stay byte-identical
    # and the trace identical modulo wall time.  Catches unseeded or global-RNG
    # randomness, wall-clock reads reaching a result, and set-order iteration.
    perturbed_main = str(Path(__file__).with_name("perturbed_main.py"))
    commands = {
        "run": ["--config", "smoke", "--scale", "0.2", "--save", "run.json",
                "--trace", "trace.jsonl", "--metrics", "--profile"],
        "sweep": ["--sweep", "smoke_2x2", "--store", "store"],
    }

    def outputs(command: str, hash_seed: int) -> tuple[dict, list]:
        cwd = tmp_path / f"{command}-{hash_seed}"
        cwd.mkdir()
        entry = ["-m", "repro"] if hash_seed == 0 else [perturbed_main, str(hash_seed)]
        proc = subprocess.run(
            [sys.executable, *entry, *commands[command]], cwd=cwd,
            env=_src_env(PYTHONHASHSEED=str(hash_seed)), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        trace = cwd / "trace.jsonl"
        files = {
            str(path.relative_to(cwd)): path.read_bytes()
            for path in sorted(cwd.rglob("*")) if path.is_file() and path != trace
        }
        return files, read_trace(trace) if trace.exists() else []

    for command in commands:
        files, events = outputs(command, 0)
        for hash_seed in (1, 2, 3):
            perturbed_files, perturbed_events = outputs(command, hash_seed)
            assert sorted(perturbed_files) == sorted(files), (command, hash_seed)
            moved = [name for name in files if perturbed_files[name] != files[name]]
            assert not moved, (command, hash_seed, moved)
            diff = diff_traces(events, perturbed_events)
            assert diff.identical, diff.summary()


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.config == "vgg_cifar10_fixed_lr"
        assert args.scale == 1.0

    def test_parser_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--config", "does-not-exist"])

    def test_main_runs_smoke_config_and_saves(self, tmp_path, capsys):
        out_path = tmp_path / "runs.json"
        exit_code = main(["--config", "smoke", "--save", str(out_path), "--points", "4"])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "adacomm" in captured
        assert "Time to target training loss" in captured
        payload = json.loads(out_path.read_text())
        assert {run["name"] for run in payload["runs"]} == {"sync-sgd", "pasgd-tau8", "adacomm"}

    def test_main_with_explicit_target_and_seed(self, capsys):
        assert main(["--config", "smoke", "--seed", "3", "--target-loss", "0.5"]) == 0
        assert "speed-up" in capsys.readouterr().out.lower()

    def test_main_runs_async_spec_with_damping(self, capsys):
        exit_code = main(
            ["--config", "smoke", "--set", "methods=('async:tau=4,damping=0.5',)",
             "--points", "3"]
        )
        assert exit_code == 0
        assert "async-tau4-d0.5" in capsys.readouterr().out

    def test_readme_commands_parse(self):
        # Every `python -m repro` line of a README bash block parses, and every
        # method spec it sets parses against that line's config.  Nothing runs.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```bash\n(.*?)^```", readme.read_text(), re.M | re.S)
        lines = [
            line for block in blocks for line in block.splitlines()
            if line.startswith("python -m repro ")
        ]
        assert len(lines) >= 10
        for line in lines:
            args = build_parser().parse_args(shlex.split(line, comments=True)[3:])
            if "methods" in dict(args.overrides):
                config = _load_config(args)
                assert default_methods(config), line
