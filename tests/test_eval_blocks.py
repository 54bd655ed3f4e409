"""The synchronized model's evaluation in row blocks on pinned threads.

``SimulatedCluster.evaluate_synchronized`` forwards a classifier's
``RowMetric`` rows in contiguous blocks, one per pinned thread where a
block's rows fill a core's L2, and applies the loss or accuracy once to the
joined logits.  Pinned here:

* the bytes: blocked logits equal the one forward's at random split points,
  for every classifier family (dense, residual, conv with max and avg
  pooling, eval-mode batch norm, a float32 bank);
* the threads: the autograd switch and the workspace are per thread, and no
  two block threads share a workspace buffer;
* the rule's verdicts at two cores and 2 MiB of L2 on the benchmark's
  geometries and the paper's softmax config;
* the column-range fold of a chunk composite's mean, and the pool's life:
  ``close()`` joins it and a fork starts without it;
* telemetry: a traced, profiled run with threaded evaluation traces what the
  one-block run traces, and the sinks take emissions from several threads.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registries import MODELS
from repro.api.registry import filter_kwargs
from repro.data.synthetic import Dataset
from repro.distributed import LoopWorkers, SimulatedCluster, host
from repro.distributed.cluster import RowMetric
from repro.distributed.worker_bank import shard_slices
from repro.experiments.configs import make_config
from repro.experiments.harness import run_experiment
from repro.models.cnn import SmallCNN
from repro.models.mlp import MLP, ResidualMLP
from repro.nn import tensor as tensor_mod
from repro.nn.layers import evaluating
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.obs import MetricsRegistry, Tracer, diff_traces, read_trace
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator
from tests.conftest import chunk_rule, chunk_threads_alive, seeded_backend_kwargs

pytestmark = pytest.mark.usefixtures("leaks")

_FEATURES = 48  # a 3 x 4 x 4 image for the conv nets, a plain row for the rest
_CLASSES = 4

#: name -> (model factory, bank dtype): every classifier family evaluation splits.
_MODELS = {
    "mlp": (lambda: MLP(_FEATURES, _CLASSES, hidden_sizes=(16,), rng=3), "float64"),
    "mlp+batch_norm": (lambda: MLP(_FEATURES, _CLASSES, hidden_sizes=(16,), batch_norm=True, rng=3), "float64"),
    "residual_mlp": (lambda: ResidualMLP(_FEATURES, _CLASSES, width=8, n_blocks=2, rng=3), "float64"),
    "cnn+max": (lambda: SmallCNN(3, 4, channels=(4,), n_classes=_CLASSES, pool="max", rng=3), "float64"),
    "cnn+avg": (lambda: SmallCNN(3, 4, channels=(4,), n_classes=_CLASSES, pool="avg", rng=3), "float64"),
    "mlp+float32": (lambda: MLP(_FEATURES, _CLASSES, hidden_sizes=(16,), rng=3), "float32"),
}


def _cluster(name: str, n_rows: int = 32) -> SimulatedCluster:
    """A trained-for-one-round cluster of ``name`` (batch-norm running stats moved off their start)."""
    model_fn, dtype = _MODELS[name]
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((n_rows, _FEATURES)), rng.integers(0, _CLASSES, n_rows))
    runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), n_workers=2, rng=0)
    cluster = SimulatedCluster(
        model_fn, data, runtime, 2, batch_size=4, lr=0.05, backend="vectorized", bank_dtype=dtype, seed=1,
    )
    cluster.run_round(2)
    return cluster


def _logits(cluster: SimulatedCluster, metric: RowMetric, bounds: list) -> np.ndarray:
    """The ``(n, C)`` logits of ``metric``'s rows forwarded in the blocks of ``bounds``."""
    model = cluster._backend.materialize(cluster._synchronized_params)
    with evaluating(model, cluster._eval_workspace):
        (logits,) = cluster._forward_rows(model, [metric], [bounds])
        return logits.copy()


@st.composite
def _splits(draw):
    """Contiguous blocks of two rows or more (one row would be a GEMV), and the model."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=9), min_size=2, max_size=4))
    starts = np.cumsum([0, *sizes])
    name = draw(st.sampled_from(sorted(_MODELS)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return name, [(int(lo), int(hi)) for lo, hi in zip(starts[:-1], starts[1:])], seed


@settings(max_examples=40, deadline=None)
@given(_splits())
def test_row_blocks_forward_the_bytes_of_one_block(case):
    name, bounds, seed = case
    n = bounds[-1][1]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, _FEATURES))
    if _MODELS[name][1] == "float32":
        X = X.astype(np.float32)
    y = rng.integers(0, _CLASSES, n)
    cluster = _cluster(name)
    try:
        one = _logits(cluster, RowMetric("loss", X, y), [(0, n)])
        blocked = _logits(cluster, RowMetric("loss", X, y), bounds)
        assert blocked.tobytes() == one.tobytes()
        # And the one block is what the whole-data metrics forward.
        model = cluster._backend.materialize(cluster._synchronized_params)
        with evaluating(model):
            assert RowMetric("loss", X, y).of_logits(blocked) == RowMetric("loss", X, y)(model)
            assert RowMetric("accuracy", X, y).of_logits(blocked) == RowMetric("accuracy", X, y)(model)
    finally:
        cluster.close()


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_evaluation_on_threads_equals_evaluation_in_one_block(name):
    values = {}
    for threads in (False, True):
        with chunk_rule(threads=threads):
            cluster = _cluster(name, n_rows=40)
            try:
                train = cluster._partition.dataset
                metrics = (RowMetric("loss", train.X, train.y), RowMetric("accuracy", train.X[:10], train.y[:10]))
                values[threads] = [cluster.evaluate_synchronized(*metrics) for _ in range(4)]
                assert bool(cluster._block_workspaces) is threads
            finally:
                cluster.close()
    assert values[True] == values[False]


# -- the threads -----------------------------------------------------------------


def test_a_no_grad_scope_on_one_thread_leaves_graph_building_on_in_another():
    entered, release = threading.Event(), threading.Event()
    seen = []

    def evaluating_thread():
        with no_grad():
            seen.append(is_grad_enabled())
            entered.set()
            release.wait(10)

    other = threading.Thread(target=evaluating_thread)
    other.start()
    try:
        assert entered.wait(10)
        leaf = Tensor(np.ones(3), requires_grad=True)
        assert is_grad_enabled() and (leaf * 2.0).requires_grad
    finally:
        release.set()
        other.join()
    assert seen == [False]


def test_two_block_threads_never_share_a_workspace_buffer(monkeypatch):
    monkeypatch.setattr(tensor_mod, "_WORKSPACE_MIN_BYTES", 0)
    seen = []
    forward = MLP.forward

    def recorded(self, x):
        seen.append((threading.get_ident(), tensor_mod._state.workspace))
        return forward(self, x)

    monkeypatch.setattr(MLP, "forward", recorded)
    with chunk_rule(threads=True):
        cluster = _cluster("mlp", n_rows=40)
        try:
            train = cluster._partition.dataset
            for _ in range(4):  # buffers are kept from a workspace's third scope on
                cluster.evaluate_synchronized(RowMetric("loss", train.X, train.y))
            workspaces = [cluster._eval_workspace, *cluster._block_workspaces]
            by_thread = {}
            for ident, workspace in seen:
                by_thread.setdefault(ident, set()).add(id(workspace))
            assert len(by_thread) == 2 and all(len(ids) == 1 for ids in by_thread.values())
            assert sorted(ids.pop() for ids in by_thread.values()) == sorted(map(id, workspaces))
            kept = [
                [buf for buf in ws._buffers.values() if isinstance(buf, np.ndarray)] for ws in workspaces
            ]
            assert all(kept)
            assert not any(np.shares_memory(a, b) for a in kept[0] for b in kept[1])
        finally:
            cluster.close()


# -- the rule ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "geometry, model, n_features, hidden, rows, blocks",
    [
        ("cnn_train, sharded_cnn: train set", "vgg_lite_cnn", 192, (), 2400, 2),
        ("cnn_train, sharded_cnn: test set", "vgg_lite_cnn", 192, (), 600, 2),
        ("avg_bound: train set", "mlp", 192, (512,), 2400, 2),
        ("avg_bound: test set", "mlp", 192, (512,), 600, 1),
        ("lineup_eval, lineup_obs", "mlp", 64, (128,), 2400, 1),
        ("sweep_serial, sweep_jobs2", "mlp", 16, (16,), 768, 1),
        ("the paper's softmax config", "mlp", 64, (), 2400, 1),
    ],
)
def test_rule_at_two_cores_and_2_mib_of_l2(monkeypatch, geometry, model, n_features, hidden, rows, blocks):
    # A block fills the L2 when its rows times the widest activation of one
    # row reach 2 MiB: the conv net's 16 x 8 x 8 first-stage map (8 KiB) at
    # 256 rows or more, the avg_bound MLP's 512-wide hidden row (4 KiB) at
    # 512 or more; the narrower models never.
    monkeypatch.setattr(host, "usable_cores", lambda: 2)
    monkeypatch.setattr(host, "l2_bytes", lambda: 2 << 20)
    factory = MODELS.get(model)

    def model_fn():
        return factory(**filter_kwargs(factory, dict(n_features=n_features, n_classes=10, hidden_sizes=hidden, rng=0)))

    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((8, n_features)), rng.integers(0, 10, 8))
    runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), n_workers=2, rng=0)
    with SimulatedCluster(model_fn, data, runtime, 2, batch_size=4, backend="vectorized") as cluster:
        template = cluster._backend.materialize(cluster._synchronized_params)
        assert len(cluster._row_bounds(template, np.zeros((rows, n_features)))) == blocks, geometry


def test_rule_needs_two_rows_a_block_two_cores_and_a_readable_l2(monkeypatch):
    monkeypatch.setattr(host, "l2_bytes", lambda: 1)
    with _cluster_of(MLP(_FEATURES, _CLASSES, hidden_sizes=(16,), rng=3)) as cluster:
        template = cluster._backend.materialize(cluster._synchronized_params)

        def blocks(rows: int, cores: int) -> int:
            monkeypatch.setattr(host, "usable_cores", lambda: cores)
            cluster._eval_bounds.clear()  # the verdict is read once per data shape
            return len(cluster._row_bounds(template, np.zeros((rows, _FEATURES))))

        assert blocks(9, 4) == 4
        assert cluster._row_bounds(template, np.zeros((9, _FEATURES))) == [(0, 3), (3, 5), (5, 7), (7, 9)]
        assert blocks(5, 4) == 2  # two rows a block at least
        assert blocks(3, 4) == 1
        assert blocks(9, 1) == 1
        monkeypatch.setattr(host, "l2_bytes", lambda: None)
        assert blocks(9, 4) == 1


def test_the_verdict_is_read_once_per_data_shape(monkeypatch):
    monkeypatch.setattr(host, "l2_bytes", lambda: 1)
    monkeypatch.setattr(host, "usable_cores", lambda: 2)
    with _cluster_of(MLP(_FEATURES, _CLASSES, hidden_sizes=(16,), rng=3)) as cluster:
        template = cluster._backend.materialize(cluster._synchronized_params)
        first = cluster._row_bounds(template, np.zeros((8, _FEATURES)))
        monkeypatch.setattr(host, "usable_cores", lambda: 1)
        assert cluster._row_bounds(template, np.zeros((8, _FEATURES))) is first == [(0, 4), (4, 8)]
        assert cluster._row_bounds(template, np.zeros((6, _FEATURES))) == [(0, 6)]


def _cluster_of(model) -> SimulatedCluster:
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((8, _FEATURES)), rng.integers(0, _CLASSES, 8))
    runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), n_workers=2, rng=0)
    return SimulatedCluster(lambda: model, data, runtime, 2, batch_size=4, backend="vectorized")


def test_only_classifiers_split_and_other_metrics_run_whole(monkeypatch):
    monkeypatch.setattr(SimulatedCluster, "_row_bounds", lambda self, model, X: shard_slices(len(X), 2))
    kwargs = seeded_backend_kwargs()
    runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(1.0, "constant"), n_workers=4, rng=0)
    data = kwargs["shards"][0]
    with SimulatedCluster(kwargs["model_fn"], data, runtime, 4, batch_size=4, backend="vectorized") as cluster:
        plain = lambda model: float(model.loss(data.X, data.y).item())  # noqa: E731 - a closure runs whole
        loss, own = cluster.evaluate_synchronized(RowMetric("loss", data.X, data.y), plain)
        assert loss == own and cluster._block_workspaces


# -- the mean's columns, and the pool's life ------------------------------------------


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_a_chunk_composites_mean_folds_column_ranges_to_the_bytes_of_the_axis_0_mean(monkeypatch, dtype):
    calls = []
    run_pinned = host.run_pinned

    def counted(shares, *args):
        calls.append(len(shares))
        return run_pinned(shares, *args)

    monkeypatch.setattr(host, "run_pinned", counted)
    with chunk_rule(threads=True):
        backend = LoopWorkers(n_chunks=2, bank_dtype=dtype, **seeded_backend_kwargs(5))
        try:
            backend.local_period(2)
            calls.clear()
            mean, nbytes = backend.mean_state()
            assert calls == [2]  # both chunks' rows fold on two threads, in one dispatch
            stacked = backend.get_stacked_states()
            assert mean.dtype == stacked.dtype and mean.tobytes() == stacked.mean(axis=0).tobytes()
            assert nbytes == stacked.nbytes
        finally:
            backend.close()


def test_closing_the_cluster_joins_the_evaluation_threads():
    with chunk_rule(threads=True):
        cluster = _cluster("mlp", n_rows=40)
        train = cluster._partition.dataset
        cluster.evaluate_synchronized(RowMetric("loss", train.X, train.y))
        assert chunk_threads_alive()
        cluster.close()
    assert not chunk_threads_alive()


def _pool_in_a_fork(conn) -> None:
    inherited = host._pool
    shares = host.run_pinned([[threading.get_ident], [threading.get_ident]])
    conn.send((inherited is None, [err is None for _, err in shares]))
    host.close_pool()


def test_a_fork_starts_without_the_parents_pool():
    host.run_pinned([[int], [int]])
    try:
        parent, child = multiprocessing.get_context("fork").Pipe()
        proc = multiprocessing.get_context("fork").Process(target=_pool_in_a_fork, args=(child,))
        proc.start()
        assert parent.poll(30), "the fork's pinned call never ran"
        assert parent.recv() == (True, [True, True])
        proc.join(10)
    finally:
        host.close_pool()


# -- telemetry ------------------------------------------------------------------------


def test_a_profiled_trace_of_threaded_evaluation_is_the_one_block_trace(monkeypatch, tmp_path):
    # One worker, so the chunk rule keeps one bank whatever it reads; the
    # evaluation rule reads one core (one block, no layout reading) or two
    # (the one-row reading, then two blocks).
    config = make_config(
        "smoke", model="vgg_lite_cnn", n_features=48, n_train=120, n_test=40, n_workers=1,
        methods=("sync-sgd",), wall_time_budget=6.0,
    )
    monkeypatch.setattr(host, "l2_bytes", lambda: 1)
    traces = {}
    for cores in (1, 2):
        monkeypatch.setattr(host, "usable_cores", lambda cores=cores: cores)
        with Tracer(profile=True) as tracer:
            run_experiment(config)
        traces[cores] = read_trace(tracer.flush(tmp_path / f"cores-{cores}.jsonl"))
    threaded = traces[2]
    assert all(event["wall_dur"] is not None for event in threaded if event["kind"] == "span")
    rows = {event["fields"]["op"] for event in threaded if event["name"] == "profile_op"}
    assert "conv2d.bank_forward" in rows  # the evaluation's kernels, timed on the calling thread
    assert diff_traces(traces[1], threaded).identical


def test_the_sinks_take_emissions_from_several_threads_at_once():
    n, threads = 5000, 4
    with Tracer() as tracer, MetricsRegistry() as registry:

        def emit():
            counter, histogram = registry.counter("evals_total"), registry.histogram("shard_rpc_seconds")
            for _ in range(n):
                counter.inc()
                histogram.observe(0.5)
                tracer.record("eval", "instant", None, None, None, None, {})

        workers = [threading.Thread(target=emit) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    assert registry.counter("evals_total").value == n * threads
    assert registry.histogram("shard_rpc_seconds").count == n * threads
    assert [event["seq"] for event in tracer.events] == list(range(n * threads))
