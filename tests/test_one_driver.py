"""One driver for every backend: what holds because ``loop`` is m banks of one.

``WorkerBank.local_step`` is the only local step in ``src/``; the three
backends compose it differently (``docs/backends.md``).  These tests pin the
consequences that are visible from outside: scratch modules never feed back
into worker state, the step really is the one being called, ``auto`` lands on
the loop for shards one stacked graph cannot sample, and every per-worker
view is the same class carrying a cluster-wide id.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.data.loader import BatchLoader
from repro.data.partition import PartitionedDataset
from repro.data.synthetic import make_gaussian_blobs
from repro.distributed import (
    AsyncFold,
    BackendHandle,
    BackendUnsupported,
    Exact,
    Gossip,
    LoopWorkers,
    ShardedBank,
    WorkerBank,
)
from repro.distributed.backends import WorkerView
from repro.distributed.worker_bank import vectorized
from repro.nn.layers import BatchNorm1d, Linear, Module, Sequential
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor
from repro.optim.sgd import SGD
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator

from tests.conftest import (
    EQUIVALENCE_FEATURES,
    build_equivalence_cluster,
    cluster_on,
    equivalence_cases,
    seeded_backend_kwargs,
)

CASES = {case.id: case for case in equivalence_cases()}
BACKENDS = ("loop", "vectorized", "sharded")
COLLECTIVES = {"exact": Exact(), "gossip": Gossip("ring"), "async": AsyncFold()}


@pytest.fixture(scope="module")
def layouts():
    """backend name -> what to hand the cluster; one sharded pool serves the module."""
    with BackendHandle("sharded", n_shards=2) as pool:
        yield {"loop": "loop", "vectorized": "vectorized", "sharded": pool}


def _run(layout, collective, *, peek: bool):
    """Two rounds of three steps, optionally evaluating the synchronized model between."""
    cluster = build_equivalence_cluster(
        CASES["mlp+batch_norm+dropout"], layout, collective=collective
    )
    try:
        cluster.run_round(3)
        if peek:
            (loaded,) = cluster.evaluate_synchronized(lambda model: model.get_flat_parameters())
            np.testing.assert_array_equal(loaded, cluster.synchronized_parameters)
        cluster.run_round(3)
        return cluster.backend.get_stacked_states(), cluster.backend.rng_fingerprint()
    finally:
        cluster.close()


@pytest.mark.parametrize("collective", COLLECTIVES, ids=list(COLLECTIVES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_synchronized_model_never_writes_worker_state(backend, collective, layouts):
    # The regression: on the old loop backend the materialized module *was*
    # worker 0's model, so under Gossip / AsyncFold (workers end a round
    # disagreeing) one call replaced worker 0's state with the network average.
    states, rng = _run(layouts[backend], COLLECTIVES[collective], peek=False)
    peeked_states, peeked_rng = _run(layouts[backend], COLLECTIVES[collective], peek=True)
    assert peeked_states.tobytes() == states.tobytes()
    assert peeked_rng == rng


def test_one_local_period_calls_the_one_step(monkeypatch):
    calls: list[int] = []
    step = WorkerBank.local_step
    monkeypatch.setattr(
        WorkerBank, "local_step", lambda self: calls.append(self.n_workers) or step(self)
    )
    m, tau = 4, 3
    for backend, graphs in (("loop", [1] * (m * tau)), ("vectorized", [m] * tau)):
        calls.clear()
        cluster = build_equivalence_cluster(CASES["mlp"], backend, n_workers=m)
        cluster.run_local_period(tau)
        assert calls == graphs, backend
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.distributed.worker")


def _ragged_cluster(backend):
    """Two workers on shards of 3 and 10 samples: batch_size=8 clips to 3 and 8."""
    dataset = make_gaussian_blobs(
        n_samples=13, n_features=EQUIVALENCE_FEATURES, n_classes=4, class_sep=2.0, rng=3
    )
    return cluster_on(
        backend,
        model_fn=CASES["mlp"].model_fn,
        dataset=PartitionedDataset(dataset, [np.arange(3), np.arange(3, 13)]),
        runtime=RuntimeSimulator(
            ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=2, rng=0
        ),
        n_workers=2, batch_size=8, lr=0.05, momentum=0.9, seed=17,
    )


def test_auto_on_ragged_shards_lands_where_a_direct_loop_run_does():
    auto, loop = _ragged_cluster("auto"), _ragged_cluster("loop")
    assert auto.backend_name == "loop"
    assert auto.backend.shard_sizes() == [3, 10]
    for _ in range(2):
        assert auto.run_round(3) == loop.run_round(3)
    np.testing.assert_array_equal(
        auto.backend.get_stacked_states(), loop.backend.get_stacked_states()
    )
    assert auto.backend.rng_fingerprint() == loop.backend.rng_fingerprint()


@pytest.mark.parametrize("backend", BACKENDS)
def test_views_carry_cluster_wide_ids_and_round_trip(backend, layouts):
    cluster = build_equivalence_cluster(CASES["mlp"], layouts[backend], n_workers=5)
    try:
        assert cluster.backend_name == backend
        views = cluster.workers
        assert all(type(view) is WorkerView for view in views)
        assert [view.worker_id for view in views] == list(range(5))
        n_params = views[0].get_parameters().size
        for view in views:
            view.set_parameters(np.full(n_params, float(view.worker_id)))
        for view in views:
            np.testing.assert_array_equal(view.get_parameters(), float(view.worker_id))
        np.testing.assert_array_equal(
            cluster.backend.get_stacked_states(), np.arange(5.0)[:, None] * np.ones(n_params)
        )
    finally:
        cluster.close()


class _Gain(Module):
    """A third-party layer: writes ``forward`` only."""

    def __init__(self, width):
        super().__init__()
        self.gain = Tensor(np.full(width, 1.5), requires_grad=True)

    def forward(self, x):
        return x * self.gain


class _ForwardOnlyNet(Module):
    """Forward-only model over built-in layers with buffers and an unused parameter."""

    def __init__(self):
        super().__init__()
        self.net = Sequential(
            Linear(EQUIVALENCE_FEATURES, 6, rng=0), BatchNorm1d(6), _Gain(6), Linear(6, 4, rng=1)
        )
        self.unused = Tensor(np.ones(3), requires_grad=True)  # never receives a gradient

    def forward(self, x):
        return self.net(x)

    def loss(self, x, y):
        return cross_entropy(self(x), y)


def test_forward_only_module_rides_the_one_step_as_the_textbook_driver_would():
    # The oracle is the public single-model driver — BatchLoader + loss +
    # backward + per-parameter SGD — which is what a bank of one with a
    # scratch replica must reproduce, buffers and skipped parameters included.
    kwargs = seeded_backend_kwargs(2)
    kwargs.update(model_fn=_ForwardOnlyNet, weight_decay=1e-4)
    built: list = []

    def counting_fn():
        built.append(_ForwardOnlyNet())
        return built[-1]

    for refusing in (vectorized, ShardedBank):  # at any m, before building a second replica
        with pytest.raises(BackendUnsupported):
            refusing(counting_fn, kwargs["shards"][:1], rngs=[0])
        assert len(built) == 1
        built.clear()

    loop = LoopWorkers(**kwargs)
    loop.local_period(3)
    loop.materialize(np.zeros(loop.worker_state(0).size))  # scratch: must not feed back
    loop.local_period(2)
    for i, (shard, seed) in enumerate(zip(kwargs["shards"], kwargs["rngs"])):
        model, loader = _ForwardOnlyNet(), BatchLoader(shard, kwargs["batch_size"], rng=seed)
        optimizer = SGD(model, lr=kwargs["lr"], momentum=kwargs["momentum"], weight_decay=1e-4)
        for _ in range(5):
            optimizer.zero_grad()
            model.loss(*loader.next_batch()).backward()
            optimizer.step()
        assert loop.worker_state(i).tobytes() == model.get_flat_parameters().tobytes()
        mine, theirs = dict(loop.workers[i].model.named_buffers()), dict(model.named_buffers())
        assert mine.keys() == theirs.keys() and len(mine) == 2
        for name in mine:
            assert mine[name].tobytes() == theirs[name].tobytes(), name
