"""The grad-free forward workspace, the fused ``affine`` primitive and the
single evaluation prelude.

Contracts under test:

* ``x.affine(W, b)`` is ``x @ W + b`` byte for byte, forward and all three
  gradients, including the in-place weight-gradient path of a stale
  ``grad_buffer`` and a weight used twice;
* evaluating under a :class:`Workspace` changes no byte of any loss or
  accuracy, for every model family, across parameter changes and with two
  row counts sharing one workspace;
* the aliasing rule: a tensor of a workspace forward is valid until the next
  forward under the same workspace, a nested bare ``no_grad()`` and grad-
  enabled ops take nothing from it, an exception leaves it reusable and
  ``cluster.close()`` drops its buffers;
* ``evaluate_synchronized`` runs every metric of an evaluation point on one
  load of the synchronized model, in one eval-mode workspace scope;
* operands below the size floor never touch a workspace, and steady-state
  evaluation at ``lineup_eval``'s shapes allocates (almost) nothing.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedules import FixedCommunicationSchedule
from repro.core.trainer import PASGDTrainer, TrainerConfig
from repro.data.synthetic import make_gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.sharded_bank import ShardedBank
from repro.distributed.worker_bank import LoopWorkers, WorkerBank
from repro.experiments import harness
from repro.experiments.configs import make_config
from repro.experiments.harness import run_experiment
from repro.models.cnn import vgg_lite_cnn
from repro.models.mlp import MLP, ResidualMLP
from repro.nn import tensor as tensor_mod
from repro.nn.bank import ParameterBank
from repro.nn.layers import evaluating
from repro.nn.losses import accuracy
from repro.nn.tensor import Tensor, Workspace, is_grad_enabled, no_grad
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator

#: Forwards before a buffer is kept, plus two that then reuse it.
FORWARDS = Workspace.RETAIN_AT + 2


@pytest.fixture
def real_size_floor():
    """Requested by the tests whose subject is the size floor itself."""


@pytest.fixture(autouse=True)
def pool_small_operands(request, monkeypatch):
    """The tests' tensors are tiny: lift the size floor for everything else."""
    if "real_size_floor" not in request.fixturenames:
        monkeypatch.setattr(tensor_mod, "_WORKSPACE_MIN_BYTES", 0)


def kept_bytes(workspace: Workspace) -> int:
    return sum(buf.nbytes for buf in workspace._buffers.values() if isinstance(buf, np.ndarray))


# -- (a) affine == matmul + add, byte for byte ---------------------------------

@st.composite
def affine_cases(draw):
    return {
        "m": draw(st.sampled_from([1, 3])),
        "dtype": draw(st.sampled_from([np.float64, np.float32])),
        "stale_buffer": draw(st.booleans()),
        "tied": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
    }


def _affine_leaves(case):
    """(x, W, b) leaves; with ``stale_buffer`` W carries a poisoned grad buffer."""
    gen = np.random.default_rng(case["seed"])
    m, dtype = case["m"], case["dtype"]
    x = Tensor(gen.normal(size=(m, 5, 4)).astype(dtype), requires_grad=True)
    W = Tensor(gen.normal(size=(m, 4, 4)).astype(dtype), requires_grad=True)
    b = Tensor(gen.normal(size=(m, 1, 4)).astype(dtype), requires_grad=True)
    if case["stale_buffer"]:
        W.grad_buffer = np.full(W.shape, np.nan, dtype=dtype)
    return x, W, b


def _run(case, apply):
    x, W, b = _affine_leaves(case)
    out = apply(x, W, b)
    if case["tied"]:
        out = apply(out.tanh(), W, b)  # the same weight and bias a second time
    upstream = np.random.default_rng(case["seed"] + 1).normal(size=out.shape).astype(case["dtype"])
    (out * Tensor(upstream)).sum().backward()
    return out.data, x.grad, W.grad, b.grad, W


@settings(max_examples=60, deadline=None)
@given(affine_cases())
def test_affine_equals_matmul_plus_bias_byte_for_byte(case):
    fused = _run(case, lambda x, W, b: x.affine(W, b))
    composed = _run(case, lambda x, W, b: x @ W + b)
    for got, want in zip(fused[:4], composed[:4]):
        assert got.dtype == want.dtype == case["dtype"]
        assert got.tobytes() == want.tobytes()
    if case["stale_buffer"]:
        assert fused[4].grad is fused[4].grad_buffer  # written where the gradient lives


def test_affine_is_one_tape_node():
    x, W, b = (Tensor(np.ones(s), requires_grad=True) for s in [(2, 3), (3, 4), (4,)])
    out = x.affine(W, b)
    assert out._parents == (x, W, b)
    with no_grad():
        assert x.affine(W, b)._parents == ()


def test_affine_refuses_a_bias_that_would_widen_the_output():
    x, W = Tensor(np.ones((2, 3), dtype=np.float32)), Tensor(np.ones((3, 4), dtype=np.float32))
    with pytest.raises(TypeError):
        x.affine(W, Tensor(np.ones(4)))  # float64 bias into a float32 product
    with pytest.raises(ValueError):
        x.affine(W, Tensor(np.ones((5, 2, 4), dtype=np.float32)))


# -- (b) a workspace changes no byte ----------------------------------------------

MODELS = {
    "mlp_relu": lambda: MLP(12, 5, hidden_sizes=(9, 7), rng=1),
    "mlp_tanh": lambda: MLP(12, 5, hidden_sizes=(9,), activation="tanh", rng=2),
    "mlp_bn_dropout": lambda: MLP(12, 5, hidden_sizes=(9,), batch_norm=True, dropout=0.3, rng=3),
    "residual_mlp": lambda: ResidualMLP(12, 5, width=8, n_blocks=2, rng=4),
    "vgg_lite_cnn": lambda: vgg_lite_cnn(n_classes=5, image_size=4, rng=5),
}


def _n_features(model) -> int:
    return getattr(model, "n_features", None) or model.in_channels * model.image_size**2


def _loss_and_accuracy(model, X, y, workspace):
    with evaluating(model, workspace):
        loss = model.loss(X, y).item()
    with evaluating(model, workspace):
        return loss, accuracy(model(X), y)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_workspace_evaluation_is_byte_identical(name):
    model = MODELS[name]()
    gen = np.random.default_rng(7)
    if name == "mlp_bn_dropout":
        model.loss(gen.normal(size=(16, 12)), gen.integers(0, 5, size=16))  # move the running stats
    batches = [
        (gen.normal(size=(n, _n_features(model))), gen.integers(0, 5, size=n)) for n in (40, 13)
    ]
    workspace = Workspace()
    for _ in range(FORWARDS):
        for X, y in batches:  # two row counts share the one workspace
            plain = _loss_and_accuracy(model, X, y, None)
            assert _loss_and_accuracy(model, X, y, workspace) == plain
        for p in model.parameters():  # parameters change between evaluations
            p.data += 0.05 * gen.normal(size=p.shape)
    assert kept_bytes(workspace) > 0
    assert model.training and is_grad_enabled()


def test_workspace_evaluation_is_byte_identical_on_a_float32_bank():
    template = MLP(12, 5, hidden_sizes=(9,), rng=6)
    bank = ParameterBank(template, 3, dtype=np.float32)
    gen = np.random.default_rng(8)
    X = gen.normal(size=(3, 20, 12)).astype(np.float32)
    y = gen.integers(0, 5, size=(3, 20))
    workspace = Workspace()
    for _ in range(FORWARDS):
        with no_grad():
            logits = template.bank_forward(X, bank.state()).data
            loss = template.bank_loss(X, y, bank.state()).data
        with no_grad(workspace=workspace):
            reused = template.bank_forward(X, bank.state()).data
            assert reused.dtype == logits.dtype == np.float32
            assert reused.tobytes() == logits.tobytes()
        with no_grad(workspace=workspace):
            assert template.bank_loss(X, y, bank.state()).data.tobytes() == loss.tobytes()
        bank.slab += gen.normal(size=bank.slab.shape).astype(np.float32) * np.float32(0.05)
    assert kept_bytes(workspace) > 0


# -- (c) the aliasing contract ---------------------------------------------------------

def _forward(x: Tensor, W: Tensor, b: Tensor) -> list[Tensor]:
    h = x.affine(W, b)
    return [h, h.relu()]


@pytest.fixture
def leaves():
    gen = np.random.default_rng(9)
    return (
        Tensor(gen.normal(size=(6, 4))),
        Tensor(gen.normal(size=(4, 3)), requires_grad=True),
        Tensor(gen.normal(size=(3,)), requires_grad=True),
    )


def _warm(workspace, leaves) -> list[Tensor]:
    """Run the forward until its buffers are kept; return that forward's tensors."""
    for _ in range(Workspace.RETAIN_AT):
        with no_grad(workspace=workspace):
            outs = _forward(*leaves)
    return outs


def test_buffers_are_kept_from_the_configured_request_on(leaves):
    workspace = Workspace()
    for request in range(1, Workspace.RETAIN_AT):
        with no_grad(workspace=workspace):
            _forward(*leaves)
        assert kept_bytes(workspace) == 0, f"kept at request {request}"
    with no_grad(workspace=workspace):
        outs = _forward(*leaves)
    assert kept_bytes(workspace) == sum(t.data.nbytes for t in outs)


def test_next_forward_reuses_the_previous_forwards_buffers(leaves):
    workspace = Workspace()
    first = _warm(workspace, leaves)
    expected = [t.data.copy() for t in first]
    with no_grad(workspace=workspace):
        second = _forward(*leaves)
    for a, b, want in zip(first, second, expected):
        assert np.shares_memory(a.data, b.data)  # `first` is no longer its own
        assert b.data.tobytes() == want.tobytes()
    assert not np.shares_memory(second[0].data, second[1].data)


def test_nested_bare_no_grad_takes_nothing_from_the_outer_workspace(leaves):
    workspace = Workspace()
    _warm(workspace, leaves)
    kept = kept_bytes(workspace)
    with no_grad(workspace=workspace):
        h = leaves[0].affine(leaves[1], leaves[2])
        with no_grad():
            inner = _forward(*leaves)
        assert tensor_mod._state.workspace is workspace
        r = h.relu()  # still the forward's second buffer
    with no_grad(workspace=workspace):
        again = _forward(*leaves)
    assert np.shares_memory(again[0].data, h.data) and np.shares_memory(again[1].data, r.data)
    assert not any(np.shares_memory(t.data, u.data) for t in inner for u in again)
    assert kept_bytes(workspace) == kept


def test_grad_enabled_ops_take_nothing_from_the_workspace(leaves):
    workspace = Workspace()
    _warm(workspace, leaves)
    with no_grad(workspace=workspace):
        # No public API re-enables gradients inside ``no_grad``; if one ever
        # does, a tape must not record arrays the next forward overwrites.
        tensor_mod._state.grad_enabled = True
        try:
            taped = _forward(*leaves)
        finally:
            tensor_mod._state.grad_enabled = False
        reused = _forward(*leaves)
    assert taped[1].requires_grad
    assert not any(np.shares_memory(t.data, u.data) for t in taped for u in reused)
    outside = _forward(*leaves)  # after the scope: gradients on, no workspace
    assert tensor_mod._state.workspace is None and outside[1].requires_grad
    assert not any(np.shares_memory(t.data, u.data) for t in outside for u in reused)


def test_exception_inside_the_scope_leaves_the_workspace_reusable(leaves):
    workspace = Workspace()
    with no_grad():
        want = [t.data.copy() for t in _forward(*leaves)]
    _warm(workspace, leaves)
    with pytest.raises(ZeroDivisionError):
        with no_grad(workspace=workspace):
            leaves[0].affine(leaves[1], leaves[2])  # abandoned mid-forward
            1 / 0
    assert is_grad_enabled() and tensor_mod._state.workspace is None
    kept = kept_bytes(workspace)
    with no_grad(workspace=workspace):
        got = _forward(*leaves)
    assert [t.data.tobytes() for t in got] == [w.tobytes() for w in want]
    assert kept_bytes(workspace) == kept


def test_evaluating_restores_mode_after_an_exception():
    model = MLP(4, 2, hidden_sizes=(3,), rng=0)
    with pytest.raises(RuntimeError):
        with evaluating(model, Workspace()):
            assert not model.training and not is_grad_enabled()
            raise RuntimeError("metric failed")
    assert model.training and model.net.training and is_grad_enabled()
    model.eval()
    with evaluating(model):
        pass
    assert not model.training  # an eval-mode model stays in eval mode


# -- the cluster owns the workspace --------------------------------------------------------

def _cluster(backend: str, hidden=(6,), n_features=8, n_samples=96, **kwargs) -> SimulatedCluster:
    dataset = make_gaussian_blobs(n_samples=n_samples, n_features=n_features, n_classes=10, rng=3)
    runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=2, rng=0)
    return SimulatedCluster(
        model_fn=lambda: MLP(n_features, 10, hidden_sizes=hidden, rng=5),
        dataset=dataset, runtime=runtime, n_workers=2, batch_size=4,
        lr=0.05, seed=11, backend=backend, **kwargs,
    )


def _probe_metric(X, y, seen: list):
    def metric(model) -> float:
        workspace = tensor_mod._state.workspace
        seen.append((model, model.training, is_grad_enabled(), workspace, workspace._cursor))
        return float(model.loss(X, y).item())

    return metric


@pytest.mark.parametrize("backend", ["loop", "vectorized", "sharded"])
def test_evaluate_synchronized_is_the_one_evaluation_prelude(backend):
    gen = np.random.default_rng(1)
    X, y = gen.normal(size=(30, 8)), gen.integers(0, 10, size=30)
    with _cluster(backend) as cluster, _cluster("loop") as reference:
        seen: list = []
        for _ in range(FORWARDS):
            got = cluster.evaluate_synchronized(
                _probe_metric(X, y, seen), _probe_metric(X[:7], y[:7], seen)
            )
            model = reference.backend.materialize(reference.synchronized_parameters)
            with evaluating(model):
                assert got == (float(model.loss(X, y).item()), float(model.loss(X[:7], y[:7]).item()))
            cluster.run_round(2)
            reference.run_round(2)
        for first, second in zip(seen[::2], seen[1::2]):
            # Both metrics read one model in one scope: the second forward's
            # ops take the positions after the first's.
            assert first[0] is second[0]
            assert first[1:4] == second[1:4] == (False, False, cluster._eval_workspace)
            assert first[4] == 0 < second[4]
        assert is_grad_enabled() and tensor_mod._state.workspace is None
        assert seen[-1][0].training
        assert kept_bytes(cluster._eval_workspace) > 0
    assert kept_bytes(cluster._eval_workspace) == 0  # close() dropped the buffers


def test_metric_with_its_own_prelude_still_works():
    # Metrics written before the cluster set up evaluation mode carry their
    # own ``no_grad()``; it suspends the workspace and changes no value.
    gen = np.random.default_rng(2)
    X, y = gen.normal(size=(30, 8)), gen.integers(0, 10, size=30)

    def old_style(model) -> float:
        model.eval()
        with no_grad():
            return float(model.loss(X, y).item())

    with _cluster("vectorized") as cluster:
        for _ in range(FORWARDS):
            plain, own = cluster.evaluate_synchronized(lambda m: float(m.loss(X, y).item()), old_style)
            assert own == plain
            cluster.run_round(1)


# -- (d) steady-state evaluation allocates nothing to speak of ---------------------------

def test_small_operands_are_left_to_malloc(leaves, real_size_floor):
    big = Tensor(np.ones((tensor_mod._WORKSPACE_MIN_BYTES // 8, 1)))
    workspace = Workspace()
    for _ in range(FORWARDS):
        with no_grad(workspace=workspace):
            _forward(*leaves)  # 6 x 4: far below the floor
    assert workspace._buffers == {}
    for _ in range(FORWARDS):
        with no_grad(workspace=workspace):
            first = big.relu()
            small = leaves[0].relu()  # takes no position from the forward
            second = (first + Tensor(np.ones(1))).data  # one big operand is enough
    assert kept_bytes(workspace) == 2 * big.data.nbytes
    assert not any(np.shares_memory(small.data, buf) for buf in (first.data, second))


def test_steady_state_evaluation_allocates_under_half_a_megabyte(real_size_floor):
    # lineup_eval's shapes: (2400, 64) -> 128 -> 10 for the loss, 600 rows for
    # the accuracy.  Without a workspace one train-loss pass holds the GEMM
    # result, the biased copy and the ReLU output at once (>= 4.8 MB).
    gen = np.random.default_rng(3)
    train = gen.normal(size=(2400, 64)), gen.integers(0, 10, size=2400)
    test = gen.normal(size=(600, 64)), gen.integers(0, 10, size=600)
    cluster = _cluster("vectorized", hidden=(128,), n_features=64)

    def evaluate():
        cluster.evaluate_synchronized(
            lambda m: float(m.loss(*train).item()), lambda m: accuracy(m(test[0]), test[1])
        )

    for _ in range(Workspace.RETAIN_AT):  # warm-up: the forwards that fill the workspace
        evaluate()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(10):
            evaluate()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 500_000, f"peak {peak - before} B over ten evaluations"
    assert after - before < 50_000, f"{after - before} B still held after ten evaluations"
    assert kept_bytes(cluster._eval_workspace) > 2 * 2400 * 128 * 8


# -- (e) the trainer's evaluation points ------------------------------------------------------

def _train_and_evaluate(use_workspace: bool):
    dataset = make_gaussian_blobs(n_samples=96, n_features=8, n_classes=10, rng=3)
    cluster = _cluster("vectorized")
    if not use_workspace:
        cluster._eval_workspace = None  # evaluating(model, None): plain no_grad
    trainer = PASGDTrainer(
        cluster=cluster,
        schedule=FixedCommunicationSchedule(2),
        train_eval_data=(dataset.X, dataset.y),
        test_eval_data=(dataset.X[:40], dataset.y[:40]),  # a second row count in the scope
        config=TrainerConfig(max_iterations=16),
    )
    record = trainer.train()
    return [(p.iteration, p.train_loss, p.test_accuracy) for p in record.points]


def test_trainer_evaluation_is_byte_identical_with_and_without_workspace():
    reused = _train_and_evaluate(True)
    assert len(reused) >= FORWARDS
    assert reused == _train_and_evaluate(False)


# -- (f) one load and one call per evaluation point ------------------------------------------

@pytest.mark.parametrize("backend", ["loop", "vectorized", "sharded"])
def test_one_load_and_one_call_per_evaluation_point(backend, monkeypatch, leaks, real_size_floor):
    calls = {"evaluate": 0, "materialize": 0}
    backend_cls = {"loop": LoopWorkers, "vectorized": WorkerBank, "sharded": ShardedBank}[backend]
    evaluate, materialize = SimulatedCluster.evaluate_synchronized, backend_cls.materialize

    def counted_evaluate(self, *metrics):
        calls["evaluate"] += 1
        return evaluate(self, *metrics)

    def counted_materialize(self, *args, **kwargs):
        calls["materialize"] += 1
        return materialize(self, *args, **kwargs)

    monkeypatch.setattr(SimulatedCluster, "evaluate_synchronized", counted_evaluate)
    monkeypatch.setattr(backend_cls, "materialize", counted_materialize)
    monkeypatch.setattr(harness, "usable_cores", lambda: 1)  # no helper: every call is counted here
    store = run_experiment(make_config("smoke", backend=backend, eval_every_rounds=2, wall_time_budget=20.0))
    # Every evaluation point, and only those, carries a test accuracy.
    points = sum(not math.isnan(p.test_accuracy) for record in store for p in record.points)
    assert len(store) == 3 and points > 3
    assert calls == {"evaluate": points, "materialize": points}
