"""Exact-count ratchet on what one local step costs the autograd engine.

Seconds drift ±13 % on shared runners and are never gated; these counts
repeat exactly.  One ``WorkerBank.local_step`` of the ``smoke`` MLP bank:
graph nodes created, Python-level calls into NumPy's pure-Python helper
modules, and gradients computed for parents that cannot take one.
``benchmarks/bench_engine_step.py`` prints the neighbouring numbers that are
reported but not gated (function calls and microseconds per step).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.distributed.worker_bank import WorkerBank, chunk_payloads
from repro.experiments.configs import make_config
from repro.models.mlp import MLP
from repro.nn.tensor import Tensor

#: Graph nodes per local step of the smoke MLP (bias reshape, affine, relu,
#: bias reshape, affine, fused cross-entropy, sum; 16 before the fused loss).
#: May only go down: lower it with the change that removes a node.
NODES_PER_STEP = 7

#: NumPy modules implemented in Python whose helpers (``broadcast_to``,
#: ``expand_dims``, ...) cost 5-10 us a call on step-sized arrays.
PURE_PYTHON_NUMPY = ("_stride_tricks_impl.py", "_shape_base_impl.py")


@pytest.fixture
def bank() -> WorkerBank:
    config = make_config("smoke")
    dataset = config.build_dataset(rng=np.random.default_rng(0))
    shards = [dataset.subset(np.arange(i, len(dataset), config.n_workers)) for i in range(config.n_workers)]
    (payload,) = chunk_payloads(
        lambda: MLP(dataset.n_features, config.n_classes, hidden_sizes=config.hidden_sizes, rng=1),
        shards, [(0, config.n_workers)],
        batch_size=config.batch_size, lr=config.lr, rngs=[np.random.default_rng(i) for i in range(config.n_workers)],
    )
    bank = WorkerBank(**payload)
    bank.local_step()  # steady state: gradient buffers bound, plans cached
    return bank


@pytest.fixture
def made_nodes(monkeypatch) -> list:
    """Every graph node ``Tensor._make`` creates while the fixture is active."""
    nodes: list[Tensor] = []
    make = Tensor._make

    def recording_make(self, data, parents, backward):
        out = make(self, data, parents, backward)
        if out._backward is not None:
            nodes.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", recording_make)
    return nodes


def test_graph_nodes_per_local_step(bank, made_nodes):
    bank.local_step()
    assert len(made_nodes) == NODES_PER_STEP


def test_local_step_never_enters_numpys_pure_python_helpers(bank):
    entered: list[str] = []

    def on_call(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(PURE_PYTHON_NUMPY):
            entered.append(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")

    sys.setprofile(on_call)
    try:
        bank.local_step()
    finally:
        sys.setprofile(None)
    assert not entered, sorted(set(entered))


def assert_no_gradient_for_detached_parents(nodes) -> None:
    """Wrap every node's closure: a parent that cannot take a gradient gets None."""
    for node in nodes:
        def checked(g, node=node, inner=node._backward):
            grads = inner(g)
            for parent, pg in zip(node._parents, grads):
                assert parent.requires_grad or pg is None, f"computed a gradient for a detached {parent!r}"
            return grads

        node._backward = checked


def test_local_step_differentiates_no_detached_parent(bank, made_nodes, monkeypatch):
    backward = Tensor.backward

    def checking_backward(self, grad=None):
        assert_no_gradient_for_detached_parents(made_nodes)
        backward(self, grad)

    monkeypatch.setattr(Tensor, "backward", checking_backward)
    bank.local_step()
    assert len(made_nodes) == NODES_PER_STEP  # the closures above did run


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__", "__truediv__"])
@pytest.mark.parametrize("detached", ["left", "right"])
def test_arithmetic_vjps_skip_a_detached_operand(op, detached, made_nodes):
    gen = np.random.default_rng(0)
    left = Tensor(gen.normal(size=(3, 3)), requires_grad=detached != "left")
    right = Tensor(gen.normal(size=(1, 3)) + 3.0, requires_grad=detached != "right")
    out = getattr(left, op)(right)
    assert_no_gradient_for_detached_parents(made_nodes)
    out.sum().backward()
    assert (left.grad is None) == (detached == "left") and (right.grad is None) == (detached == "right")
