"""The tape walk of ``Tensor.backward`` against the walk it replaced.

``tests/reference_backward.py`` keeps the former depth-first walk and a
sort-by-stamp statement of the accumulation rule.  Random expression DAGs
over the public ops must give the rule's bytes always, the former walk's
bytes whenever no tensor has more than two gradient contributions (in one
precision), and its values to a dtype tolerance otherwise; the
hand-stamped bank-of-one views, re-walked graphs, raising closures and graphs
built on two threads get a case each.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.models.mlp import MLP
from repro.nn.tensor import Tensor, no_grad
from tests.reference_backward import dfs_backward, max_contributions, reachable_nodes, rule_backward

LEAF_SHAPES = [(2, 3), (1, 3), (2, 1), (3,), ()]  # every pair broadcasts
MAX_FAN_OUT = 4

UNARY = [
    (lambda v: True, lambda v: -v),
    (lambda v: True, lambda v: v.tanh().exp()),
    (lambda v: True, lambda v: (v * v + 1.0).log()),
    (lambda v: True, lambda v: (v * v + 1.0).sqrt()),
    (lambda v: True, lambda v: v.sigmoid()),
    (lambda v: True, lambda v: v.relu()),
    (lambda v: True, lambda v: v.clip(-0.5, 0.5)),
    (lambda v: True, lambda v: v**2),
    (lambda v: True, lambda v: 1.5 - v),
    (lambda v: True, lambda v: 3.0 * v + 2.0),
    (lambda v: True, lambda v: 2.0 / (v * v + 1.0)),
    (lambda v: True, lambda v: v.sum()),
    (lambda v: True, lambda v: v.mean()),
    (lambda v: True, lambda v: v.max()),
    (lambda v: True, lambda v: v.reshape(-1)),
    (lambda v: True, lambda v: v.T),
    (lambda v: True, lambda v: v.detach()),
    (lambda v: v.ndim >= 1, lambda v: v.sum(axis=0)),
    (lambda v: v.ndim >= 1, lambda v: v.sum(axis=-1, keepdims=True)),
    (lambda v: v.ndim >= 1, lambda v: v.mean(axis=0)),
    (lambda v: v.ndim >= 1, lambda v: v.max(axis=-1)),
    (lambda v: v.ndim >= 1, lambda v: v.max(axis=0, keepdims=True)),
    (lambda v: v.ndim >= 1, lambda v: v[0]),
    (lambda v: v.ndim >= 1, lambda v: v[::-1]),
    (lambda v: v.ndim >= 1, lambda v: v[[0, 0, len(v) - 1]]),  # duplicate rows: add.at
    (lambda v: v.ndim >= 2, lambda v: v.sum(axis=(0, 1))),
    (lambda v: v.ndim >= 2, lambda v: v.mean(axis=(0, -1), keepdims=True)),
    (lambda v: v.ndim >= 2, lambda v: v.reshape(v.size, 1)),
]
BINARY = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / (b * b + 1.0),
]


def _broadcastable(a: Tensor, b: Tensor) -> bool:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        return False
    return True


programs = st.tuples(
    st.integers(0, 2**31 - 1),  # leaf values
    st.lists(  # leaves: shape, dtype, kind
        st.tuples(
            st.sampled_from(LEAF_SHAPES),
            st.sampled_from([np.float32, np.float64]),
            st.sampled_from(["plain", "buffered", "constant"]),
        ),
        min_size=1, max_size=3,
    ),
    st.lists(st.tuples(st.integers(0, len(UNARY) + 2 * len(BINARY)), st.integers(0, 40), st.integers(0, 40)),
             min_size=1, max_size=12),
    st.integers(0, 2**12 - 1),  # which values join the newest one in the root
)


def build(program) -> "tuple[list[Tensor], Tensor]":
    """Interpret ``program``: the leaves that take a gradient, and the scalar root."""
    seed, leaf_specs, steps, root_mask = program
    gen = np.random.default_rng(seed)
    values: list[Tensor] = []
    for shape, dtype, kind in leaf_specs:
        # The first leaf always takes a gradient, so the root does too.
        leaf = Tensor(gen.uniform(-1.5, 1.5, size=shape).astype(dtype), requires_grad=kind != "constant" or not values)
        if kind == "buffered":
            leaf.grad_buffer = np.full(shape, np.nan, dtype)
        values.append(leaf)
    leaves = [v for v in values if v.requires_grad]
    uses = [0] * len(values)

    def operand(i: int) -> "int | None":
        i %= len(values)
        return i if uses[i] < MAX_FAN_OUT else None

    for op, i, j in steps:
        i = operand(i)
        if i is None:
            continue
        if op < len(UNARY):
            applies, fn = UNARY[op]
            if not applies(values[i]):
                continue
            out = fn(values[i])
        else:
            j = operand(j)
            if j is None or (i == j and uses[i] + 2 > MAX_FAN_OUT):
                continue
            a, b = values[i], values[j]
            if op == len(UNARY) + 2 * len(BINARY):
                if not (a.ndim == b.ndim == 2 and a.shape == b.shape):
                    continue
                out = a @ b.T
            else:
                fn = BINARY[(op - len(UNARY)) % len(BINARY)]
                out = fn(a, b) if _broadcastable(a, b) else fn(a, b.sum())
            uses[j] += 1
        uses[i] += 1
        values.append(out)
        uses.append(0)
    differentiable = [v for v in values if v.requires_grad]
    # The newest differentiable value, plus whichever others the mask picks.
    root = differentiable.pop().sum()
    for k, term in enumerate(differentiable):
        if (root_mask >> (k % 12)) & 1:
            root = root + (term * (0.5 + k)).sum()
    return leaves, root


def walk(backward, root: Tensor, leaves, grad=None) -> list:
    """Run one walk from stale leaves; each leaf's gradient bytes (or None)."""
    for leaf in leaves:
        leaf.grad = None
        if leaf.grad_buffer is not None:
            leaf.grad_buffer.fill(np.nan)
    backward(root, grad)
    assert all(node._pending is None for node in reachable_nodes(root))
    return [None if leaf.grad is None else (leaf.grad.dtype, leaf.grad.tobytes()) for leaf in leaves]


@settings(max_examples=300, deadline=None)
@given(programs)
def test_random_dags_match_the_reference_walks(program):
    with np.errstate(all="ignore"):
        leaves, root = build(program)
        assume(np.isfinite(root.data))
        engine = walk(Tensor.backward, root, leaves)
        assume(all(leaf.grad is None or np.isfinite(leaf.grad).all() for leaf in leaves))
        assert engine == walk(rule_backward, root, leaves)
        former = walk(dfs_backward, root, leaves)
        double = all(dtype == np.float64 for _, dtype, _ in program[1])
        if double and max_contributions(root) <= 2:
            # Two contributions commute bitwise — in one precision: a float32
            # leaf fed a float32 and a float64 one (``x * 1.5`` promotes)
            # rounds once or twice depending on which came first.
            assert engine == former
        tol = 1e-10 if double else 1e-4  # the lowest precision anywhere in the graph
        for new, old in zip(engine, former):
            assert (new is None) == (old is None)
            if new is not None:
                assert new[0] == old[0]
                got, want = np.frombuffer(new[1], new[0]), np.frombuffer(old[1], old[0])
                np.testing.assert_allclose(got, want, rtol=tol, atol=tol * max(1.0, np.abs(want).max(initial=0.0)))
        # A graph is re-walkable: no slot or closure state survives a walk.
        assert engine == walk(Tensor.backward, root, leaves)


def test_three_contributions_follow_descending_creation_order():
    # (a + b) + c differs from a + (b + c) in the last bit for these values.
    w = Tensor(np.array([1.0]), requires_grad=True)
    h = w * 1.0  # a node with three consumers, created in the order x, y, z
    x, y, z = h * 0.1, h * 0.2, h * 0.3
    root = (z + x + y).sum()  # consumption order must not matter
    seen = []
    h._backward = lambda g, inner=h._backward: seen.append(g.copy()) or inner(g)
    root.backward()
    assert seen[0].tobytes() == np.array([(0.3 + 0.2) + 0.1]).tobytes()
    assert (0.3 + 0.2) + 0.1 != 0.3 + (0.2 + 0.1)


@pytest.mark.parametrize("first_use_under_no_grad", [False, True])
def test_bank_of_one_views_are_stamped_graph_nodes(first_use_under_no_grad):
    gen = np.random.default_rng(0)
    model = MLP(5, 3, hidden_sizes=(4,), rng=0)
    X, y = gen.normal(size=(7, 5)), gen.integers(0, 3, size=7)
    if first_use_under_no_grad:
        with no_grad():
            model.loss(X, y)
    views = [v for v in model._bank_of_one().values() if isinstance(v, Tensor)]
    assert all(v.requires_grad and v._index > v._parents[0]._index for v in views)
    params = model.parameters()
    for step in range(2):  # the cached views are older than every later step's nodes
        root = model.loss(X, y)
        assert all(node._index > max(v._index for v in views) for node in reachable_nodes(root) if node not in views)
        engine = walk(Tensor.backward, root, params)
        assert engine == walk(dfs_backward, root, params), step
        assert all(g is not None for g in engine)


def test_slots_are_clean_after_a_closure_raises():
    w = Tensor(np.arange(3.0), requires_grad=True)
    shared = w * 2.0
    left, right = shared.exp(), shared.tanh()
    boom = left * 1.0
    boom._backward = lambda g: (_ for _ in ()).throw(FloatingPointError("vjp failed"))
    root = (boom + right).sum()
    with pytest.raises(FloatingPointError, match="vjp failed"):
        root.backward()
    # ``right`` was waiting in the heap with a gradient when ``boom`` raised.
    assert all(node._pending is None for node in reachable_nodes(root))
    healthy = (right * 3.0).sum()
    assert walk(Tensor.backward, healthy, [w]) == walk(dfs_backward, healthy, [w])


def test_graphs_built_side_by_side_on_two_threads():
    """Shard threads build and walk graphs concurrently: stamps must stay unique
    and ordered within each graph, whatever the interleaving."""
    gen = np.random.default_rng(3)
    data = gen.normal(size=(2, 4, 4))

    def loss(w: Tensor) -> Tensor:
        h = w
        for _ in range(6):
            h = (h @ w).tanh() + h * 0.5
        return (h * h).sum()

    expected = []
    for k in range(2):
        w = Tensor(data[k].copy(), requires_grad=True)
        loss(w).backward()
        expected.append(w.grad.tobytes())

    failures: list = []

    def work(k: int) -> None:
        try:
            for _ in range(150):
                w = Tensor(data[k].copy(), requires_grad=True)
                root = loss(w)
                nodes = reachable_nodes(root)
                assert all(n._index > p._index for n in nodes for p in n._parents), "child older than parent"
                root.backward()
                assert w.grad.tobytes() == expected[k], "gradient changed under contention"
        except BaseException as exc:  # reported from the main thread below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[0]
