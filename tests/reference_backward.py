"""Reference implementations the engine's ``Tensor.backward`` is tested against.

``dfs_backward`` is the walk ``repro.nn.tensor`` shipped until the tape
replaced it, kept verbatim: a reverse topological order from an explicit-stack
depth-first search, pending gradients in a dict keyed by ``id()``, buffered
leaves accumulated on arrival and plain leaves summed first.  It is the
bit-identity oracle wherever the two walks must agree — every graph in which
no tensor has more than two gradient contributions (two contributions commute
bitwise).

``rule_backward`` states the engine's accumulation rule in the plainest way
available — collect the reachable nodes, sort them by creation stamp, newest
first, and add every contribution on arrival — and is the oracle for graphs
with three or more contributions to one tensor, where order shows in the last
bit.  Neither is imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def _seed(root: Tensor, grad) -> np.ndarray:
    if not root.requires_grad:
        raise RuntimeError("called backward() on a tensor that does not require grad")
    if grad is None:
        if root.data.size != 1:
            raise RuntimeError("grad must be provided for non-scalar backward()")
        return np.ones_like(root.data)
    return np.asarray(grad, dtype=root.data.dtype)


def dfs_backward(root: Tensor, grad=None) -> None:
    grad = _seed(root, grad)

    # Build reverse topological order of the graph rooted at root.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root): grad}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node._accumulate_leaf(g)
            continue
        # The _backward closure returns per-parent gradients.
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent.grad_buffer is not None and parent._backward is None:
                parent._accumulate_leaf(pg)
            elif id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg


def reachable_nodes(root: Tensor) -> list[Tensor]:
    """Every graph node (not leaf) a gradient from ``root`` can reach."""
    found: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in found or node._backward is None:
            continue
        found[id(node)] = node
        stack.extend(p for p in node._parents if p.requires_grad)
    return list(found.values())


def rule_backward(root: Tensor, grad=None) -> None:
    grad = _seed(root, grad)
    if root._backward is None:
        root._accumulate_leaf(grad)
        return
    grads: dict[int, np.ndarray] = {id(root): grad}
    for node in sorted(reachable_nodes(root), key=lambda n: n._index, reverse=True):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent._backward is None:
                parent._accumulate_leaf(pg)
            elif id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg


def max_contributions(root: Tensor) -> int:
    """The largest number of gradient contributions any tensor under ``root``
    receives: graph edges into it from reachable consumers (``x * x`` is two)."""
    counts: dict[int, int] = {}
    for node in reachable_nodes(root):
        for p in node._parents:
            if p.requires_grad:
                counts[id(p)] = counts.get(id(p), 0) + 1
    return max(counts.values(), default=0)
