"""Reverse-mode automatic differentiation on NumPy arrays.

``Tensor`` wraps a ``numpy.ndarray`` and records the operations applied to it
in a dynamically built computation graph.  Every tensor is stamped with a
creation index, and a node is made after its parents, so creation order is a
topological order: ``backward()`` pops the nodes reachable from the result
newest-first off a heap of stamps and accumulates gradients into every tensor
created with ``requires_grad=True``, each contribution added on arrival — in
descending creation index of its consumer (``docs/engine.md``).

The operator set is the minimum needed by the layer library: elementwise
arithmetic, matmul, reductions, reshape/transpose, exp/log/tanh/relu/sigmoid,
indexing helpers for cross-entropy, and im2col-friendly padding.  Broadcasting
is fully supported; gradients of broadcast operands are reduced back to the
operand's shape.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
from heapq import heappop, heappush
from typing import Callable

import numpy as np

__all__ = ["Tensor", "Workspace", "no_grad", "is_grad_enabled"]


class _Autograd(threading.local):
    """Each thread's graph-building switch and active workspace.

    Per thread, so evaluation blocks on pool threads each run in their own
    ``no_grad(workspace)`` scope while another thread records a tape.  The
    class attributes are a fresh thread's defaults.
    """

    grad_enabled = True
    workspace: "Workspace | None" = None


_state = _Autograd()
#: The next creation stamp (one C call: threads never share a stamp).  Only a
#: count lives here; the tape is the nodes' own parent links.
_stamp = itertools.count(1).__next__
#: Ops on operands smaller than this never use a workspace: below glibc's mmap
#: threshold (128 KiB) malloc recycles a block from its free lists in ~50 ns,
#: less than the workspace's own bookkeeping per op (~1 us).
_WORKSPACE_MIN_BYTES = 128 * 1024


class Workspace:
    """Reusable op-output buffers for repeated grad-free forwards.

    Inside ``with no_grad(workspace=ws):`` ``affine``, ``matmul``, ``relu``,
    ``exp``/``log``/``sqrt``/``tanh``, negation and the four arithmetic ops write
    their result into a buffer of ``ws`` through ``out=``.  The n-th op of the scope
    gets the n-th buffer, checked by shape and dtype: the same forward run
    again reuses the same memory, a different one gets its own.  Ops whose
    operands are all under ``_WORKSPACE_MIN_BYTES`` allocate as usual.

    Validity rule: a tensor produced under a workspace, and every view of it,
    is valid until the next ``no_grad(workspace=ws)`` scope on that workspace;
    copy what must outlive it.  A workspace serves one thread at a time: two
    threads forwarding at once each need their own.  A nested bare
    ``no_grad()`` suspends the workspace, and ops never consult it while
    gradients are enabled: a tape must not hold activations the next forward
    overwrites.
    """

    #: A buffer is kept from its third request on; until then ops allocate and
    #: free as they would without a workspace.  Keeping one raises the peak
    #: footprint by its size, paid once in fresh pages (6-13 ms/MB measured on
    #: a lazily backed VM, against ~0.2 ms/MB per forward for re-allocating).
    #: Every training run evaluates at its start and at its end; only a third
    #: evaluation shows a cadence that pays that back.
    RETAIN_AT = 3

    __slots__ = ("_buffers", "_cursor")

    def __init__(self) -> None:
        # (position, shape, dtype) -> the buffer, or how often it was requested.
        self._buffers: "dict[tuple, np.ndarray | int]" = {}
        self._cursor = 0

    def out(self, shape: tuple[int, ...], dtype) -> "np.ndarray | None":
        """The buffer for the scope's next op result; ``None`` means allocate."""
        key = (self._cursor, shape, dtype)
        self._cursor += 1
        buf = self._buffers.get(key, 0)
        if type(buf) is int:
            if buf + 1 < self.RETAIN_AT:
                self._buffers[key] = buf + 1
                return None
            buf = self._buffers[key] = np.empty(shape, dtype)
        return buf


@contextlib.contextmanager
def no_grad(workspace: "Workspace | None" = None):
    """Context manager disabling graph construction (like ``torch.no_grad``)
    on the calling thread; with a :class:`Workspace`, the scope is one
    forward under it."""
    state = _state
    prev = state.grad_enabled, state.workspace
    state.grad_enabled, state.workspace = False, workspace
    if workspace is not None:
        workspace._cursor = 0
    try:
        yield
    finally:
        state.grad_enabled, state.workspace = prev


def is_grad_enabled() -> bool:
    """Whether ops on the calling thread record a tape."""
    return _state.grad_enabled


def _out(a: np.ndarray, b: "np.ndarray | None" = None) -> "np.ndarray | None":
    """``out=`` for an elementwise result of ``a`` (and ``b``); ``None``: allocate."""
    workspace = _state.workspace
    if workspace is None or _state.grad_enabled or max(a.nbytes, 0 if b is None else b.nbytes) < _WORKSPACE_MIN_BYTES:
        return None
    if b is None or (a.shape == b.shape and a.dtype == b.dtype):
        return workspace.out(a.shape, a.dtype)
    return workspace.out(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, into the active workspace when there is one."""
    workspace = _state.workspace
    if (workspace is None or _state.grad_enabled or a.ndim < 2 or b.ndim < 2
            or max(a.nbytes, b.nbytes) < _WORKSPACE_MIN_BYTES):
        return a @ b
    shape = (*np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), a.shape[-2], b.shape[-1])
    return np.matmul(a, b, out=workspace.out(shape, np.result_type(a, b)))


def _matmul_vjp(a: "Tensor", b: "Tensor", g: np.ndarray) -> tuple:
    """Gradients of ``a @ b`` for its two operands (``matmul`` and ``affine``)."""
    # Skip the GEMM for a parent that cannot use the gradient (e.g. the
    # input batch of a first layer) — the engine discards None.
    ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape) if a.requires_grad else None
    if not b.requires_grad:
        return (ga, None)
    a_t = a.data.swapaxes(-1, -2)
    buf = b.grad_buffer
    if (
        buf is not None
        and b.grad is None
        and buf.shape == g.shape[:-2] + (a_t.shape[-2], g.shape[-1])
        and a_t.dtype == g.dtype == buf.dtype
    ):
        # Weight gradient of a stale in-place leaf: the same GEMM, written
        # where the gradient lives instead of into a temporary the engine
        # would then copy.
        return (ga, np.matmul(a_t, g, out=buf))
    return (ga, _unbroadcast(a_t @ g, b.shape))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple([i for i, n in enumerate(grad.shape) if n != 1 and shape[i] == 1])
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with an autograd tape.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` by default (``float32``
        payloads are preserved).
    requires_grad:
        If True, gradients are accumulated into ``.grad`` during ``backward``.

    A leaf may carry a persistent ``grad_buffer`` (an array of the leaf's
    shape and dtype; the parameter bank hands every stacked parameter a view
    of its gradient slab).  ``backward`` then accumulates that leaf's
    gradient *in place*: ``.grad`` is either ``None`` — stale, nothing
    arrived since ``zero_grad()`` or an outside ``.grad = None`` — or the
    buffer itself.  The first contribution after a stale mark overwrites the
    buffer, later ones ``+=`` in arrival order, so a steady-state step
    allocates no gradient array.  Leaves without a buffer keep the
    allocate-and-add behaviour.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "name", "grad_buffer",
        "_index", "_pending",
    )
    __array_priority__ = 100  # ensure ndarray.__mul__ defers to Tensor.__rmul__

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.grad_buffer: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._index = _stamp()
        self._pending: np.ndarray | None = None  # set only inside ``backward``
        self.name = name

    # -- basic protocol ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but outside the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Deep copy of the data as a new leaf tensor with the same flags."""
        t = Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)
        return t

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # -- graph construction ----------------------------------------------------
    def _make(self, data: np.ndarray, parents: "tuple[Tensor, ...]",
              backward: Callable[[np.ndarray], tuple]) -> "Tensor":
        """The result of an op on float tensors: a graph node when gradients
        are on and a parent requires them, a plain tensor otherwise."""
        if type(data) is not np.ndarray:
            data = np.asarray(data)  # scalar picks and 1-D dot products yield NumPy scalars
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = out.grad_buffer = out.name = out._pending = out._backward = None
        out.requires_grad, out._parents, out._index = False, (), _stamp()
        if _state.grad_enabled:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad, out._parents, out._backward = True, parents, backward
                    break
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1.0 and is only optional for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones(self.data.shape, self.data.dtype)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
        if self._backward is None:
            self._accumulate_leaf(grad)
            return

        # Newest first: every consumer of a node carries a larger stamp, so a
        # popped node has already received all of its contributions.
        self._pending = grad
        heap = [(-self._index, self)]
        try:
            while heap:
                node = heappop(heap)[1]
                g, node._pending = node._pending, None
                # The _backward closure returns per-parent gradients.
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    if parent._backward is None:
                        parent._accumulate_leaf(pg)
                    elif parent._pending is None:
                        parent._pending = pg
                        heappush(heap, (-parent._index, parent))
                    else:
                        parent._pending = parent._pending + pg
        finally:
            for _, node in heap:  # non-empty only when a closure raised
                node._pending = None

    def _accumulate_leaf(self, g: np.ndarray) -> None:
        """Add one gradient contribution to this leaf's ``.grad``."""
        buf = self.grad_buffer
        if buf is None or (self.grad is not None and self.grad is not buf):
            # No buffer, or ``.grad`` was assigned from outside: allocate.
            self.grad = g.copy() if self.grad is None else self.grad + g
        elif self.grad is None:
            # Stale buffer: overwrite (a closure may already have written
            # its result straight into it, see ``matmul``).
            if g is not buf:
                np.copyto(buf, g)
            self.grad = buf
        else:
            buf += g

    # -- elementwise arithmetic --------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = np.add(self.data, other.data, out=_out(self.data, other.data))

        def backward(g):
            # As in ``_matmul_vjp``: None for a parent that cannot use it.
            return (
                _unbroadcast(g, self.data.shape) if self.requires_grad else None,
                _unbroadcast(g, other.data.shape) if other.requires_grad else None,
            )

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        out_data = np.negative(self.data, out=_out(self.data))
        return self._make(out_data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = np.subtract(self.data, other.data, out=_out(self.data, other.data))

        def backward(g):
            return (
                _unbroadcast(g, self.data.shape) if self.requires_grad else None,
                _unbroadcast(-g, other.data.shape) if other.requires_grad else None,
            )

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = np.multiply(self.data, other.data, out=_out(self.data, other.data))

        def backward(g):
            return (
                _unbroadcast(g * other.data, self.data.shape) if self.requires_grad else None,
                _unbroadcast(g * self.data, other.data.shape) if other.requires_grad else None,
            )

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = np.divide(self.data, other.data, out=_out(self.data, other.data))

        def backward(g):
            return (
                _unbroadcast(g / other.data, self.data.shape) if self.requires_grad else None,
                _unbroadcast(-g * self.data / (other.data**2), other.data.shape) if other.requires_grad else None,
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g):
            return (g * exponent * self.data ** (exponent - 1),)

        return self._make(out_data, (self,), backward)

    # -- matrix ops -------------------------------------------------------------
    def matmul(self, other) -> "Tensor":
        other = _as_tensor(other)
        out_data = _matmul(self.data, other.data)
        return self._make(out_data, (self, other), lambda g: _matmul_vjp(self, other, g))

    __matmul__ = matmul

    def affine(self, weight: "Tensor", bias: "Tensor") -> "Tensor":
        """``self @ weight + bias`` as one node, the bias added in place on the
        fresh GEMM output: it must broadcast into that without widening its
        shape or dtype (NumPy raises otherwise)."""
        out_data = _matmul(self.data, weight.data)
        np.add(out_data, bias.data, out=out_data, casting="safe")

        def backward(g):
            return (*_matmul_vjp(self, weight, g), _unbroadcast(g, bias.shape))

        return self._make(out_data, (self, weight, bias), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(g):
            return (g.transpose(inv),)

        return self._make(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig_shape = self.shape

        def backward(g):
            return (g.reshape(orig_shape),)

        return self._make(self.data.reshape(shape), (self,), backward)

    # -- reductions ---------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        kept = self.data.sum(axis=axis, keepdims=True)
        in_shape = self.data.shape

        def backward(g):
            # The bytes of ``np.broadcast_to(g, in_shape).copy()``.
            full = np.empty(in_shape, g.dtype)
            np.copyto(full, g.reshape(kept.shape))
            return (full,)

        return self._make(kept if keepdims else kept.squeeze(axis), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = math.prod([self.data.shape[a] for a in axes])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        kept = self.data.max(axis=axis, keepdims=True)

        def backward(g):
            mask = (self.data == kept).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            return (mask * g.reshape(kept.shape),)

        return self._make(kept if keepdims else kept.squeeze(axis), (self,), backward)

    # -- elementwise functions ------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data, out=_out(self.data))

        def backward(g):
            return (g * out_data,)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g):
            return (g / self.data,)

        out_data = np.log(self.data, out=_out(self.data))
        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data, out=_out(self.data))

        def backward(g):
            return (g * 0.5 / out_data,)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data, out=_out(self.data))

        def backward(g):
            return (g * (1.0 - out_data**2),)

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            return (g * out_data * (1.0 - out_data),)

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        # One pass; ``x * (x > 0)`` would also turn negative inputs into -0.0.
        out_data = np.maximum(self.data, 0, out=_out(self.data))

        def backward(g):
            return (g * (self.data > 0),)

        return self._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(g):
            return (g * mask,)

        return self._make(out_data, (self,), backward)

    # -- shaping / selection --------------------------------------------------------
    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            return (full,)

        return self._make(out_data, (self,), backward)


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
