"""Stacked param+buffer banks for the vectorized worker-bank backend.

All m worker replicas in a simulated PASGD cluster share one architecture and
differ only in *values*.  :class:`ParameterBank` exploits that: it stores
every parameter of a template module stacked along a leading worker axis —
``(m, *shape)`` — so that one batched NumPy op (matmul broadcasting over the
leading axis, see :meth:`Module.bank_forward`) executes the corresponding
computation for all workers at once instead of looping the m replicas in
Python.  Non-trainable *buffers* (batch-norm running statistics) are stacked
the same way but stay outside the autograd graph and outside the flat
parameter vector: model averaging broadcasts parameters only, so each
worker's statistics remain local — exactly the loop backend's (and common
DDP) semantics.

:func:`attach_bank_streams` completes the equivalence story for stochastic
layers: the template's RNG-consuming modules (dropout, data-free noise
models) are handed the m per-worker generators that the loop backend's
replicas would own, so seeded mask/noise draws are byte-identical — stream
positions included — on either backend.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.nn.layers import Module
from repro.nn.tensor import Tensor

__all__ = [
    "ParameterBank",
    "bank_compatible",
    "attach_bank_streams",
]


def bank_compatible(model: Module) -> bool:
    """Whether ``model`` can run on the vectorized worker-bank backend.

    Requires a ``bank_loss`` override, a bank-capable module tree (every
    submodule implements ``bank_forward``), and at least one trainable
    parameter.
    """
    return (
        type(model).bank_loss is not Module.bank_loss
        and model.supports_bank()
        and any(True for _ in model.parameters())
    )


def attach_bank_streams(template: Module, replicas: Sequence[Module]) -> None:
    """Wire per-worker RNG streams into the template's stream modules.

    ``replicas`` are worker 1..m-1's would-be loop replicas (built by the
    same ``model_fn`` the loop backend would call); the template itself
    serves worker 0.  After this call every module yielded by
    :meth:`Module.stream_modules` holds ``_bank_rngs = [stream_0, ...,
    stream_{m-1}]`` positioned exactly where the loop backend's per-replica
    generators would be, which is what makes the bank's stacked mask/noise
    draws stream-equivalent to the loop.
    """
    template_mods = list(template.stream_modules())
    replica_mods = [list(replica.stream_modules()) for replica in replicas]
    for mods in replica_mods:
        if len(mods) != len(template_mods):
            raise ValueError(
                f"replica has {len(mods)} stream module(s), template has "
                f"{len(template_mods)}; architectures must match"
            )
    for idx, mod in enumerate(template_mods):
        mod._bank_rngs = [mod._rng] + [mods[idx]._rng for mods in replica_mods]


class ParameterBank:
    """The params + buffers of m identical replicas, stacked per worker.

    All parameters live in one C-contiguous ``(m, P)`` array, ``slab`` (row i
    is worker i's flat vector in :meth:`Module.get_flat_parameters` layout),
    all gradients in ``grad_slab``.  Every stacked parameter tensor is a
    *view*, ``slab[:, lo:hi].reshape(m, *shape)``, its ``grad_buffer`` the
    same window of ``grad_slab``, so the flat-vector methods below are one
    slab read or write each.  Rows are P apart: ``bank_forward`` code may
    reshape a parameter's axes *after* the worker axis but never merge the
    worker axis into another — that silently copies, and an in-place write
    to the copy is lost.

    Parameters
    ----------
    template:
        A module whose current parameter values seed every worker slice (the
        paper requires all workers to start from the same ``x1``); its buffer
        values seed every worker's buffer slice the same way.
    n_workers:
        Number of replicas m stacked along the leading axis.
    dtype:
        Storage dtype of the slabs and buffers.  The default ``float64``
        matches the loop reference byte for byte; ``float32`` is the opt-in
        reduced-precision mode (half the memory traffic, parity within
        tolerance rather than byte-equality).
    """

    def __init__(self, template: Module, n_workers: int, dtype=np.float64):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.dtype = np.dtype(dtype)
        flat = template.get_flat_parameters().astype(self.dtype, copy=False)
        if flat.size == 0:
            raise ValueError("template model has no trainable parameters")
        self.n_parameters = flat.size
        self.slab = np.repeat(flat[None, :], self.n_workers, axis=0)
        self.grad_slab = np.zeros_like(self.slab)
        self.params: "OrderedDict[str, Tensor]" = OrderedDict()
        #: ``[lo, hi)`` slab columns of each parameter, in ``params`` order.
        self._segments: list[tuple[int, int]] = []
        lo = 0
        for name, p in template.named_parameters():
            hi = lo + p.size
            shape = (self.n_workers, *p.shape)
            stacked = Tensor(self.slab[:, lo:hi].reshape(shape), requires_grad=True, name=name)
            stacked.grad_buffer = self.grad_slab[:, lo:hi].reshape(shape)
            # A bounds check, O(1): a reshape that copied would lie outside the
            # slab (the exact np.shares_memory costs ~5 ms a bank on MLP-sized layers).
            assert np.may_share_memory(stacked.data, self.slab), name
            assert np.may_share_memory(stacked.grad_buffer, self.grad_slab), name
            self.params[name] = stacked
            self._segments.append((lo, hi))
            lo = hi
        #: Stacked ``(m, *shape)`` non-trainable buffers (e.g. batch-norm
        #: running stats), updated in place by ``bank_forward`` and excluded
        #: from the flat vectors — averaging leaves them worker-local.
        self.buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, b in template.named_buffers():
            self.buffers[name] = np.repeat(
                b.astype(self.dtype, copy=False)[None, ...], self.n_workers, axis=0
            )
        # Names are fixed and values only ever mutated in place: built once.
        self._state: dict = {**self.params, **self.buffers}

    def state(self) -> dict:
        """The mapping handed to ``bank_forward``: parameter tensors plus the
        live buffer arrays (layers momentum-update them in place), keyed by
        fully-qualified name.  One dict shared by every call: do not mutate."""
        return self._state

    def zero_grad(self) -> None:
        """Mark every gradient stale (the slab itself is kept and reused)."""
        for t in self.params.values():
            t.zero_grad()

    def grad_ranges(self) -> list[tuple[int, int]]:
        """``[lo, hi)`` column ranges of ``grad_slab`` that hold a gradient:
        the segments of the parameters whose ``.grad`` is set, adjacent ones
        merged — ``[(0, P)]`` when every parameter received one.  A ``.grad``
        assigned from outside is copied into its segment first."""
        ranges: list[tuple[int, int]] = []
        for (lo, hi), p in zip(self._segments, self.params.values()):
            if p.grad is None:
                continue
            if p.grad is not p.grad_buffer:
                p.grad_buffer[...] = p.grad
            if ranges and ranges[-1][1] == lo:
                ranges[-1] = (ranges[-1][0], hi)
            else:
                ranges.append((lo, hi))
        return ranges

    # -- flat-vector interop ------------------------------------------------
    def get_stacked_flat(self) -> np.ndarray:
        """All worker states as one ``(m, P)`` array (a copy); row i is the
        flat parameter vector of worker i in ``get_flat_parameters`` layout."""
        return self.slab.copy()

    def set_stacked_flat(self, flat: np.ndarray) -> None:
        """Load an ``(m, P)`` array produced by :meth:`get_stacked_flat`."""
        self.slab[...] = self._checked(flat, self.slab.shape)

    def broadcast_flat(self, flat: np.ndarray) -> None:
        """Overwrite every worker slice with one flat ``(P,)`` vector."""
        self.slab[...] = self._checked(flat, self.slab.shape[1:])

    def worker_flat(self, worker_id: int) -> np.ndarray:
        """Flat copy of one worker's parameter slice."""
        self._check_worker(worker_id)
        return self.slab[worker_id].copy()

    def set_worker_flat(self, worker_id: int, flat: np.ndarray) -> None:
        """Overwrite one worker's slice with a flat vector."""
        self._check_worker(worker_id)
        self.slab[worker_id] = self._checked(flat, self.slab.shape[1:])

    def _checked(self, flat: np.ndarray, shape: tuple) -> np.ndarray:
        flat = np.asarray(flat, dtype=self.dtype)
        if flat.shape != shape:
            raise ValueError(f"flat state has shape {flat.shape}, bank needs {shape}")
        return flat

    # -- buffer interop ------------------------------------------------------
    def worker_buffers(self, worker_id: int) -> "OrderedDict[str, np.ndarray]":
        """Copies of one worker's buffer slices, keyed by qualified name."""
        self._check_worker(worker_id)
        return OrderedDict((name, b[worker_id].copy()) for name, b in self.buffers.items())

    def load_worker_buffers(self, module: Module, worker_id: int) -> None:
        """Materialize one worker's buffer slices into ``module`` (eval scratch)."""
        self._check_worker(worker_id)
        for name, b in self.buffers.items():
            module.set_buffer(name, b[worker_id].copy())

    def _check_worker(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.n_workers:
            raise IndexError(f"worker_id {worker_id} out of range [0, {self.n_workers})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParameterBank(n_workers={self.n_workers}, "
            f"n_parameters={self.n_parameters}, params={len(self.params)}, "
            f"buffers={len(self.buffers)})"
        )
