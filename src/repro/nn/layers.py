"""Neural-network layers built on the autograd Tensor.

The ``Module`` base class provides parameter registration and flat
get/set of the parameter vector, which is what the distributed substrate
needs for model averaging (PASGD averages the *entire* parameter vector
across workers, eq. 3 of the paper).
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.nn import init as init_mod
from repro.nn.losses import bank_cross_entropy
from repro.nn.tensor import Tensor, Workspace, is_grad_enabled, no_grad
from repro.obs.emit import span
from repro.utils.seeding import check_random_state

__all__ = [
    "Module",
    "Classifier",
    "evaluating",
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Dropout",
    "Sequential",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "BatchNorm1d",
    "Residual",
    "clear_kernel_plan_cache",
    "kernel_plan_cache_stats",
]


#: Bumped whenever any module (re)binds a parameter, buffer or sub-module:
#: a ``Module._bank_of_one`` view stays valid while the count stands still.
_rebinds = 0


class Module:
    """Base class for layers and models.

    Subclasses register :class:`Tensor` parameters as attributes; the base
    class discovers them (recursively through sub-modules) for optimization,
    averaging, and serialization.

    Writing a layer: implement :meth:`bank_forward` only.  Take ``x`` with a
    leading worker axis ``(m, B, ...)``, read parameters and buffers from
    ``params[f"{prefix}<name>"]`` (stacked ``(m, *shape)``), and keep every op
    independent across that axis.  A model adds :meth:`bank_loss` returning
    the ``(m,)`` per-worker losses.  :meth:`forward` and :meth:`loss` are
    inherited: the same definition on a bank of one worker.

    Evaluate inside :func:`evaluating`; given a ``Workspace``, don't keep a
    tensor from a workspace forward across the next one.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Tensor]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # -- attribute magic -------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        global _rebinds
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
            _rebinds += 1
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
            _rebinds += 1
        elif name in self.__dict__.get("_buffers", {}):
            # Re-assignment to a registered buffer keeps it registered
            # (``set_buffer`` rebinds the array; see ``_bank_of_one``).
            value = np.asarray(value, dtype=float)
            self.__dict__["_buffers"][name] = value
            _rebinds += 1
        object.__setattr__(self, name, value)

    # -- parameter access -------------------------------------------------
    def parameters(self) -> Iterator[Tensor]:
        """Yield all trainable parameters, depth-first."""
        for p in self._parameters.values():
            yield p
        for mod in self._modules.values():
            yield from mod.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -- buffer access -----------------------------------------------------
    def register_buffer(self, name: str, value) -> None:
        """Register per-replica state that is *not* a trainable parameter.

        Buffers (e.g. batch-norm running statistics) are excluded from the
        flat parameter vector, so model averaging leaves each worker's copy
        local — matching common DDP semantics.  The vectorized worker-bank
        backend stacks them per worker alongside the parameters (see
        :class:`repro.nn.bank.ParameterBank`).
        """
        global _rebinds
        arr = np.asarray(value, dtype=float)
        self.__dict__.setdefault("_buffers", OrderedDict())[name] = arr
        _rebinds += 1
        object.__setattr__(self, name, arr)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b)
        for mod_name, mod in self._modules.items():
            yield from mod.named_buffers(prefix=f"{prefix}{mod_name}.")

    def buffers(self) -> Iterator[np.ndarray]:
        for _, b in self.named_buffers():
            yield b

    def set_buffer(self, name: str, value) -> None:
        """Assign a buffer by fully-qualified dotted name (see ``named_buffers``)."""
        *path, leaf = name.split(".")
        mod: Module = self
        for part in path:
            try:
                mod = mod._modules[part]
            except KeyError:
                raise KeyError(f"no submodule {part!r} on the path to buffer {name!r}") from None
        if leaf not in mod._buffers:
            raise KeyError(f"module {type(mod).__name__} has no buffer {leaf!r}")
        setattr(mod, leaf, value)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- flat parameter vector (used by model averaging) --------------------
    def get_flat_parameters(self) -> np.ndarray:
        """Concatenate every parameter into one flat float vector (a copy)."""
        parts = [p.data.ravel() for p in self.parameters()]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        """Load a flat vector produced by :meth:`get_flat_parameters` in place."""
        flat = np.asarray(flat, dtype=float)
        expected = self.num_parameters()
        if flat.size != expected:
            raise ValueError(f"flat vector has {flat.size} entries, model needs {expected}")
        offset = 0
        for p in self.parameters():
            n = p.size
            p.data[...] = flat[offset : offset + n].reshape(p.shape)
            offset += n

    def get_flat_gradients(self) -> np.ndarray:
        """Concatenate parameter gradients (zeros where a gradient is unset)."""
        parts = []
        for p in self.parameters():
            if p.grad is None:
                parts.append(np.zeros(p.size))
            else:
                parts.append(p.grad.ravel())
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    # -- state dict -----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            value = np.asarray(state[name])
            if value.shape != p.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {p.shape}")
            p.data[...] = value

    # -- one replica: the stacked definition on a bank of one worker ------------
    def forward(self, x: Tensor) -> Tensor:
        """One replica's forward pass: :meth:`bank_forward` at m = 1."""
        out = self.bank_forward(x.reshape(1, *x.shape), self._bank_of_one())
        return out.reshape(out.shape[1:])

    def loss(self, x=None, y=None) -> Tensor:
        """One replica's scalar batch loss: :meth:`bank_loss` at m = 1.

        Data-free objectives take no batch (``x`` and ``y`` stay ``None``).
        """
        if x is not None:
            x = x.reshape(1, *x.shape) if isinstance(x, Tensor) else np.asarray(x)[None]
            y = np.asarray(y)[None]
        return self.bank_loss(x, y, self._bank_of_one()).reshape(())

    def __call__(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.forward(x)

    def _bank_of_one(self) -> dict:
        """This module's own parameters and buffers as a bank of one worker.

        ``ParameterBank.state()`` layout.  A parameter is a ``(1, *shape)``
        reshape node over the parameter itself, so gradients land on the
        replica's own tensors; a buffer is a ``buf[None]`` view, so in-place
        updates (batch-norm running stats) write through.  Built once, and
        again only after some module rebound a parameter, buffer or
        sub-module (``set_buffer``): an O(1) check of ``_rebinds``.
        """
        cached = self.__dict__.get("_bank1")
        if cached is None or cached[0] != _rebinds:
            state: dict = {}
            for name, p in self.named_parameters():
                # Built by hand, not with ``p.reshape``: the node must stay
                # differentiable even when first needed under ``no_grad``.
                view = Tensor(p.data.reshape(1, *p.shape), requires_grad=True, name=name)
                view._parents = (p,)
                view._backward = lambda g, shape=p.shape: (g.reshape(shape),)
                state[name] = view
            for name, b in self.named_buffers():
                state[name] = b[None]
            cached = self.__dict__["_bank1"] = (_rebinds, state)
        return cached[1]

    def __getstate__(self) -> dict:
        # The bank-of-one views alias this module's arrays; a pickled or
        # deep-copied module must rebuild them over its own.
        state = self.__dict__.copy()
        state.pop("_bank1", None)
        return state

    # -- param-bank forward (vectorized worker-bank backend) -------------------
    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        """Run this module's computation for all m workers at once.

        ``x`` carries a leading worker axis — ``(m, B, ...)`` — and ``params``
        maps fully-qualified parameter names (as in :meth:`named_parameters`)
        to tensors stacked along the same axis, ``(m, *shape)``.  ``prefix``
        is this module's name prefix inside ``params``.  This is a layer's one
        definition; the base implementation marks a module that only wrote
        ``forward`` as loop-only (see :meth:`supports_bank`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the param-bank forward path"
        )

    def bank_loss(self, x, y, params) -> Tensor:
        """Per-worker losses ``(m,)`` of stacked batches under stacked params.

        Entry i must depend on worker i's batch and parameter slice only, so
        that ``bank_loss(...).sum().backward()`` deposits every worker's own
        batch gradient into its slice of the parameter bank.  This is a
        model's one loss definition, written alongside :meth:`bank_forward`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement a param-bank loss"
        )

    def supports_bank(self) -> bool:
        """Whether this module tree can run the stacked param-bank forward."""
        if type(self).bank_forward is Module.bank_forward:
            return False
        return all(mod.supports_bank() for mod in self._modules.values())

    # -- per-worker RNG streams (vectorized worker-bank backend) ---------------
    def stream_modules(self) -> Iterator["Module"]:
        """Depth-first modules that consume a private RNG stream while training.

        On the loop backend each of the m replicas owns its own stream (e.g.
        a ``Dropout`` layer's mask generator).  The worker-bank backend runs
        one template module for all m workers, so it pairs every stream
        module here with the m per-worker streams a loop run would have built
        (see :func:`repro.nn.bank.attach_bank_streams`) — that is what keeps
        seeded trajectories byte-identical across backends.
        """
        if self._consumes_stream():
            yield self
        for mod in self._modules.values():
            yield from mod.stream_modules()

    def _consumes_stream(self) -> bool:
        """Whether *this* module draws from an RNG during a training forward."""
        return False

    def _worker_streams(self, m: int, what: str = "RNG") -> list:
        """A stream module's m per-worker generators (``_bank_rngs``); a lone
        replica (m = 1, nothing attached) draws from its own ``_rng``."""
        rngs = self._bank_rngs
        if rngs is not None and len(rngs) == m:
            return rngs
        if m == 1:
            return [self._rng]
        raise RuntimeError(
            f"{type(self).__name__} needs one {what} stream per worker; the "
            f"worker-bank backend attaches them at construction (see "
            f"repro.nn.bank.attach_bank_streams)"
        )

    @staticmethod
    def _as_bank_input(x) -> Tensor:
        """Coerce a stacked batch to a ``(m, B, F)`` tensor (models' prelude)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim > 3:
            x = x.reshape(x.shape[0], x.shape[1], -1)
        return x


class Classifier(Module):
    """A model whose loss is the cross-entropy of its ``bank_forward`` logits.

    The one ``bank_loss`` of every classifier in the zoo.  Its loss and its
    accuracy are functions of the logits alone, and a logit row depends on
    its own input row only, so the synchronized model's evaluation may
    forward a classifier's data in row blocks
    (:meth:`~repro.distributed.cluster.SimulatedCluster.evaluate_synchronized`).
    """

    def bank_loss(self, x, y, params) -> Tensor:
        return bank_cross_entropy(self.bank_forward(x, params), y)


@contextlib.contextmanager
def evaluating(model: Module, workspace: "Workspace | None" = None):
    """Eval mode and ``no_grad(workspace)`` for the block; restores the training flag."""
    was_training = model.training
    model.eval()
    try:
        with no_grad(workspace=workspace):
            yield
    finally:
        model.train(was_training)


class Linear(Module):
    """Fully connected layer ``y = x W + b`` with weight of shape (in, out)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be positive")
        gen = check_random_state(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(init_mod.kaiming_uniform((in_features, out_features), gen), requires_grad=True)
        if bias:
            self.bias = Tensor(init_mod.zeros((out_features,)), requires_grad=True)
        else:
            self.bias = None

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        # (m, B, in) @ (m, in, out) — matmul broadcasts over the worker axis,
        # so one call runs every replica's affine map.
        weight = params[f"{prefix}weight"]
        if self.bias is None:
            return x @ weight
        bias = params[f"{prefix}bias"]  # (m, out)
        return x.affine(weight, bias.reshape(bias.shape[0], 1, bias.shape[1]))


class ReLU(Module):
    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x.relu()


class Tanh(Module):
    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x.sigmoid()


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x.reshape(x.shape[0], x.shape[1], -1)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = check_random_state(rng)
        #: Per-worker mask streams for the bank path; worker i's generator
        #: must sit exactly where loop replica i's ``_rng`` would (wired by
        #: ``repro.nn.bank.attach_bank_streams`` at backend construction).
        self._bank_rngs: "list | None" = None

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        rngs = self._worker_streams(x.shape[0])
        # One draw of shape (B, ...) per worker stream — each generator is
        # consumed exactly as its loop replica's would be, so a seeded run
        # produces byte-identical masks (and stream positions) on either
        # backend.  Only the draws loop over m; the masking is one op.
        per_worker = x.shape[1:]
        keep = np.stack([rng.random(per_worker) for rng in rngs]) >= self.p
        # Build the mask in the activation dtype so the float32 bank mode
        # stays float32 end to end; in float64 this is the exact bool/float
        # promotion NumPy would apply anyway (byte-identical to the loop).
        mask = keep.astype(x.data.dtype) / x.data.dtype.type(1.0 - self.p)
        return x * Tensor(mask)

    def _consumes_stream(self) -> bool:
        return self.p > 0.0


def _bank_apply(mod: Module, x: Tensor, params, prefix: str) -> Tensor:
    """``mod.bank_forward`` for a child handed to a built-in container.

    A third-party child that only wrote ``forward`` still runs on a bank of
    one worker — every loop-backend replica — through that ``forward`` on
    the lone slice; ``supports_bank`` keeps such a tree off the banks.
    """
    if x.shape[0] == 1 and type(mod).bank_forward is Module.bank_forward:
        out = mod.forward(x.reshape(x.shape[1:]))
        return out.reshape(1, *out.shape)
    return mod.bank_forward(x, params, prefix)


class Sequential(Module):
    """Chain of sub-modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, mod in enumerate(modules):
            setattr(self, f"layer{i}", mod)

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        for name, mod in self._modules.items():
            x = _bank_apply(mod, x, params, f"{prefix}{name}.")
        return x

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]


class _ConvPlan:
    """Cached flat index maps for one ``(c, h, w, kh, kw, stride, pad)``.

    ``h`` and ``w`` are the *unpadded* input size.  Both maps index within one
    sample, so a plan serves every batch size and every sample block.  Zero
    padding is folded into them through a sentinel: a position that falls in
    the border reads one extra slot that holds ``+0.0``.

    Byte-compatibility contract (load-bearing for the golden fixtures and the
    loop↔vectorized↔sharded equivalence matrix):

    * ``gather`` reproduces exactly the historical patch layout
      ``(oh, ow, c, kh, kw)`` of the zero-padded input, so the GEMM inputs —
      hence outputs — are bit-identical to padding first.
    * ``col2im`` is the historical scatter read from the destination's side:
      an element of the unpadded input receives at most one contribution per
      kernel offset ``(i, j)``, and they are added in ascending ``(i, j)``
      order onto ``+0.0`` — the add order of the slice-add loop this
      replaced.  Offsets with no contribution add the ``+0.0`` sentinel,
      which cannot change a sum that started at ``+0.0`` (it is never
      ``-0.0``); contributions to the padded border are never read.
    """

    __slots__ = ("c", "h", "w", "kh", "kw", "stride", "pad", "out_h", "out_w", "gather", "_back")

    def __init__(self, c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int):
        self.c, self.h, self.w = c, h, w
        self.kh, self.kw, self.stride, self.pad = kh, kw, stride, pad
        self.out_h = (h + 2 * pad - kh) // stride + 1
        self.out_w = (w + 2 * pad - kw) // stride + 1

        ci = np.arange(c, dtype=np.intp)[None, None, :, None, None]
        rows = np.arange(self.out_h, dtype=np.intp)[:, None] * stride + np.arange(kh, dtype=np.intp) - pad
        cols = np.arange(self.out_w, dtype=np.intp)[:, None] * stride + np.arange(kw, dtype=np.intp) - pad
        rows, cols = rows[:, None, None, :, None], cols[None, :, None, None, :]
        inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
        #: gather[(oi, oj), (ci, i, j)] -> flat position in a (c·h·w + 1)
        #: sample whose last slot is the sentinel.
        self.gather = np.where(inside, ci * (h * w) + rows * w + cols, c * h * w).reshape(-1)
        self._back = None

    @property
    def back(self) -> np.ndarray:
        """``back[(i, j), (ci, y, x)]`` -> flat position of that offset's
        contribution in a sample's ``(oh·ow, c·kh·kw + 1)`` column gradients
        (last column: the sentinel).  Built on first use: a plan that only
        ever evaluates never needs it."""
        if self._back is None:
            c, h, w, kh, kw, s = self.c, self.h, self.w, self.kh, self.kw, self.stride
            ci = np.arange(c, dtype=np.intp)[:, None, None]
            y = np.arange(h, dtype=np.intp)[None, :, None] + self.pad
            x = np.arange(w, dtype=np.intp)[None, None, :] + self.pad
            row = c * kh * kw + 1
            back = np.empty((kh * kw, c * h * w), dtype=np.intp)
            for q in range(kh * kw):
                i, j = divmod(q, kw)
                oi, oj = (y - i) // s, (x - j) // s
                hit = ((y - i) % s == 0) & (oi >= 0) & (oi < self.out_h) \
                    & ((x - j) % s == 0) & (oj >= 0) & (oj < self.out_w)
                src = (oi * self.out_w + oj) * row + ci * (kh * kw) + q
                back[q] = np.where(hit, src, row - 1).ravel()
            self._back = back
        return self._back

    def im2col(self, x: np.ndarray) -> np.ndarray:
        """Gather ``(..., c·h·w)`` samples to ``(..., oh·ow·c·kh·kw)`` patches."""
        if self.pad:
            src = np.empty((*x.shape[:-1], x.shape[-1] + 1), dtype=x.dtype)
            src[..., :-1] = x
            src[..., -1] = 0.0
            x = src
        return x.take(self.gather, axis=-1)

    def col2im(self, dcols: np.ndarray) -> np.ndarray:
        """Sum ``(n, oh·ow·(c·kh·kw + 1))`` column gradients, sentinel column
        ``+0.0``, back to ``(n, c·h·w)`` input gradients."""
        back = self.back
        dx = dcols.take(back[0], axis=1)
        dx += 0.0  # the sum starts at +0.0: a lone -0.0 contribution becomes +0.0
        part = np.empty_like(dx)
        for q in range(1, len(back)):
            # mode="clip" only skips take's defensive copy of ``out``.
            np.take(dcols, back[q], axis=1, out=part, mode="clip")
            dx += part
        return dx


#: Conv plans keyed by ``(c, h, w, kh, kw, stride, pad)`` and pool plans keyed
#: by ``(c, h, w, k, stride)`` — per sample, so batch size never enters a key.
#: Bounded FIFO caches: a handful of geometries per model; evict the oldest
#: entry past the cap instead of growing without bound.  Chunk threads share
#: them, so every look-up, eviction and counter update holds the lock.
_CONV_PLANS: dict[tuple, _ConvPlan] = {}
_POOL_PLANS: dict[tuple, tuple] = {}
_PLAN_CACHE_CAP = 128
_plan_cache_hits = 0
_plan_cache_misses = 0
_plan_lock = threading.Lock()

#: Bytes of im2col columns a grad-free convolution gathers per GEMM: half of
#: a 4 MiB L2.  Interleaved medians of a 2400-row ``vgg_lite_cnn`` loss:
#: 128 KiB 66 ms, 512 KiB 56, 1 MiB 54, 2 and 4 MiB 50, 8 MiB 52, one block 85.
_CONV_BLOCK_BYTES = 2 << 20


def _cached_plan(cache: dict, key: tuple, build):
    global _plan_cache_hits, _plan_cache_misses
    with _plan_lock:
        plan = cache.get(key)
        if plan is None:
            _plan_cache_misses += 1
            if len(cache) >= _PLAN_CACHE_CAP:
                cache.pop(next(iter(cache)))
            plan = cache[key] = build(*key)
        else:
            _plan_cache_hits += 1
        return plan


def _conv_plan(c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> _ConvPlan:
    return _cached_plan(_CONV_PLANS, (c, h, w, kh, kw, stride, pad), _ConvPlan)


def _build_pool_plan(c: int, h: int, w: int, k: int, s: int) -> tuple:
    out_h, out_w = (h - k) // s + 1, (w - k) // s + 1
    ci = np.arange(c, dtype=np.intp)[:, None, None]
    oi = np.arange(out_h, dtype=np.intp)[None, :, None]
    oj = np.arange(out_w, dtype=np.intp)[None, None, :]
    origin = ((ci * h + s * oi) * w + s * oj).ravel()
    t = np.arange(k * k, dtype=np.intp)
    windows = origin + ((t // k) * w + t % k)[:, None]
    inverse = None
    if s == k and h == out_h * k and w == out_w * k:
        # Exactly tiling windows visit every input element once.
        inverse = np.empty(c * h * w, dtype=np.intp)
        inverse[windows.ravel()] = np.arange(windows.size, dtype=np.intp)
    return windows, inverse


def _pool_plan(c: int, h: int, w: int, k: int, s: int) -> tuple:
    """Cached ``(windows, inverse)`` of one pooling geometry, per sample.

    ``windows[t, (ci, oi, oj)]`` is the flat position of window element ``t``
    (row-major in the window) in a ``(c·h·w)`` sample.  For exactly tiling
    windows ``inverse`` is the permutation back — ``inverse[windows[t, l]]``
    is ``t·L + l`` — else ``None``.
    """
    return _cached_plan(_POOL_PLANS, (c, h, w, k, s), _build_pool_plan)


def clear_kernel_plan_cache() -> None:
    """Drop all cached conv/pool index plans (test hook; safe at any time)."""
    global _plan_cache_hits, _plan_cache_misses
    with _plan_lock:
        _CONV_PLANS.clear()
        _POOL_PLANS.clear()
        _plan_cache_hits = 0
        _plan_cache_misses = 0


def kernel_plan_cache_stats() -> dict[str, int]:
    """Sizes and hit/miss counters of the kernel plan caches."""
    return {
        "conv_plans": len(_CONV_PLANS),
        "pool_plans": len(_POOL_PLANS),
        "hits": _plan_cache_hits,
        "misses": _plan_cache_misses,
    }


class Conv2d(Module):
    """2-D convolution (NCHW) implemented with im2col + matmul.

    Small by design; intended for the "resnet-lite"/"vgg-lite" models trained
    on the synthetic CIFAR substitute.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        gen = check_random_state(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(
            init_mod.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), gen),
            requires_grad=True,
        )
        if bias:
            self.bias = Tensor(init_mod.zeros((out_channels,)), requires_grad=True)
        else:
            self.bias = None

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        """All m workers' convolutions in one batched matmul.

        The worker axis is folded into the batch axis for the im2col patch
        extraction — one gather over ``(m·B, c·h·w)`` — and only the weights
        stay per-worker: ``(m, B·oh·ow, c·kh·kw) @ (m, c·kh·kw, out_c)``.
        NumPy's stacked matmul runs the identical per-slice GEMM a loop
        replica would, so the outputs (and gradients) are byte-identical to m
        single-replica convolutions.

        With no tape to record, gather → GEMM → NCHW write runs in sample
        blocks of ``_CONV_BLOCK_BYTES`` of columns, so an evaluation never
        holds a whole dataset's column matrix.  A GEMM row is a function of
        its own row of columns alone, so the blocks' outputs are the bytes of
        the one big GEMM.  The backward needs every column at once (the
        weight gradient sums over rows): a recorded forward is one block.
        """
        if x.ndim != 5:
            raise ValueError(f"Conv2d bank_forward expects (m, B, C, H, W) input, got shape {x.shape}")
        weight = params[f"{prefix}weight"]
        bias = params[f"{prefix}bias"] if self.bias is not None else None
        parents = (x, weight) if bias is None else (x, weight, bias)

        kh = kw = self.kernel_size
        out_c = self.out_channels
        x_data = x.data
        m, b, c, h, w = x_data.shape
        if max(kh - h, kw - w) > 2 * self.padding:
            raise ValueError(
                f"Conv2d kernel {kh}x{kw} exceeds its {h}x{w} input padded by {self.padding}"
            )
        with span("conv2d.bank_forward"):
            plan = _conv_plan(c, h, w, kh, kw, self.stride, self.padding)
            out_h, out_w, row = plan.out_h, plan.out_w, c * kh * kw
            w_mat = weight.data.reshape(m, out_c, row).transpose(0, 2, 1)
            out_data = np.empty((m, b, out_c, out_h, out_w), dtype=np.result_type(x_data.dtype, w_mat.dtype))
            step = b
            if not (is_grad_enabled() and any(p.requires_grad for p in parents)):
                step = max(1, _CONV_BLOCK_BYTES // (m * out_h * out_w * row * x_data.itemsize))
            x_flat = x_data.reshape(m, b, c * h * w)
            gathering = span("im2col")  # one activation, however many blocks
            for start in range(0, b, step):
                with gathering:
                    cols = plan.im2col(x_flat[:, start : start + step])
                cols3 = cols.reshape(m, -1, row)
                out_cols = (cols3 @ w_mat).reshape(m, -1, out_h, out_w, out_c)
                # Written C-contiguous NCHW: a transposed view would leak its
                # layout through every downstream ufunc (ReLU, pooling).
                block = out_data[:, start : start + step]
                if bias is None:
                    block[...] = out_cols.transpose(0, 1, 4, 2, 3)
                else:
                    np.add(out_cols.transpose(0, 1, 4, 2, 3), bias.data.reshape(m, 1, -1, 1, 1), out=block)

        def backward(g):
            # g: (m, B, out_c, oh, ow); ``cols3`` is the single recorded block.
            with span("conv2d.bank_backward"):
                g_cols = g.transpose(0, 1, 3, 4, 2).reshape(m, b * out_h * out_w, out_c)
                # A transposed view of the fresh GEMM result: the engine's one
                # copy puts it where the gradient lives.
                dw = (cols3.transpose(0, 2, 1) @ g_cols).reshape(m, c, kh, kw, out_c).transpose(0, 4, 1, 2, 3)
                if x.requires_grad:
                    # The GEMM writes beside a zero column: col2im's sentinel.
                    dcols = np.empty((m, b * out_h * out_w, row + 1), dtype=np.result_type(g_cols.dtype, w_mat.dtype))
                    dcols[:, :, row] = 0.0
                    np.matmul(g_cols, w_mat.transpose(0, 2, 1), out=dcols[:, :, :row])
                    with span("col2im"):
                        dx = plan.col2im(dcols.reshape(m * b, -1)).reshape(x_data.shape)
                else:
                    # First-layer input: the gather (and its GEMM) would be
                    # discarded by the engine, so don't compute it.
                    dx = None
                if bias is None:
                    return (dx, dw)
                db = g.sum(axis=(1, 3, 4))
                return (dx, dw, db)

        return x._make(out_data, parents, backward)


class _Pool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be positive")
        if stride is not None and stride < 1:
            raise ValueError(f"pooling stride must be >= 1, got {stride}")
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def _forward_arrays(self, x_data: np.ndarray):  # pragma: no cover - abstract
        """Array-level pool: return ``(out_data, backward)`` for NCHW input."""
        raise NotImplementedError

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        # Pooling has no parameters, so the worker axis simply folds into the
        # batch axis and the single-replica window arithmetic runs unchanged
        # (byte-identical per slice).  The fold happens at the ndarray level —
        # one graph node instead of reshape→pool→reshape — so the bank path
        # spends nothing on extra autograd bookkeeping.
        if x.ndim != 5:
            raise ValueError(f"pooling bank_forward expects (m, B, C, H, W) input, got shape {x.shape}")
        x_data = x.data
        m, b, _, h, w = x_data.shape
        if self.kernel_size > min(h, w):
            raise ValueError(
                f"{type(self).__name__} window {self.kernel_size}x{self.kernel_size} "
                f"exceeds its {h}x{w} input"
            )
        with span("pool.bank_forward"):
            out4, array_backward = self._forward_arrays(x_data.reshape(m * b, *x_data.shape[2:]))
        out_data = out4.reshape(m, b, *out4.shape[1:])

        def backward(g):
            with span("pool.bank_backward"):
                dx4 = array_backward(g.reshape(m * b, *g.shape[2:]))
                return (dx4.reshape(x_data.shape),)

        return x._make(out_data, (x,), backward)


class MaxPool2d(_Pool2d):
    """Max pooling over non-overlapping (or strided) windows of an NCHW tensor."""

    def _forward_arrays(self, x_data: np.ndarray):
        k, s = self.kernel_size, self.stride
        n, c, h, w = x_data.shape
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        windows, inverse = _pool_plan(c, h, w, k, s)
        tiled = inverse is not None
        if tiled:
            # Exactly tiling windows, gathered once to a planar (n, k², L)
            # array: every pass below runs over long contiguous slices — the
            # same element set per window as the strided view.
            planar = x_data.reshape(n, c * h * w).take(windows.ravel(), axis=1).reshape(n, k * k, -1)
            views = [planar[:, t] for t in range(k * k)]
        else:
            shape = (n, c, out_h, out_w, k, k)
            strides = (
                x_data.strides[0],
                x_data.strides[1],
                x_data.strides[2] * s,
                x_data.strides[3] * s,
                x_data.strides[2],
                x_data.strides[3],
            )
            strided = np.lib.stride_tricks.as_strided(x_data, shape=shape, strides=strides)
            views = [strided[:, :, :, :, i, j] for i in range(k) for j in range(k)]
        # Sequential pairwise maximum over the k² window offsets, ascending
        # (i, j) — max is associativity-free, so this equals the multi-axis
        # reduce bit-for-bit while running one contiguous-output ufunc per
        # offset instead of a strided multi-axis reduction.
        if len(views) == 1:
            peak = views[0].copy()
        else:
            peak = np.maximum(views[0], views[1])
            for v in views[2:]:
                np.maximum(peak, v, out=peak)

        def backward_tiled(g):
            # The gradient goes to each window's first maximum in row-major
            # order — ``argmax``'s tie rule, and in a window holding NaN (whose
            # max is NaN and equals nothing) its "first NaN".  Routed planar,
            # then one inverse-permutation gather back to NCHW.
            g = g.reshape(n, -1).astype(x_data.dtype, copy=False)
            firsts = np.empty(planar.shape, dtype=bool)
            nan_peak = np.isnan(peak)
            if not nan_peak.any():
                nan_peak = None
            for t, v in enumerate(views):
                first = np.equal(v, peak, out=firsts[:, t])
                if nan_peak is not None:
                    first |= nan_peak & np.isnan(v)
                if t == 0:
                    claimed = first.copy()
                else:
                    np.greater(first, claimed, out=first)  # ... and not yet claimed
                    claimed |= first
            # ``where(firsts, g, +0.0)`` on the bit patterns: times one keeps
            # every bit of g, times zero is +0.0, and no branch on a mask the
            # data decides (np.where mispredicts its way to 4x this).
            bits = g.view(f"i{g.itemsize}")[:, None, :]
            routed = np.multiply(firsts, bits).view(g.dtype)
            return routed.reshape(n, -1).take(inverse, axis=1).reshape(n, c, h, w)

        def backward_strided(g):
            argmax = strided.reshape(n, c, out_h, out_w, k * k).argmax(axis=4).reshape(n, -1)
            # Flat destination of every window's argmax: the sample's offset
            # plus the plan's per-sample position of that window element.
            # Scatter into an explicitly flat buffer: the pooling input is
            # often a non-C-contiguous view, where reshaping zeros_like(...)
            # would silently copy and drop the scattered writes.
            idx = windows[argmax, np.arange(windows.shape[1])]
            idx += np.arange(n, dtype=np.intp)[:, None] * (c * h * w)
            dxr = np.zeros(n * c * h * w, dtype=x_data.dtype)
            if s >= k:
                # Non-overlapping windows: one argmax per window, destinations
                # unique — a plain write equals the accumulate bit-for-bit.
                dxr[idx.reshape(-1)] = g.reshape(-1)
            else:
                # Overlapping windows can collide; add.at iterates the index
                # array row-major over (n, c, oh, ow) — the same accumulation
                # order as the historical meshgrid scatter, so sums keep the
                # exact bytes.
                np.add.at(dxr, idx.reshape(-1), g.reshape(-1))
            return dxr.reshape(n, c, h, w)

        return peak.reshape(n, c, out_h, out_w), backward_tiled if tiled else backward_strided


class AvgPool2d(_Pool2d):
    """Average pooling over windows of an NCHW tensor."""

    def _forward_arrays(self, x_data: np.ndarray):
        k, s = self.kernel_size, self.stride
        n, c, h, w = x_data.shape
        out_h = (h - k) // s + 1
        out_w = (w - k) // s + 1
        shape = (n, c, out_h, out_w, k, k)
        strides = (
            x_data.strides[0],
            x_data.strides[1],
            x_data.strides[2] * s,
            x_data.strides[3] * s,
            x_data.strides[2],
            x_data.strides[3],
        )
        windows = np.lib.stride_tricks.as_strided(x_data, shape=shape, strides=strides)
        out_data = windows.mean(axis=(4, 5))

        def backward(g):
            dx = np.zeros_like(x_data)
            scale = 1.0 / (k * k)
            g_scaled = g * scale
            for i in range(k):
                for j in range(k):
                    dx[:, :, i : i + s * out_h : s, j : j + s * out_w : s] += g_scaled
            return dx

        return out_data, backward


class BatchNorm1d(Module):
    """Batch normalization over the feature dimension of (N, F) inputs.

    Running statistics are tracked for eval mode.  Note that running stats
    are *buffers*, not parameters, so PASGD model averaging (which averages
    the flat parameter vector) averages γ/β but leaves each worker's running
    stats local — matching common DDP semantics.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Tensor(np.ones(num_features), requires_grad=True)
        self.bias = Tensor(np.zeros(num_features), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        """Normalize all m workers' batches under per-worker γ/β and stats.

        ``params`` must be a param+buffer mapping (``ParameterBank.state()``):
        the ``(m, F)`` running-stat buffers are read — and, in training mode,
        momentum-updated in place — per worker, exactly as m loop replicas
        would update their local copies.
        """
        if x.ndim != 3:
            raise ValueError("BatchNorm1d bank_forward expects (m, B, F) input")
        weight = params[f"{prefix}weight"]
        bias = params[f"{prefix}bias"]
        try:
            running_mean = params[f"{prefix}running_mean"]
            running_var = params[f"{prefix}running_var"]
        except KeyError:
            raise KeyError(
                "BatchNorm1d bank_forward needs the stacked running-stat buffers; "
                "pass ParameterBank.state() (params + buffers), not .params alone"
            ) from None
        m = x.shape[0]
        if self.training:
            mean = x.mean(axis=1, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=1, keepdims=True)
            running_mean[...] = (
                (1 - self.momentum) * running_mean + self.momentum * mean.data.reshape(m, -1)
            )
            running_var[...] = (
                (1 - self.momentum) * running_var + self.momentum * var.data.reshape(m, -1)
            )
            x_hat = centered / (var + self.eps).sqrt()
        else:
            x_hat = (x - Tensor(running_mean[:, None, :])) / Tensor(
                np.sqrt(running_var[:, None, :] + self.eps)
            )
        w = weight.reshape(m, 1, self.num_features)
        b = bias.reshape(m, 1, self.num_features)
        return x_hat * w + b


class Residual(Module):
    """Residual wrapper: ``y = x + inner(x)`` (the resnet-lite building block)."""

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner

    def bank_forward(self, x: Tensor, params, prefix: str = "") -> Tensor:
        return x + _bank_apply(self.inner, x, params, f"{prefix}inner.")
