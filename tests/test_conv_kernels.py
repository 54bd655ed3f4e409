"""The conv/pool index-map kernels against the kernels they replaced.

``Conv2d``'s input gradient is a crop-aware gather, tiled ``MaxPool2d``
routes its gradient without ``argmax``, and a grad-free convolution runs in
sample blocks.  Each must produce the bytes of the code it replaced — the
padded scatter-then-crop ``col2im``, the ``argmax`` scatter, the one big
GEMM — which live on here as test-local references, down to whole-model
gradients and the allocation budget the rewrite was for.
"""

from __future__ import annotations

import copy
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.cnn import SmallCNN, vgg_lite_cnn
from repro.nn import layers
from repro.nn.bank import ParameterBank
from repro.nn.layers import Conv2d, MaxPool2d, clear_kernel_plan_cache, evaluating, kernel_plan_cache_stats
from repro.nn.tensor import Tensor
from repro.obs.profile import Profiler

from tests.test_perf_overhaul import GEOMETRIES, _col2im

DTYPES = [np.float64, np.float32]


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray, what: str = "") -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, what
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes(), what


# -- the replaced kernels, kept as references -----------------------------------


def reference_im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """``(n, c, h, w)`` -> ``(n·oh·ow, c·kh·kw)`` patches, layout (oh, ow, c, kh, kw)."""
    n, c, h, w = x.shape
    out_h, out_w = (h - kh) // stride + 1, (w - kw) // stride + 1
    cols = np.empty((n, out_h, out_w, c, kh, kw), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, :, i, j] = x[
                :, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride
            ].transpose(0, 2, 3, 1)
    return cols.reshape(n * out_h * out_w, c * kh * kw)


def reference_col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Scatter into the zero-padded input, one pass per kernel offset in
    ascending ``(i, j)`` order, then crop the border away."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h, out_w = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    dx = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += patches[:, :, i, j]
    return dx[:, :, pad : hp - pad, pad : wp - pad]


class ReferenceConv2d(Conv2d):
    """``Conv2d`` as it was: pad, one im2col, one GEMM, scatter-then-crop."""

    def bank_forward(self, x, params, prefix=""):
        weight = params[f"{prefix}weight"]
        bias = params[f"{prefix}bias"] if self.bias is not None else None
        kh = kw = self.kernel_size
        stride, pad = self.stride, self.padding
        x_data = np.pad(x.data, ((0, 0), (0, 0), (0, 0), (pad, pad), (pad, pad)))
        m, b, c, h, w = x_data.shape
        out_h, out_w = (h - kh) // stride + 1, (w - kw) // stride + 1
        cols3 = reference_im2col(x_data.reshape(m * b, c, h, w), kh, kw, stride).reshape(m, b * out_h * out_w, -1)
        w_mat = weight.data.reshape(m, self.out_channels, -1).transpose(0, 2, 1)
        out_cols = cols3 @ w_mat
        out_data = np.ascontiguousarray(
            out_cols.reshape(m, b, out_h, out_w, self.out_channels).transpose(0, 1, 4, 2, 3)
        )
        if bias is not None:
            out_data += bias.data.reshape(m, 1, -1, 1, 1)

        def backward(g):
            g_cols = g.transpose(0, 1, 3, 4, 2).reshape(m, b * out_h * out_w, self.out_channels)
            dw = (cols3.transpose(0, 2, 1) @ g_cols).transpose(0, 2, 1).reshape(weight.shape)
            dx = None
            if x.requires_grad:
                dcols = g_cols @ w_mat.transpose(0, 2, 1)
                dx = reference_col2im(
                    dcols.reshape(-1, c * kh * kw), (m * b, c, h - 2 * pad, w - 2 * pad), kh, kw, stride, pad
                ).reshape(x.shape)
            if bias is None:
                return (dx, dw)
            return (dx, dw, g.sum(axis=(1, 3, 4)))

        parents = (x, weight) if bias is None else (x, weight, bias)
        return x._make(out_data, parents, backward)


def reference_maxpool(x: np.ndarray, k: int):
    """Exactly tiling max pool: the pairwise maximum over strided window
    views and the ``argmax`` scatter."""
    n, c, h, w = x.shape
    out_h, out_w = h // k, w // k
    blocks = x.reshape(n, c, out_h, k, out_w, k)
    views = [blocks[:, :, :, i, :, j] for i in range(k) for j in range(k)]
    out = views[0].copy()
    for v in views[1:]:
        out = np.maximum(out, v)

    def backward(g):
        argmax = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, out_h, out_w, k * k).argmax(axis=4)
        ni, ci, oi, oj = np.ogrid[:n, :c, :out_h, :out_w]
        dx = np.zeros_like(x)
        dx[ni, ci, oi * k + argmax // k, oj * k + argmax % k] = g
        return dx

    return out, backward


class ReferenceMaxPool2d(MaxPool2d):
    def _forward_arrays(self, x_data):
        assert self.stride == self.kernel_size
        return reference_maxpool(x_data, self.kernel_size)


def as_reference(model):
    """A deep copy of ``model`` running the replaced conv/pool kernels."""
    ref = copy.deepcopy(model)
    stack = [ref]
    while stack:
        mod = stack.pop()
        if type(mod) is Conv2d:
            mod.__class__ = ReferenceConv2d
        elif type(mod) is MaxPool2d:
            mod.__class__ = ReferenceMaxPool2d
        stack.extend(mod._modules.values())
    return ref


# -- (a) gather col2im == scatter-then-crop --------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("shape,k", [(shape, k) for shape, k, _ in GEOMETRIES])
def test_gather_col2im_equals_scatter_then_crop(shape, k, stride, pad, m, dtype):
    b, c, h, w = shape
    n = m * b
    out_h, out_w = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    rng = np.random.default_rng([*shape, k, stride, pad, m])
    dcols = rng.normal(size=(n * out_h * out_w, c * k * k)).astype(dtype)
    # Values whose sum depends on how it started and in which order it ran.
    flat = dcols.reshape(-1)
    flat[rng.integers(0, flat.size, size=flat.size // 5)] = -0.0
    flat[rng.integers(0, flat.size, size=max(1, flat.size // 50))] = np.inf
    dcols[:, rng.integers(0, dcols.shape[1])] = 0.0
    dcols[:, rng.integers(0, dcols.shape[1])] = -0.0
    expected = reference_col2im(dcols, (n, c, h, w), k, k, stride, pad)
    assert_same_bytes(_col2im(dcols, (n, c, h, w), k, k, stride, pad), expected)


def test_lone_negative_zero_contribution_becomes_positive_zero():
    # 1x1 kernel: every input element has exactly one contribution, and the
    # scatter added it onto +0.0.
    dcols = np.full((2 * 3 * 3, 4), -0.0)
    dx = _col2im(dcols, (2, 4, 3, 3), 1, 1, 1)
    assert not np.signbit(dx).any()
    assert_same_bytes(dx, reference_col2im(dcols, (2, 4, 3, 3), 1, 1, 1, 0))


# -- (b) first-max pooling backward == argmax ------------------------------------


def _pool_both_ways(x4: np.ndarray, g4: np.ndarray, k: int):
    """``(out, dx)`` of the shipped tiled max pool and of the argmax reference."""
    x = Tensor(x4[None], requires_grad=True)
    out = MaxPool2d(k).bank_forward(x, {})
    out.backward(g4[None])
    ref_out, ref_backward = reference_maxpool(x4, k)
    return (out.data[0], x.grad[0]), (ref_out, ref_backward(g4))


def _pool_inputs(kind: str, k: int, dtype, rng) -> np.ndarray:
    x = rng.normal(size=(5, 3, 2 * k, 3 * k)).astype(dtype)
    if kind == "post_relu":
        x = np.maximum(x, 0)
        x[0] = 0.0  # whole maps of all-zero windows
    elif kind == "all_equal":
        x[...] = dtype(1.5)
    elif kind == "signed_zeros":
        x = np.where(rng.random(size=x.shape) < 0.5, dtype(0.0), dtype(-0.0))
    elif kind == "ties":
        x = rng.integers(0, 2, size=x.shape).astype(dtype)
    return x


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", ["random", "post_relu", "all_equal", "signed_zeros", "ties"])
def test_pool_backward_equals_argmax_reference(kind, k, dtype):
    rng = np.random.default_rng(7)
    x = _pool_inputs(kind, k, dtype, rng)
    g = rng.normal(size=(5, 3, 2, 3)).astype(dtype)
    g.reshape(-1)[::7] = -0.0  # a routed -0.0 stays -0.0, an unrouted slot is +0.0
    g.reshape(-1)[3::11] = np.inf
    (out, dx), (ref_out, ref_dx) = _pool_both_ways(x, g, k)
    assert_same_bytes(out, ref_out, "forward")
    assert_same_bytes(dx, ref_dx, "backward")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("where", ["first", "middle", "last", "two", "all"])
def test_pool_backward_routes_to_the_first_nan(where, k, dtype):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 2, 2 * k, 2 * k)).astype(dtype)
    positions = {
        "first": [0], "middle": [k * k // 2], "last": [k * k - 1],
        "two": [1, k * k - 1], "all": list(range(k * k)),
    }[where]
    for t in positions:  # plant NaN at window position t of three of the windows
        i, j = divmod(t, k)
        x[0, 0, i, j] = x[1, 1, k + i, k + j] = x[1, 0, i, k + j] = np.nan
    g = rng.normal(size=(2, 2, 2, 2)).astype(dtype)
    (out, dx), (ref_out, ref_dx) = _pool_both_ways(x, g, k)
    assert_same_bytes(out, ref_out, "forward")
    assert_same_bytes(dx, ref_dx, "backward")
    i, j = divmod(positions[0], k)
    assert dx[0, 0, i, j] == g[0, 0, 0, 0]


def test_pool_plans_are_per_sample():
    clear_kernel_plan_cache()
    pool = MaxPool2d(2)
    for n in (1, 8, 64):
        x = Tensor(np.random.default_rng(n).normal(size=(1, n, 3, 4, 4)), requires_grad=True)
        pool.bank_forward(x, {}).sum().backward()
    stats = kernel_plan_cache_stats()
    assert stats["pool_plans"] == 1 and stats["misses"] == 1 and stats["hits"] == 2


def test_plan_cache_under_two_threads():
    # Two chunk threads building more distinct geometries than the cap at
    # once: no iteration over a resizing dict, no double eviction, no lost
    # counter update, and the cache never past its cap.
    clear_kernel_plan_cache()
    per_thread = layers._PLAN_CACHE_CAP + 40
    errors, sizes = [], []

    def build(channels):
        try:
            for h in range(2, 2 + per_thread):
                layers._pool_plan(channels, h, 2, 2, 2)
                sizes.append(len(layers._POOL_PLANS))
        except Exception as err:  # noqa: BLE001 - reported below
            errors.append(err)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(channels,)) for channels in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert max(sizes) <= layers._PLAN_CACHE_CAP
    stats = kernel_plan_cache_stats()
    assert (stats["misses"], stats["hits"]) == (2 * per_thread, 0)
    clear_kernel_plan_cache()


# -- (c) blocked grad-free convolution == one block -------------------------------


def _conv_case(m: int, b: int, dtype, pad: int = 1):
    rng = np.random.default_rng(b)
    conv = Conv2d(3, 16, kernel_size=3, padding=pad, rng=0)
    x = rng.normal(size=(m, b, 3, 8, 8)).astype(dtype)
    params = {
        "weight": Tensor(rng.normal(size=(m, 16, 3, 3, 3)).astype(dtype), requires_grad=True),
        "bias": Tensor(rng.normal(size=(m, 16)).astype(dtype), requires_grad=True),
    }
    return conv, x, params


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("m", [1, 3])
def test_blocked_forward_equals_single_block(m, dtype, monkeypatch):
    per_sample = 8 * 8 * 27 * np.dtype(dtype).itemsize
    block = layers._CONV_BLOCK_BYTES // (m * per_sample)
    assert block > 2
    for b in (1, block - 1, block, block + 1, 2400, 2401):
        conv, x, params = _conv_case(m, b, dtype)
        with evaluating(conv), Profiler() as profile:
            blocked = conv.bank_forward(Tensor(x), params).data
        rows = profile.to_dict()
        # One activation of each scope however many blocks ran.
        assert rows["conv2d.bank_forward"]["calls"] == 1
        assert rows["conv2d.bank_forward/im2col"]["calls"] == 1
        with monkeypatch.context() as patch, evaluating(conv):
            patch.setattr(layers, "_CONV_BLOCK_BYTES", 1 << 40)
            whole = conv.bank_forward(Tensor(x), params).data
        assert blocked.flags.c_contiguous
        assert_same_bytes(blocked, whole, f"b={b}")
        replaced = ReferenceConv2d.bank_forward(conv, Tensor(x), params).data
        assert_same_bytes(blocked, replaced, f"b={b} vs the replaced kernel")


def test_blocked_forward_looks_up_one_plan(monkeypatch):
    monkeypatch.setattr(layers, "_CONV_BLOCK_BYTES", 1)  # one sample per block
    conv, x, params = _conv_case(2, 9, np.float64)
    clear_kernel_plan_cache()
    with evaluating(conv):
        conv.bank_forward(Tensor(x), params)
        conv.bank_forward(Tensor(x), params)
    stats = kernel_plan_cache_stats()
    assert (stats["conv_plans"], stats["misses"], stats["hits"]) == (1, 1, 1)


@pytest.mark.parametrize("pad", [0, 1])
def test_recorded_forward_is_never_blocked(pad, monkeypatch):
    # The weight gradient reduces over every row of the column matrix, so a
    # forward that records a tape must keep it whole whatever the block size.
    monkeypatch.setattr(layers, "_CONV_BLOCK_BYTES", 1)
    conv, x_data, params = _conv_case(3, 5, np.float64, pad)
    grads = []
    for forward in (conv.bank_forward, lambda *a: ReferenceConv2d.bank_forward(conv, *a)):
        x = Tensor(x_data, requires_grad=True)
        for p in params.values():
            p.grad = None
        out = forward(x, params)
        (out * out).sum().backward()
        grads.append((out.data, x.grad, params["weight"].grad, params["bias"].grad))
    for got, expected, what in zip(*grads, ("out", "dx", "dw", "db")):
        assert_same_bytes(got, expected, what)


# -- (d) whole-model gradients == the replaced kernels' ---------------------------


def _equal_width_cnn(**kwargs) -> SmallCNN:
    """Two stages of the same width: the second conv maps 8 channels to 8."""
    return SmallCNN(in_channels=3, channels=(8, 8), **kwargs)


@st.composite
def model_cases(draw):
    return {
        "builder": draw(st.sampled_from([vgg_lite_cnn, _equal_width_cnn])),
        "m": draw(st.integers(min_value=1, max_value=3)),
        "batch": draw(st.integers(min_value=1, max_value=4)),
        "dtype": draw(st.sampled_from(DTYPES)),
        "sparse": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
    }


@settings(max_examples=25, deadline=None)
@given(model_cases())
def test_model_gradients_equal_the_replaced_kernels(case):
    rng = np.random.default_rng(case["seed"])
    m, dtype = case["m"], case["dtype"]
    model = case["builder"](n_classes=10, image_size=8, rng=int(rng.integers(2**31)))
    x = rng.normal(size=(m, case["batch"], 192)).astype(dtype)
    if case["sparse"]:
        x[rng.random(size=x.shape) < 0.6] = 0.0  # dead ReLUs: all-zero pooling windows
    y = rng.integers(0, 10, size=(m, case["batch"]))
    results, stacked = [], None
    for net in (model, as_reference(model)):
        bank = ParameterBank(net, m, dtype=dtype)
        if stacked is None:  # every worker its own parameters
            stacked = bank.slab + rng.normal(scale=0.05, size=bank.slab.shape).astype(dtype)
        bank.set_stacked_flat(stacked)
        loss = net.bank_loss(x, y, bank.state())
        loss.sum().backward()
        results.append((loss.data, bank.grad_slab))
    assert_same_bytes(results[0][0], results[1][0], "loss")
    assert_same_bytes(results[0][1], results[1][1], "gradient slab")


# -- (e) allocation budget ---------------------------------------------------------


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_grad_free_loss_never_holds_a_dataset_of_columns():
    # 2400 rows: the two im2col matrices alone are 33 MB and 44 MB (the
    # forward peaked at 80 MB when it built them); blocked, the peak is the
    # 19.7 MB conv-1 output, its ReLU and the pooling windows.
    model = vgg_lite_cnn(rng=0)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(2400, 192)), rng.integers(0, 10, size=2400)

    def loss():
        with evaluating(model):
            return float(model.loss(x, y).data)

    loss()
    assert _traced_peak(loss) < 50e6


def test_training_step_allocates_nothing_larger_than_the_column_gradients():
    m, batch = 8, 8
    model = vgg_lite_cnn(rng=0)
    bank = ParameterBank(model, m)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(m, batch, 192)), rng.integers(0, 10, size=(m, batch))
    # conv-2's (m, B·oh·ow, c·kh·kw) column matrix, and its gradient beside
    # the sentinel column: the two largest arrays a step may build.
    columns = m * batch * 16 * 144 * 8
    column_grads = m * batch * 16 * 145 * 8

    def step():
        bank.zero_grad()
        loss = model.bank_loss(x, y, bank.state())
        loss.sum().backward()
        return loss

    step()
    tracemalloc.start()
    try:
        bank.zero_grad()
        loss = model.bank_loss(x, y, bank.state())
        taped = max(trace.size for trace in tracemalloc.take_snapshot().traces)
        del loss
    finally:
        tracemalloc.stop()
    # On the tape: no padded copy, no sentinel source, nothing above the columns.
    assert columns <= taped < columns + 4096
    # Forward, tape and backward together (6.9 MB measured; the replaced
    # kernels: 6.4 MB): room for the tape and the column gradients, not for
    # one more array of that size.
    assert 5 * column_grads < _traced_peak(step) < 6.4 * column_grads
