"""The ``(m, P)`` parameter/gradient slabs behind :class:`ParameterBank`.

Every stacked parameter is a view into one slab and its gradient a view into
another; the flat-vector interface reads and writes the slab directly;
``BankSGD.step`` updates it in one fused pass; leaf gradients with a
persistent buffer are accumulated in place.  These tests pin the aliasing,
the byte-identity of every fused path with its per-parameter /
allocate-and-add reference, and the steady-state allocation budget.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.synthetic import make_gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.models.cnn import SmallCNN
from repro.models.mlp import MLP
from repro.nn.bank import ParameterBank
from repro.nn.tensor import Tensor
from repro.optim.bank_sgd import BankSGD
from repro.optim.sgd import SGD
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator

M = 3

BANKS = {
    "mlp": (lambda: MLP(6, 4, hidden_sizes=(5, 3), rng=1), np.float64),
    "cnn": (lambda: SmallCNN(in_channels=2, image_size=4, channels=(3,), n_classes=4, rng=2), np.float64),
    "batch_norm": (lambda: MLP(6, 4, hidden_sizes=(5,), batch_norm=True, rng=3), np.float64),
    "float32": (lambda: MLP(6, 4, hidden_sizes=(5,), rng=4), np.float32),
}


@pytest.fixture(params=sorted(BANKS))
def bank_case(request):
    make, dtype = BANKS[request.param]
    template = make()
    return template, ParameterBank(template, M, dtype=dtype)


def _batch(template, rng, dtype):
    if isinstance(template, SmallCNN):
        X = rng.normal(size=(M, 2, template.in_channels, template.image_size, template.image_size))
    else:
        X = rng.normal(size=(M, 2, template.n_features))
    return X.astype(dtype), rng.integers(0, template.n_classes, size=(M, 2))


class TestSlabViews:
    def test_params_and_grads_alias_their_slabs(self, bank_case):
        template, bank = bank_case
        assert bank.slab.flags.c_contiguous and bank.grad_slab.flags.c_contiguous
        assert bank.slab.shape == bank.grad_slab.shape == (M, template.num_parameters())
        assert bank.slab.dtype == bank.grad_slab.dtype == bank.dtype
        lo = 0
        for (name, p), (_, ref) in zip(bank.params.items(), template.named_parameters()):
            assert p.data.shape == p.grad_buffer.shape == (M, *ref.shape), name
            assert np.shares_memory(p.data, bank.slab), name
            assert np.shares_memory(p.grad_buffer, bank.grad_slab), name
            # Flat layout = get_flat_parameters order: a write through the
            # view lands in exactly this parameter's slab columns.
            p.data[...] = 7.0
            np.testing.assert_array_equal(bank.slab[:, lo : lo + ref.size], 7.0)
            lo += ref.size
        assert lo == bank.n_parameters

    def test_backward_fills_the_gradient_slab(self, bank_case):
        template, bank = bank_case
        X, y = _batch(template, np.random.default_rng(0), bank.dtype)
        assert all(p.grad is None for p in bank.params.values())
        template.bank_loss(X, y, bank.state()).sum().backward()
        for name, p in bank.params.items():
            assert p.grad is p.grad_buffer, name
            assert p.grad.dtype == bank.dtype
        assert np.any(bank.grad_slab)
        assert bank.grad_ranges() == [(0, bank.n_parameters)]
        bank.zero_grad()
        assert all(p.grad is None for p in bank.params.values())
        assert bank.grad_ranges() == []

    def test_flat_interface_round_trips_through_the_views(self, bank_case):
        _, bank = bank_case
        rng = np.random.default_rng(1)
        target = rng.normal(size=bank.slab.shape).astype(bank.dtype)
        bank.set_stacked_flat(target)
        got = bank.get_stacked_flat()
        assert not np.shares_memory(got, bank.slab)  # the public contract: a copy
        np.testing.assert_array_equal(got, target)
        np.testing.assert_array_equal(
            np.concatenate([p.data.reshape(M, -1) for p in bank.params.values()], axis=1), target
        )
        for i in range(M):
            row = bank.worker_flat(i)
            assert not np.shares_memory(row, bank.slab)
            np.testing.assert_array_equal(row, target[i])
        vec = rng.normal(size=bank.n_parameters).astype(bank.dtype)
        bank.set_worker_flat(1, vec)
        np.testing.assert_array_equal(bank.worker_flat(1), vec)
        np.testing.assert_array_equal(bank.worker_flat(0), target[0])
        bank.broadcast_flat(vec)
        for p in bank.params.values():
            np.testing.assert_array_equal(p.data, np.broadcast_to(p.data[0], p.data.shape))
        np.testing.assert_array_equal(bank.slab, np.broadcast_to(vec, bank.slab.shape))

    def test_view_rule_for_bank_forward_reshapes(self, bank_case):
        # Splitting or merging axes after the worker axis keeps the view (what
        # Linear / Conv2d / BatchNorm1d bank_forward do); merging the worker
        # axis into another silently copies.
        _, bank = bank_case
        for name, p in bank.params.items():
            assert np.shares_memory(p.data.reshape(M, -1), bank.slab), name
            assert np.shares_memory(p.data.reshape(M, 1, *p.data.shape[1:]), bank.slab), name
            assert not np.shares_memory(p.data.reshape(-1), bank.slab), name

    def test_state_mapping_is_built_once(self, bank_case):
        _, bank = bank_case
        state = bank.state()
        assert state is bank.state()
        assert set(state) == set(bank.params) | set(bank.buffers)
        for name, buf in bank.buffers.items():
            assert state[name] is buf


def _cluster(m: int, n_features: int, hidden: tuple, batch_size: int, **kwargs) -> SimulatedCluster:
    dataset = make_gaussian_blobs(n_samples=16 * m, n_features=n_features, n_classes=10, rng=3)
    runtime = RuntimeSimulator(ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=m, rng=0)
    return SimulatedCluster(
        model_fn=lambda: MLP(n_features, 10, hidden_sizes=hidden, rng=5),
        dataset=dataset, runtime=runtime, n_workers=m, batch_size=batch_size,
        lr=0.05, seed=11, backend="vectorized", **kwargs,
    )


def test_grad_buffers_keep_their_address_across_steps():
    backend = _cluster(4, 8, (6,), 4, momentum=0.9).backend
    addresses = None
    for _ in range(3):
        backend.local_step()
        now = [p.grad.__array_interface__["data"][0] for p in backend.bank.params.values()]
        assert all(p.grad is p.grad_buffer for p in backend.bank.params.values())
        assert addresses is None or now == addresses
        addresses = now


@pytest.mark.parametrize("bank_dtype", ["float64", "float32"])
def test_steady_state_round_allocates_less_than_one_slab(bank_dtype):
    # m = 8, P = 103946: one (m, P) slab is 6.65 MB in float64, 3.33 MB in
    # float32.  After warm-up a local step plus the averaging collective may
    # allocate activations, the (P,) mean and small gradients — never a
    # gathered (m, P) copy, a weight-gradient temporary or a fresh .grad.
    # Under float32 a float64 coercion of the slab is itself such a copy.
    cluster = _cluster(8, 192, (512,), 2, bank_dtype=bank_dtype)
    slab_bytes = cluster.backend.bank.slab.nbytes
    assert cluster.backend.bank.n_parameters == 103946
    for _ in range(2):
        cluster.run_round(1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        cluster.backend.local_step()
        cluster.average_models()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < slab_bytes, f"peak {peak - before} B vs one slab {slab_bytes} B"


# -- fused optimizer step == per-parameter reference, byte for byte -------------

@st.composite
def sgd_cases(draw):
    return {
        "lr": draw(st.sampled_from([0.01, 0.1, 0.37])),
        "momentum": draw(st.sampled_from([0.0, 0.5, 0.9])),
        "weight_decay": draw(st.sampled_from([0.0, 1e-4, 0.03])),
        "unused": draw(st.sampled_from([None, 0, 1, 2, 3])),
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
    }


@settings(max_examples=40, deadline=None)
@given(sgd_cases())
def test_fused_step_equals_per_parameter_sgd(case):
    unused, seed = case.pop("unused"), case.pop("seed")
    rng = np.random.default_rng(seed)
    bank = ParameterBank(MLP(5, 3, hidden_sizes=(4,), rng=0), M)
    bank.set_stacked_flat(rng.normal(size=bank.slab.shape))
    fused = BankSGD(bank, **case)
    # Reference: textbook per-parameter SGD over one plain leaf per parameter,
    # each holding the stacked (m, *shape) values (the update is elementwise).
    leaves = [Tensor(p.data.copy(), requires_grad=True) for p in bank.params.values()]
    reference = SGD(leaves, **case)
    for _ in range(3):
        fused.zero_grad()
        reference.zero_grad()
        for index, (p, leaf) in enumerate(zip(bank.params.values(), leaves)):
            if index == unused:
                continue  # this parameter received no gradient: both must skip it
            g = rng.normal(size=p.data.shape)
            p.grad_buffer[...] = g
            p.grad = p.grad_buffer
            leaf.grad = g
        fused.step()
        reference.step()
        for (name, p), leaf in zip(bank.params.items(), leaves):
            assert p.data.tobytes() == leaf.data.tobytes(), name


def test_step_accepts_a_gradient_assigned_from_outside():
    bank = ParameterBank(MLP(5, 3, hidden_sizes=(4,), rng=0), M)
    opt = BankSGD(bank, lr=0.5)
    before = bank.get_stacked_flat()
    first = next(iter(bank.params.values()))
    first.grad = np.ones_like(first.data)  # a foreign array on the public attribute
    opt.step()
    after = bank.get_stacked_flat()
    n = first.data[0].size
    np.testing.assert_array_equal(after[:, :n], before[:, :n] - 0.5)
    np.testing.assert_array_equal(after[:, n:], before[:, n:])


# -- in-place leaf accumulation == allocate-and-add ------------------------------

def _tied_loss(w: Tensor, x: np.ndarray) -> Tensor:
    # The leaf enters twice (tied weights): once through a matmul, which may
    # write its gradient straight into the buffer, once through an
    # elementwise product, which arrives as a separate contribution.
    return ((Tensor(x) @ w).tanh() @ w.transpose(0, 2, 1)).sum() + (w * w).sum()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_in_place_accumulation_matches_allocate_and_add(dtype):
    rng = np.random.default_rng(5)
    values = rng.normal(size=(M, 4, 4)).astype(dtype)
    x = rng.normal(size=(M, 2, 4)).astype(dtype)
    plain = Tensor(values.copy(), requires_grad=True)
    buffered = Tensor(values.copy(), requires_grad=True)
    buffered.grad_buffer = np.full_like(values, np.nan)  # stale garbage must be overwritten
    for step in range(3):
        plain.zero_grad()
        buffered.zero_grad()
        assert buffered.grad is None
        _tied_loss(plain, x).backward()
        _tied_loss(buffered, x).backward()
        assert buffered.grad is buffered.grad_buffer
        assert buffered.grad.tobytes() == plain.grad.tobytes(), step
    # Without zero_grad a second backward accumulates on top, like a plain leaf.
    _tied_loss(plain, x).backward()
    _tied_loss(buffered, x).backward()
    assert buffered.grad is buffered.grad_buffer
    assert buffered.grad.tobytes() == plain.grad.tobytes()  # one rule: arrival order, both kinds of leaf
    # Setting .grad = None from outside is the same stale mark as zero_grad.
    buffered.grad = None
    plain.grad = None
    _tied_loss(plain, x).backward()
    _tied_loss(buffered, x).backward()
    assert buffered.grad.tobytes() == plain.grad.tobytes()
