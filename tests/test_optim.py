"""Tests for optimizers and learning-rate schedules (repro.optim)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.linear import SoftmaxRegression
from repro.nn.bank import ParameterBank
from repro.nn.layers import Linear
from repro.nn.tensor import Tensor
from repro.optim.bank_sgd import BankSGD
from repro.optim.block_momentum import BlockMomentum
from repro.optim.lr_schedules import (
    ConstantLR,
    MultiStepLR,
    StepDecayLR,
    TauGatedStepLR,
    make_lr_schedule,
)
from repro.optim.sgd import SGD


class TestSGD:
    def test_single_step_matches_update_rule(self):
        layer = Linear(2, 1, bias=False, rng=0)
        w_before = layer.weight.data.copy()
        x = Tensor(np.array([[1.0, 2.0]]))
        opt = SGD(layer, lr=0.1)
        layer(x).sum().backward()
        opt.step()
        np.testing.assert_allclose(layer.weight.data, w_before - 0.1 * np.array([[1.0], [2.0]]))

    def test_weight_decay_adds_l2_gradient(self):
        layer = Linear(1, 1, bias=False, rng=0)
        layer.weight.data[...] = 2.0
        opt = SGD(layer, lr=0.1, weight_decay=0.5)
        layer.weight.grad = np.zeros((1, 1))
        opt.step()
        # update = lr * weight_decay * w = 0.1 * 0.5 * 2 = 0.1
        np.testing.assert_allclose(layer.weight.data, [[1.9]])

    def test_momentum_accumulates(self):
        layer = Linear(1, 1, bias=False, rng=0)
        layer.weight.data[...] = 0.0
        opt = SGD(layer, lr=1.0, momentum=0.5)
        layer.weight.grad = np.array([[1.0]])
        opt.step()  # v=1, w=-1
        layer.weight.grad = np.array([[1.0]])
        opt.step()  # v=1.5, w=-2.5
        np.testing.assert_allclose(layer.weight.data, [[-2.5]])

    def test_reset_momentum(self):
        layer = Linear(1, 1, bias=False, rng=0)
        layer.weight.data[...] = 0.0
        opt = SGD(layer, lr=1.0, momentum=0.9)
        layer.weight.grad = np.array([[1.0]])
        opt.step()
        opt.reset_momentum()
        layer.weight.grad = np.array([[1.0]])
        opt.step()
        # Without the reset the second update would be 1.9; with it, exactly 1.0 more.
        np.testing.assert_allclose(layer.weight.data, [[-2.0]])

    def test_set_lr(self):
        opt = SGD(Linear(1, 1, rng=0), lr=0.1)
        opt.set_lr(0.01)
        assert opt.lr == 0.01
        with pytest.raises(ValueError):
            opt.set_lr(0.0)

    def test_skips_params_without_grad(self):
        layer = Linear(2, 2, rng=0)
        before = layer.get_flat_parameters()
        SGD(layer, lr=0.1).step()
        np.testing.assert_allclose(layer.get_flat_parameters(), before)

    def test_validation(self):
        layer = Linear(1, 1, rng=0)
        with pytest.raises(ValueError):
            SGD(layer, lr=0.0)
        with pytest.raises(ValueError):
            SGD(layer, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_converges_on_convex_problem(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(128, 6))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        model = SoftmaxRegression(6, 2, rng=0)
        opt = SGD(model, lr=0.5, momentum=0.9)
        first = model.loss(X, y).item()
        for _ in range(80):
            opt.zero_grad()
            model.loss(X, y).backward()
            opt.step()
        assert model.loss(X, y).item() < 0.3 * first


NOT_FINITE = [float("nan"), float("inf")]


class TestNonFiniteRates:
    """NaN fails every comparison, so ``lr <= 0`` let it (and ∞) through."""

    @pytest.mark.parametrize("bad", NOT_FINITE)
    def test_sgd(self, bad):
        layer = Linear(1, 1, rng=0)
        with pytest.raises(ValueError, match="learning rate"):
            SGD(layer, lr=bad)
        with pytest.raises(ValueError, match="weight_decay"):
            SGD(layer, lr=0.1, weight_decay=bad)
        with pytest.raises(ValueError, match="learning rate"):
            SGD(layer, lr=0.1).set_lr(bad)

    @pytest.mark.parametrize("bad", NOT_FINITE)
    def test_bank_sgd(self, bad):
        bank = ParameterBank(Linear(2, 1, rng=0), 3)
        with pytest.raises(ValueError, match="learning rate"):
            BankSGD(bank, lr=bad)
        with pytest.raises(ValueError, match="weight_decay"):
            BankSGD(bank, lr=0.1, weight_decay=bad)
        optimizer = BankSGD(bank, lr=0.1)
        with pytest.raises(ValueError, match="learning rate"):
            optimizer.set_lr(bad)
        assert optimizer.lr == 0.1

    @pytest.mark.parametrize("bad", NOT_FINITE)
    def test_block_momentum(self, bad):
        with pytest.raises(ValueError, match="learning rate"):
            BlockMomentum(0.3).apply(np.zeros(2), np.ones(2), lr=bad)

    @pytest.mark.parametrize("bad", NOT_FINITE)
    @pytest.mark.parametrize(
        "schedule",
        [ConstantLR, lambda lr: StepDecayLR(lr=lr, step_epochs=10), MultiStepLR, TauGatedStepLR],
        ids=["constant", "step", "multistep", "tau_gated"],
    )
    def test_schedules(self, schedule, bad):
        with pytest.raises(ValueError, match="learning rate"):
            schedule(bad)


class TestBlockMomentum:
    def test_zero_beta_returns_plain_average(self):
        bm = BlockMomentum(0.0)
        anchor = np.array([1.0, 2.0, 3.0])
        avg = np.array([0.5, 1.5, 2.5])
        np.testing.assert_allclose(bm.apply(anchor, avg, lr=0.1), avg)

    def test_momentum_amplifies_repeated_direction(self):
        bm = BlockMomentum(0.5)
        anchor = np.zeros(2)
        out1 = bm.apply(anchor, anchor - 1.0, lr=1.0)  # block gradient = +1 → u=1 → out=-1
        out2 = bm.apply(out1, out1 - 1.0, lr=1.0)  # block gradient = +1 → u=1.5 → out=out1-1.5
        np.testing.assert_allclose(out1, [-1.0, -1.0])
        np.testing.assert_allclose(out2, [-2.5, -2.5])

    def test_update_rule_matches_eq_24_25(self):
        beta, lr = 0.3, 0.2
        bm = BlockMomentum(beta)
        anchor = np.array([1.0, -1.0])
        avg = np.array([0.6, -0.5])
        g_block = (anchor - avg) / lr
        expected = anchor - lr * g_block  # first round: u = G
        np.testing.assert_allclose(bm.apply(anchor, avg, lr), expected)
        np.testing.assert_allclose(bm.buffer, g_block)

    def test_reset(self):
        bm = BlockMomentum(0.3)
        bm.apply(np.zeros(2), np.ones(2), lr=0.1)
        bm.reset()
        assert bm.buffer is None and bm.n_rounds == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockMomentum(1.0)
        bm = BlockMomentum(0.3)
        with pytest.raises(ValueError):
            bm.apply(np.zeros(2), np.zeros(3), lr=0.1)
        with pytest.raises(ValueError):
            bm.apply(np.zeros(2), np.zeros(2), lr=0.0)


class TestLRSchedules:
    def test_constant(self):
        sched = ConstantLR(0.1)
        assert sched.lr_at(0) == sched.lr_at(1000) == 0.1

    def test_step_decay(self):
        sched = StepDecayLR(lr=1.0, step_epochs=10, gamma=0.1)
        assert sched.lr_at(5) == 1.0
        assert sched.lr_at(15) == pytest.approx(0.1)
        assert sched.lr_at(25) == pytest.approx(0.01)

    def test_multistep(self):
        sched = MultiStepLR(lr=1.0, milestones=(80, 120), gamma=0.1)
        assert sched.lr_at(79) == 1.0
        assert sched.lr_at(80) == pytest.approx(0.1)
        assert sched.lr_at(121) == pytest.approx(0.01)

    def test_multistep_requires_sorted_milestones(self):
        with pytest.raises(ValueError):
            MultiStepLR(lr=1.0, milestones=(120, 80))

    def test_tau_gated_decay_waits_for_tau_one(self):
        # Section 4.3.2: decay is postponed until the communication period is 1.
        sched = TauGatedStepLR(lr=1.0, milestones=(10.0,), gamma=0.1)
        assert sched.lr_at(12, tau=8) == 1.0  # past the milestone but τ > 1: no decay
        assert sched.lr_at(13, tau=8) == 1.0
        assert sched.lr_at(14, tau=1) == pytest.approx(0.1)  # τ reached 1: decay fires
        assert sched.decays_applied == 1
        # Decay is sticky even if τ grows again afterwards.
        assert sched.lr_at(15, tau=4) == pytest.approx(0.1)

    def test_tau_gated_multiple_milestones_fire_together(self):
        sched = TauGatedStepLR(lr=1.0, milestones=(5.0, 10.0), gamma=0.5)
        assert sched.lr_at(12, tau=3) == 1.0
        assert sched.lr_at(12, tau=1) == pytest.approx(0.25)

    def test_factory(self):
        assert isinstance(make_lr_schedule("constant", lr=0.1), ConstantLR)
        assert isinstance(make_lr_schedule("tau_gated", lr=0.1), TauGatedStepLR)
        with pytest.raises(ValueError):
            make_lr_schedule("cosine", lr=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLR(0.0)
        with pytest.raises(ValueError):
            StepDecayLR(lr=0.1, step_epochs=0)


@settings(max_examples=30, deadline=None)
@given(
    lr=st.floats(min_value=1e-4, max_value=1.0),
    gamma=st.floats(min_value=0.05, max_value=0.9),
    epoch=st.floats(min_value=0, max_value=300),
)
def test_property_multistep_lr_is_nonincreasing_and_positive(lr, gamma, epoch):
    sched = MultiStepLR(lr=lr, milestones=(50, 100, 200), gamma=gamma)
    now = sched.lr_at(epoch)
    later = sched.lr_at(epoch + 50)
    assert 0 < later <= now <= lr


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(min_value=0.0, max_value=0.95), seed=st.integers(0, 1000))
def test_property_block_momentum_first_round_equals_plain_average(beta, seed):
    """With an empty buffer the first block-momentum round returns the plain average."""
    gen = np.random.default_rng(seed)
    anchor = gen.normal(size=5)
    avg = gen.normal(size=5)
    out = BlockMomentum(beta).apply(anchor, avg, lr=0.1)
    np.testing.assert_allclose(out, avg, atol=1e-10)
