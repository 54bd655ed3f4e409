"""Tests for the model zoo (repro.models)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    MLP,
    LinearRegressionModel,
    NoisyQuadraticProblem,
    QuadraticObjective,
    SmallCNN,
    SoftmaxRegression,
    available_models,
    build_model,
    resnet_lite_mlp,
    vgg_lite_mlp,
)
from repro.nn.losses import accuracy
from repro.optim.sgd import SGD


class TestSoftmaxRegression:
    def test_forward_shape(self):
        model = SoftmaxRegression(6, 4, rng=0)
        assert model(np.zeros((5, 6))).shape == (5, 4)

    def test_loss_decreases_under_sgd(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(64, 4))
        w = gen.normal(size=(4, 3))
        y = (X @ w).argmax(axis=1)
        model = SoftmaxRegression(4, 3, rng=0)
        opt = SGD(model, lr=0.5)
        first = model.loss(X, y).item()
        for _ in range(60):
            opt.zero_grad()
            model.loss(X, y).backward()
            opt.step()
        assert model.loss(X, y).item() < 0.5 * first

    def test_flattens_higher_dim_input(self):
        model = SoftmaxRegression(12, 2, rng=0)
        assert model(np.zeros((3, 3, 4))).shape == (3, 2)


class TestLinearRegression:
    def test_recovers_weights(self):
        gen = np.random.default_rng(1)
        X = gen.normal(size=(200, 5))
        w_star = gen.normal(size=(5, 1))
        y = X @ w_star
        model = LinearRegressionModel(5, 1, rng=0)
        opt = SGD(model, lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            model.loss(X, y).backward()
            opt.step()
        np.testing.assert_allclose(model.fc.weight.data, w_star, atol=0.05)

    def test_loss_accepts_1d_target(self):
        model = LinearRegressionModel(3, 1, rng=0)
        loss = model.loss(np.zeros((4, 3)), np.zeros(4))
        assert np.isfinite(loss.item())


class TestMLPVariants:
    def test_mlp_parameter_count(self):
        model = MLP(10, 3, hidden_sizes=(8, 4), rng=0)
        expected = 10 * 8 + 8 + 8 * 4 + 4 + 4 * 3 + 3
        assert model.num_parameters() == expected

    def test_mlp_no_hidden_is_linear(self):
        model = MLP(10, 3, hidden_sizes=(), rng=0)
        assert model.num_parameters() == 10 * 3 + 3

    def test_mlp_forward_and_loss(self):
        model = MLP(6, 4, hidden_sizes=(8,), rng=0)
        X = np.random.default_rng(0).normal(size=(5, 6))
        y = np.array([0, 1, 2, 3, 0])
        assert model(X).shape == (5, 4)
        assert np.isfinite(model.loss(X, y).item())

    def test_mlp_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP(4, 2, activation="gelu")

    def test_vgg_lite_has_more_params_than_resnet_lite(self):
        vgg = vgg_lite_mlp(n_features=64, rng=0)
        resnet = resnet_lite_mlp(n_features=64, rng=0)
        assert vgg.num_parameters() > resnet.num_parameters()

    def test_residual_mlp_trains(self):
        gen = np.random.default_rng(2)
        X = gen.normal(size=(48, 8))
        y = (X[:, 0] > 0).astype(int)
        model = resnet_lite_mlp(n_features=8, n_classes=2, rng=0)
        opt = SGD(model, lr=0.05)
        first = model.loss(X, y).item()
        for _ in range(40):
            opt.zero_grad()
            model.loss(X, y).backward()
            opt.step()
        assert model.loss(X, y).item() < first


class TestCNNs:
    def test_small_cnn_shapes(self):
        model = SmallCNN(in_channels=3, image_size=8, channels=(4, 8), n_classes=5, rng=0)
        out = model(np.zeros((2, 3, 8, 8)))
        assert out.shape == (2, 5)

    def test_cnn_accepts_flat_input(self):
        model = SmallCNN(in_channels=3, image_size=8, channels=(4,), n_classes=3, rng=0)
        out = model(np.zeros((2, 3 * 8 * 8)))
        assert out.shape == (2, 3)

    def test_cnn_trains_on_tiny_task(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(32, 3, 8, 8))
        y = (X.mean(axis=(1, 2, 3)) > 0).astype(int)
        model = SmallCNN(in_channels=3, image_size=8, channels=(4,), n_classes=2, rng=0)
        opt = SGD(model, lr=0.1)
        first = model.loss(X, y).item()
        for _ in range(30):
            opt.zero_grad()
            model.loss(X, y).backward()
            opt.step()
        assert model.loss(X, y).item() < first
        assert accuracy(model(X), y) > 0.6

    def test_cnn_invalid_geometry(self):
        with pytest.raises(ValueError):
            SmallCNN(image_size=2, channels=(4, 8, 16), rng=0)


class TestQuadraticObjective:
    def test_value_and_gradient_at_optimum(self):
        obj = QuadraticObjective.random(dim=6, rng=0, noise_std=0.0, f_inf=2.0)
        assert obj.value(obj.optimum) == pytest.approx(2.0)
        np.testing.assert_allclose(obj.gradient(obj.optimum), np.zeros(6), atol=1e-12)

    def test_lipschitz_is_max_eigenvalue(self):
        obj = QuadraticObjective.random(dim=5, condition_number=10.0, rng=1)
        assert obj.lipschitz_constant == pytest.approx(1.0, rel=1e-6)

    def test_stochastic_gradient_unbiased(self):
        obj = QuadraticObjective.random(dim=4, rng=2, noise_std=0.5)
        x = np.ones(4)
        gen = np.random.default_rng(0)
        draws = np.stack([obj.stochastic_gradient(x, gen) for _ in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), obj.gradient(x), atol=0.05)

    def test_gradient_noise_variance(self):
        obj = QuadraticObjective.random(dim=8, rng=3, noise_std=0.3)
        assert obj.gradient_noise_variance == pytest.approx(8 * 0.09)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadraticObjective(matrix=np.eye(3), optimum=np.zeros(2))
        with pytest.raises(ValueError):
            QuadraticObjective(matrix=np.array([[1.0, 2.0], [0.0, 1.0]]), optimum=np.zeros(2))

    def test_noisy_quadratic_problem_sgd_converges(self):
        obj = QuadraticObjective.random(dim=5, rng=4, noise_std=0.01)
        problem = NoisyQuadraticProblem(obj, x0=obj.optimum + 2.0, rng=0)
        opt = SGD(problem, lr=0.2)
        first = problem.current_value()
        for _ in range(200):
            opt.zero_grad()
            problem.loss().backward()
            opt.step()
        assert problem.current_value() < 0.05 * first

    def test_noisy_quadratic_loss_item_equals_exact_value(self):
        obj = QuadraticObjective.random(dim=3, rng=5, noise_std=0.2)
        problem = NoisyQuadraticProblem(obj, rng=0)
        assert problem.loss().item() == pytest.approx(problem.current_value(), abs=1e-10)


class TestRegistry:
    def test_available_models_nonempty(self):
        assert "softmax" in available_models()
        assert "mlp" in available_models()

    def test_build_model(self):
        model = build_model("softmax", n_features=4, n_classes=2, rng=0)
        assert model.num_parameters() == 4 * 2 + 2

    def test_build_unknown_raises(self):
        with pytest.raises(ValueError):
            build_model("transformer-xxl")
