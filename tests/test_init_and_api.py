"""Tests for weight initializers and the top-level package API surface."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.nn import init
from repro.nn.layers import Conv2d, Linear
from repro.models.mlp import MLP


class TestInitializers:
    def test_zeros(self):
        np.testing.assert_allclose(init.zeros((3, 2)), np.zeros((3, 2)))

    def test_uniform_bounds(self):
        w = init.uniform((1000,), -0.5, 0.5, rng=0)
        assert w.min() >= -0.5 and w.max() <= 0.5

    def test_normal_std(self):
        w = init.normal((20000,), std=0.3, rng=0)
        assert np.std(w) == pytest.approx(0.3, rel=0.05)

    def test_xavier_uniform_scale_linear(self):
        w = init.xavier_uniform((64, 64), rng=0)
        limit = np.sqrt(6.0 / 128)
        assert np.abs(w).max() <= limit + 1e-12
        assert np.abs(w).max() > 0.5 * limit

    def test_kaiming_uniform_scale_conv(self):
        w = init.kaiming_uniform((16, 8, 3, 3), rng=0)
        fan_in = 8 * 9
        limit = np.sqrt(6.0 / fan_in)
        assert np.abs(w).max() <= limit + 1e-12

    def test_kaiming_normal_variance(self):
        w = init.kaiming_normal((400, 400), rng=0)
        assert np.std(w) == pytest.approx(np.sqrt(2.0 / 400), rel=0.1)

    def test_reproducible_with_seed(self):
        np.testing.assert_allclose(init.xavier_uniform((5, 5), rng=7), init.xavier_uniform((5, 5), rng=7))

    def test_layers_use_seeded_init(self):
        a, b = Linear(8, 4, rng=3), Linear(8, 4, rng=3)
        np.testing.assert_allclose(a.weight.data, b.weight.data)
        c, d = Conv2d(2, 4, 3, rng=9), Conv2d(2, 4, 3, rng=9)
        np.testing.assert_allclose(c.weight.data, d.weight.data)

    def test_models_with_same_seed_are_identical(self):
        a = MLP(10, 3, hidden_sizes=(8, 8), rng=5)
        b = MLP(10, 3, hidden_sizes=(8, 8), rng=5)
        np.testing.assert_allclose(a.get_flat_parameters(), b.get_flat_parameters())


class TestPackageAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str) and repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists {name} but it is not importable"

    def test_key_entry_points_present(self):
        for name in (
            "make_config",
            "run_experiment",
            "PASGDTrainer",
            "SimulatedCluster",
            "AdaCommSchedule",
            "BlockMomentum",
            "error_runtime_bound",
            "optimal_communication_period",
        ):
            assert name in repro.__all__

    def test_subpackage_alls_resolve(self):
        import repro.core as core
        import repro.data as data
        import repro.distributed as distributed
        import repro.models as models
        import repro.nn as nn
        import repro.optim as optim
        import repro.runtime as runtime
        import repro.utils as utils

        for module in (core, data, distributed, models, nn, optim, runtime, utils):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"

    def test_public_functions_have_docstrings(self):
        import inspect

        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"


def test_every_all_entry_exists_once():
    """Every ``repro`` module's ``__all__`` names each attribute once, and each resolves.

    ``hasattr`` goes through a module-level ``__getattr__`` (PEP 562), so
    lazily exported names are checked too.
    """
    from tests.conftest import repro_modules

    problems = []
    for module in repro_modules():
        names = list(getattr(module, "__all__", ()))
        problems += [f"{module.__name__}: {name!r} listed twice"
                     for name in sorted({n for n in names if names.count(n) > 1})]
        problems += [f"{module.__name__}: {name!r} does not resolve"
                     for name in names if not hasattr(module, name)]
    assert not problems, problems
