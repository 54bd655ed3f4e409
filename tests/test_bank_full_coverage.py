"""Full-coverage loop↔bank equivalence: CNNs, batch norm, dropout, quadratics.

The PR 4 contract: with ``backend="auto"`` every built-in model executes on
the vectorized worker bank, and a seeded run's per-step trajectory —
parameters, buffers, losses, and RNG stream positions — is *byte-identical*
to the loop backend's.  These tests therefore assert exact equality, no
tolerances: NumPy's stacked matmul runs the identical per-slice GEMM a loop
replica would, reductions reduce in the same per-slice order, and stochastic
layers consume the per-worker streams the loop replicas would own
(``repro.nn.bank.attach_bank_streams``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.experiments.configs import make_config
from repro.experiments.harness import run_method
from repro.models.cnn import SmallCNN
from repro.models.mlp import MLP
from repro.models.quadratic import NoisyQuadraticProblem, QuadraticObjective
from repro.models.registry import available_models
from repro.nn.bank import ParameterBank, attach_bank_streams, bank_compatible
from repro.nn.layers import BatchNorm1d, Conv2d, Dropout
from repro.nn.tensor import Tensor
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator

M, B, C = 3, 6, 4


def _cluster(backend, model_fn, n_features, n_workers=3, dataset=True, momentum=0.9):
    ds = (
        make_gaussian_blobs(
            n_samples=180, n_features=n_features, n_classes=C, class_sep=2.0, rng=3
        )
        if dataset
        else None
    )
    runtime = RuntimeSimulator(
        ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=n_workers, rng=0
    )
    return SimulatedCluster(
        model_fn=model_fn,
        dataset=ds,
        runtime=runtime,
        n_workers=n_workers,
        batch_size=8,
        lr=0.05,
        momentum=momentum,
        weight_decay=1e-4,
        seed=17,
        backend=backend,
    )


def _generator_state(gen) -> dict:
    return gen.bit_generator.state


def _chunk(cluster):
    """The vectorized backend's one chunk of m (these models never fill a core's L2)."""
    (chunk,) = cluster.backend.banks
    return chunk


CASES = {
    "cnn": (lambda: SmallCNN(in_channels=3, image_size=4, channels=(4,), n_classes=C, rng=0), 48),
    "batch_norm": (lambda: MLP(12, C, hidden_sizes=(8,), batch_norm=True, rng=1), 12),
    "dropout": (lambda: MLP(12, C, hidden_sizes=(8,), dropout=0.3, rng=2), 12),
    "bn_dropout": (
        lambda: MLP(12, C, hidden_sizes=(8,), batch_norm=True, dropout=0.2, rng=4),
        12,
    ),
}


class TestByteIdenticalTrajectories:
    @pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
    def test_per_step_params_and_losses(self, case):
        model_fn, n_features = CASES[case]
        loop = _cluster("loop", model_fn, n_features)
        bank = _cluster("auto", model_fn, n_features)
        assert bank.backend_name == "vectorized"
        # Step at the finest granularity (τ=1 periods plus averaging) so any
        # divergence is pinned to the exact local step that introduced it.
        for step in range(6):
            loss_l = loop.run_local_period(1)
            loss_v = bank.run_local_period(1)
            assert loss_l == loss_v, f"{case}: loss diverged at step {step}"
            np.testing.assert_array_equal(
                loop.backend.get_stacked_states(),
                bank.backend.get_stacked_states(),
                err_msg=f"{case}: params diverged at step {step}",
            )
            if step % 3 == 2:
                np.testing.assert_array_equal(
                    loop.average_models(), bank.average_models(),
                    err_msg=f"{case}: averaging diverged at step {step}",
                )

    def test_batchnorm_buffers_track_loop_replicas(self):
        model_fn, n_features = CASES["batch_norm"]
        loop = _cluster("loop", model_fn, n_features)
        bank = _cluster("auto", model_fn, n_features)
        for _ in range(2):
            loop.run_round(3)
            bank.run_round(3)
        stacked = _chunk(bank).bank.buffers
        assert set(stacked) == {"net.layer1.running_mean", "net.layer1.running_var"}
        for i, worker in enumerate(loop.workers):
            ref = dict(worker.model.named_buffers())
            for name, values in stacked.items():
                np.testing.assert_array_equal(
                    values[i], ref[name], err_msg=f"worker {i} buffer {name}"
                )
        # Averaging broadcast the parameters but left each worker's running
        # stats local — they must genuinely differ across workers.
        mean = stacked["net.layer1.running_mean"]
        assert not np.array_equal(mean[0], mean[1])

    def test_batchnorm_eval_uses_worker0_stats_on_both_backends(self):
        model_fn, n_features = CASES["batch_norm"]
        loop = _cluster("loop", model_fn, n_features)
        bank = _cluster("auto", model_fn, n_features)
        for _ in range(2):
            loop.run_round(4)
            bank.run_round(4)
        probe = make_gaussian_blobs(n_samples=60, n_features=n_features, n_classes=C, rng=9)

        def eval_loss(model):
            return float(model.loss(probe.X, probe.y).item())

        loss_l = loop.evaluate_synchronized(eval_loss)
        loss_v = bank.evaluate_synchronized(eval_loss)
        assert loss_l == loss_v

    @pytest.mark.parametrize("case", ["dropout", "bn_dropout"], ids=["dropout", "bn_dropout"])
    def test_rng_stream_positions_identical(self, case):
        model_fn, n_features = CASES[case]
        loop = _cluster("loop", model_fn, n_features)
        bank = _cluster("auto", model_fn, n_features)
        for _ in range(3):
            loop.run_round(2)
            bank.run_round(2)
        # Mini-batch sampling streams: one BatchLoader per worker on both
        # backends, positioned identically after the same number of draws.
        assert loop.backend.rng_fingerprint() == bank.backend.rng_fingerprint()
        assert loop.backend.rng_fingerprint()["loaders"] == [
            _generator_state(loader._rng) for loader in _chunk(bank).loader.loaders
        ]
        # Dropout mask streams: the bank template's per-worker streams sit
        # exactly where each loop replica's private generator does.
        loop_streams = [list(w.model.stream_modules()) for w in loop.workers]
        bank_mods = list(_chunk(bank).model.stream_modules())
        assert bank_mods and all(len(mods) == len(bank_mods) for mods in loop_streams)
        for mod_idx, bank_mod in enumerate(bank_mods):
            for worker_idx, mods in enumerate(loop_streams):
                assert _generator_state(bank_mod._bank_rngs[worker_idx]) == (
                    _generator_state(mods[mod_idx]._rng)
                ), f"stream module {mod_idx}, worker {worker_idx}"

    def test_eval_consumes_no_dropout_stream(self):
        model_fn, n_features = CASES["dropout"]
        bank = _cluster("auto", model_fn, n_features)
        bank.run_round(2)
        states = [
            _generator_state(rng)
            for mod in _chunk(bank).model.stream_modules()
            for rng in mod._bank_rngs
        ]
        probe = make_gaussian_blobs(n_samples=40, n_features=n_features, n_classes=C, rng=9)

        bank.evaluate_synchronized(lambda model: float(model.loss(probe.X, probe.y).item()))
        after = [
            _generator_state(rng)
            for mod in _chunk(bank).model.stream_modules()
            for rng in mod._bank_rngs
        ]
        assert states == after


class TestQuadraticBank:
    def _objective(self):
        return QuadraticObjective.random(dim=6, rng=0, noise_std=0.1)

    def test_data_free_trajectory_byte_identical(self):
        obj = self._objective()

        def model_fn():
            return NoisyQuadraticProblem(obj, x0=np.ones(6) * 3.0, rng=0)

        loop = _cluster("loop", model_fn, 0, dataset=False, momentum=0.0)
        bank = _cluster("auto", model_fn, 0, dataset=False, momentum=0.0)
        assert bank.backend_name == "vectorized"
        for tau in (5, 3, 4):
            loss_l = loop.run_round(tau)
            loss_v = bank.run_round(tau)
            assert loss_l == loss_v
            np.testing.assert_array_equal(
                loop.synchronized_parameters, bank.synchronized_parameters
            )
        # Noise streams sit at identical positions after identical draws.
        bank_mods = list(_chunk(bank).model.stream_modules())
        assert len(bank_mods) == 1
        for i, worker in enumerate(loop.workers):
            (loop_mod,) = list(worker.model.stream_modules())
            assert _generator_state(bank_mods[0]._bank_rngs[i]) == _generator_state(
                loop_mod._rng
            )

    def test_stacked_noise_model_matches_reference_streams(self):
        obj = self._objective()
        X = np.random.default_rng(1).normal(size=(M, obj.dim))
        rngs = [np.random.default_rng(s) for s in (5, 6, 7)]
        refs = [np.random.default_rng(s) for s in (5, 6, 7)]
        stacked = obj.stacked_stochastic_gradients(X, rngs)
        for i in range(M):
            np.testing.assert_array_equal(
                stacked[i], obj.stochastic_gradient(X[i], refs[i])
            )
        np.testing.assert_array_equal(
            obj.stacked_values(X), [obj.value(x) for x in X]
        )
        with pytest.raises(ValueError, match="RNG streams"):
            obj.stacked_stochastic_gradients(X, rngs[:1])

    def test_noiseless_objective_needs_no_streams(self):
        obj = QuadraticObjective.random(dim=4, rng=0, noise_std=0.0)
        problem = NoisyQuadraticProblem(obj, rng=0)
        assert not list(problem.stream_modules())
        bank = ParameterBank(problem, M)
        losses = problem.bank_loss(None, None, bank.state())
        assert losses.shape == (M,)

    def test_missing_streams_fail_loudly(self):
        problem = NoisyQuadraticProblem(self._objective(), rng=0)
        bank = ParameterBank(problem, M)
        with pytest.raises(RuntimeError, match="noise stream per"):
            problem.bank_loss(None, None, bank.state())


class TestBankBufferPlumbing:
    def test_parameter_bank_stacks_buffers(self):
        model = MLP(8, C, hidden_sizes=(6,), batch_norm=True, rng=0)
        bank = ParameterBank(model, M)
        assert set(bank.buffers) == {"net.layer1.running_mean", "net.layer1.running_var"}
        for values in bank.buffers.values():
            assert values.shape == (M, 6)
        state = bank.state()
        assert set(state) == set(bank.params) | set(bank.buffers)

    def test_worker_buffers_roundtrip(self):
        model = MLP(8, C, hidden_sizes=(6,), batch_norm=True, rng=0)
        bank = ParameterBank(model, M)
        bank.buffers["net.layer1.running_mean"][1] = 5.0
        bufs = bank.worker_buffers(1)
        np.testing.assert_array_equal(bufs["net.layer1.running_mean"], np.full(6, 5.0))
        target = MLP(8, C, hidden_sizes=(6,), batch_norm=True, rng=1)
        bank.load_worker_buffers(target, 1)
        np.testing.assert_array_equal(
            dict(target.named_buffers())["net.layer1.running_mean"], np.full(6, 5.0)
        )
        with pytest.raises(IndexError):
            bank.worker_buffers(M)

    def test_set_buffer_validates_names(self):
        model = MLP(8, C, hidden_sizes=(6,), batch_norm=True, rng=0)
        with pytest.raises(KeyError, match="no submodule"):
            model.set_buffer("nope.running_mean", np.zeros(6))
        with pytest.raises(KeyError, match="no buffer"):
            model.set_buffer("net.layer1.nope", np.zeros(6))

    def test_buffer_reassignment_stays_registered(self):
        bn = BatchNorm1d(4)
        bn.running_mean = np.ones(4)
        assert dict(bn.named_buffers())["running_mean"] is bn.running_mean
        np.testing.assert_array_equal(bn.running_mean, np.ones(4))

    def test_batchnorm_bank_forward_requires_buffer_state(self):
        model = MLP(8, C, hidden_sizes=(6,), batch_norm=True, rng=0)
        bank = ParameterBank(model, M)
        X = np.zeros((M, B, 8))
        y = np.zeros((M, B), dtype=np.int64)
        with pytest.raises(KeyError, match="ParameterBank.state"):
            model.bank_loss(X, y, bank.params)
        assert model.bank_loss(X, y, bank.state()).shape == (M,)


class TestConvBankUnit:
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_conv2d_bank_matches_per_worker(self, bias):
        rng = np.random.default_rng(0)

        def make():
            return Conv2d(2, 3, kernel_size=3, stride=1, padding=1, bias=bias, rng=7)

        template = make()
        bank = ParameterBank(template, M)
        stacked = rng.normal(size=(M, bank.n_parameters))
        bank.set_stacked_flat(stacked)
        X = rng.normal(size=(M, B, 2, 5, 5))
        out = template.bank_forward(Tensor(X), bank.params)
        out.sum().backward()
        grads = np.concatenate(
            [t.grad.reshape(M, -1) for t in bank.params.values()], axis=1
        )
        for i in range(M):
            ref = make()
            ref.set_flat_parameters(stacked[i])
            ref_out = ref(Tensor(X[i]))
            np.testing.assert_array_equal(out.data[i], ref_out.data)
            ref_out.sum().backward()
            np.testing.assert_array_equal(ref.get_flat_gradients(), grads[i])

    def test_conv2d_bank_rejects_unstacked_input(self):
        conv = Conv2d(1, 2, kernel_size=2, rng=0)
        bank = ParameterBank(conv, M)
        with pytest.raises(ValueError, match="\\(m, B, C, H, W\\)"):
            conv.bank_forward(Tensor(np.zeros((2, 1, 4, 4))), bank.params)

    def test_dropout_without_streams_fails_loudly(self):
        drop = Dropout(0.5, rng=0)
        with pytest.raises(RuntimeError, match="RNG stream per worker"):
            drop.bank_forward(Tensor(np.zeros((M, B, 4))), {})

    def test_attach_bank_streams_validates_architecture(self):
        template = MLP(8, C, hidden_sizes=(6,), dropout=0.3, rng=0)
        mismatched = MLP(8, C, hidden_sizes=(6,), rng=0)  # no dropout
        with pytest.raises(ValueError, match="must match"):
            attach_bank_streams(template, [mismatched])


class TestRegistryModelsRunOnBank:
    """Per-model auto→bank loop equivalence now lives in the consolidated
    matrix (tests/test_equivalence_matrix.py covers every registry entry plus
    batch-norm/dropout variants, byte for byte, on every backend); one
    harness-level run below keeps the run_method plumbing pinned."""

    def _config(self, model, backend):
        return make_config(
            "smoke",
            model=model,
            backend=backend,
            n_train=160,
            n_test=60,
            wall_time_budget=15.0,
            momentum=0.9,
        )

    def test_harness_auto_matches_loop_end_to_end(self):
        record_auto = run_method(self._config("vgg_lite_cnn", "auto"), "pasgd-tau4")
        assert record_auto.config["backend"] == "vectorized"
        record_loop = run_method(self._config("vgg_lite_cnn", "loop"), "pasgd-tau4")
        assert [p.train_loss for p in record_auto.points] == [
            p.train_loss for p in record_loop.points
        ]
        np.testing.assert_array_equal(
            [p.test_accuracy for p in record_auto.points],
            [p.test_accuracy for p in record_loop.points],
        )

    def test_every_registered_model_is_bank_compatible(self):
        from repro.api.registries import MODELS
        from repro.api.registry import filter_kwargs

        for name in available_models():
            builder = MODELS.get(name)
            kwargs = filter_kwargs(
                builder,
                dict(n_features=16, n_classes=C, hidden_sizes=(8,), rng=0),
            )
            assert bank_compatible(builder(**kwargs)), name
