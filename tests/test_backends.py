"""The vectorized worker-bank backend: unit tests + seeded loop equivalence.

The contract under test is the one the vectorized backend is built on: with
the same seeds, the stacked implementation must reproduce the loop backend's
trajectory — same batches, same gradients, same SGD updates, same averaged
models — within floating-point tolerance, while executing all m replicas
with single NumPy ops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registries import BACKENDS
from repro.data.bank_loader import BankLoader
from repro.data.loader import BatchLoader
from repro.data.partition import partition_dataset
from repro.data.synthetic import make_gaussian_blobs
from repro.distributed.backends import BackendUnsupported, WorkerView
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.collectives import Exact
from repro.distributed.worker_bank import LoopWorkers, WorkerBank
from repro.experiments.configs import make_config
from repro.experiments.harness import run_method
from repro.models.linear import LinearRegressionModel, SoftmaxRegression
from repro.models.mlp import MLP, ResidualMLP
from repro.nn.bank import ParameterBank, bank_compatible
from repro.nn.layers import BatchNorm1d, Linear, Module, Sequential
from repro.optim.bank_sgd import BankSGD
from repro.optim.block_momentum import BlockMomentum
from repro.optim.sgd import SGD
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator
from repro.utils.seeding import SeedSequence

M, B, F, C = 3, 6, 8, 4


def _mlp():
    return MLP(F, C, hidden_sizes=(12, 6), rng=1)


def _stacked_grads(bank: ParameterBank) -> np.ndarray:
    return np.concatenate(
        [t.grad.reshape(bank.n_workers, -1) for t in bank.params.values()], axis=1
    )


class TestBankCompatibility:
    def test_dense_models_supported(self):
        for model in (_mlp(), ResidualMLP(F, C, width=10, n_blocks=2, rng=2),
                      SoftmaxRegression(F, C, rng=3), LinearRegressionModel(F, 1, rng=4)):
            assert bank_compatible(model), type(model).__name__

    def test_cnn_batchnorm_and_quadratic_supported(self):
        from repro.models.cnn import SmallCNN
        from repro.models.quadratic import NoisyQuadraticProblem, QuadraticObjective

        cnn = SmallCNN(in_channels=1, image_size=4, channels=(4,), n_classes=C, rng=0)
        assert bank_compatible(cnn)
        bn_mlp = MLP(F, C, hidden_sizes=(6,), batch_norm=True, rng=0)
        assert bank_compatible(bn_mlp)
        assert BatchNorm1d(4).supports_bank()
        obj = QuadraticObjective.random(dim=4, rng=0)
        assert bank_compatible(NoisyQuadraticProblem(obj, rng=0))

    def test_live_dropout_supported(self):
        # The bank draws one stacked mask per worker from the per-worker
        # streams the loop replicas would own, so live dropout runs stacked.
        dropout_mlp = MLP(F, C, hidden_sizes=(6,), dropout=0.3, rng=0)
        assert bank_compatible(dropout_mlp)
        assert list(dropout_mlp.stream_modules())
        no_dropout = MLP(F, C, hidden_sizes=(6,), dropout=0.0, rng=0)
        assert bank_compatible(no_dropout)
        assert not list(no_dropout.stream_modules())

    def test_live_dropout_without_streams_fails_loudly(self):
        # Direct callers that skip attach_bank_streams must get an error, not
        # a silently shared mask across workers.
        dropout_mlp = MLP(F, C, hidden_sizes=(6,), dropout=0.3, rng=0)
        bank = ParameterBank(dropout_mlp, M)
        X = np.zeros((M, B, F))
        y = np.zeros((M, B), dtype=np.int64)
        with pytest.raises(RuntimeError, match="RNG stream per worker"):
            dropout_mlp.bank_loss(X, y, bank.params)
        dropout_mlp.eval()  # dropout is a no-op in eval mode, no streams needed
        assert dropout_mlp.bank_loss(X, y, bank.params).shape == (M,)

    # Seeded dropout equivalence now lives in the consolidated matrix
    # (tests/test_equivalence_matrix.py, "mlp+batch_norm+dropout" case).

    def test_plain_module_not_supported(self):
        assert not Module().supports_bank()
        assert not bank_compatible(Sequential(Linear(4, 2, rng=0)))  # no bank_loss


def test_one_definition_per_equivalence_layer():
    """Guard against the fork returning: ``forward`` / ``loss`` are inherited.

    Every bank layer has exactly one definition, ``bank_forward`` (and
    ``bank_loss`` for models); a per-replica ``forward`` or ``loss`` of its
    own would be a second one that no backend compares.
    """
    from tests.conftest import bank_layer_classes

    bank_layers = bank_layer_classes()
    forked = sorted(
        f"{klass.__qualname__}.{method}"
        for klass in bank_layers
        for method in ("forward", "loss")
        if method in vars(klass)
    )
    assert not forked, f"second per-replica definitions: {forked}"
    assert Linear in bank_layers  # the definition that stays


class TestParameterBank:
    def test_stacking_and_layout(self):
        model = _mlp()
        bank = ParameterBank(model, M)
        assert bank.n_parameters == model.num_parameters()
        flat = model.get_flat_parameters()
        stacked = bank.get_stacked_flat()
        assert stacked.shape == (M, bank.n_parameters)
        for i in range(M):
            np.testing.assert_array_equal(stacked[i], flat)
            np.testing.assert_array_equal(bank.worker_flat(i), flat)

    def test_stacked_flat_roundtrip(self):
        bank = ParameterBank(_mlp(), M)
        target = np.random.default_rng(0).normal(size=(M, bank.n_parameters))
        bank.set_stacked_flat(target)
        np.testing.assert_allclose(bank.get_stacked_flat(), target)
        np.testing.assert_allclose(bank.worker_flat(1), target[1])

    def test_broadcast_and_per_worker_set(self):
        bank = ParameterBank(_mlp(), M)
        vec = np.arange(bank.n_parameters, dtype=float)
        bank.broadcast_flat(vec)
        for i in range(M):
            np.testing.assert_array_equal(bank.worker_flat(i), vec)
        bank.set_worker_flat(2, -vec)
        np.testing.assert_array_equal(bank.worker_flat(2), -vec)
        np.testing.assert_array_equal(bank.worker_flat(0), vec)

    def test_validation(self):
        bank = ParameterBank(_mlp(), M)
        with pytest.raises(ValueError):
            ParameterBank(_mlp(), 0)
        with pytest.raises(ValueError):
            ParameterBank(Module(), 2)  # no parameters
        with pytest.raises(ValueError):
            bank.broadcast_flat(np.zeros(3))
        with pytest.raises(ValueError):
            bank.set_stacked_flat(np.zeros((M + 1, bank.n_parameters)))
        with pytest.raises(IndexError):
            bank.worker_flat(M)


class TestBankForwardEquivalence:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: MLP(F, C, hidden_sizes=(12, 6), rng=1),
            lambda: ResidualMLP(F, C, width=10, n_blocks=2, rng=2),
            lambda: SoftmaxRegression(F, C, rng=3),
        ],
        ids=["mlp", "residual_mlp", "softmax"],
    )
    def test_losses_and_gradients_match_per_worker(self, make):
        rng = np.random.default_rng(7)
        template = make()
        bank = ParameterBank(template, M)
        stacked = rng.normal(size=(M, bank.n_parameters))
        bank.set_stacked_flat(stacked)
        X = rng.normal(size=(M, B, F))
        y = rng.integers(0, C, size=(M, B))

        losses = template.bank_loss(X, y, bank.params)
        assert losses.shape == (M,)
        losses.sum().backward()
        bank_grads = _stacked_grads(bank)

        for i in range(M):
            ref = make()
            ref.set_flat_parameters(stacked[i])
            loss = ref.loss(X[i], y[i])
            loss.backward()
            assert loss.item() == pytest.approx(float(losses.data[i]), abs=1e-12)
            np.testing.assert_allclose(ref.get_flat_gradients(), bank_grads[i], atol=1e-12)

    def test_regression_loss_matches(self):
        rng = np.random.default_rng(8)
        template = LinearRegressionModel(F, 1, rng=4)
        bank = ParameterBank(template, M)
        stacked = rng.normal(size=(M, bank.n_parameters))
        bank.set_stacked_flat(stacked)
        X = rng.normal(size=(M, B, F))
        y = rng.normal(size=(M, B))
        losses = template.bank_loss(X, y, bank.params)
        losses.sum().backward()
        bank_grads = _stacked_grads(bank)
        for i in range(M):
            ref = LinearRegressionModel(F, 1, rng=4)
            ref.set_flat_parameters(stacked[i])
            loss = ref.loss(X[i], y[i])
            loss.backward()
            assert loss.item() == pytest.approx(float(losses.data[i]), abs=1e-12)
            np.testing.assert_allclose(ref.get_flat_gradients(), bank_grads[i], atol=1e-12)


class TestBankSGD:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lr=0.1),
            dict(lr=0.1, weight_decay=1e-3),
            dict(lr=0.05, momentum=0.9),
        ],
        ids=["plain", "weight_decay", "momentum"],
    )
    def test_matches_per_worker_sgd(self, kwargs):
        rng = np.random.default_rng(9)
        template = _mlp()
        bank = ParameterBank(template, M)
        stacked = rng.normal(size=(M, bank.n_parameters))
        bank.set_stacked_flat(stacked)
        bank_opt = BankSGD(bank, **kwargs)

        refs = []
        for i in range(M):
            model = _mlp()
            model.set_flat_parameters(stacked[i])
            refs.append((model, SGD(model, **kwargs)))

        for step in range(4):
            X = rng.normal(size=(M, B, F))
            y = rng.integers(0, C, size=(M, B))
            bank_opt.zero_grad()
            template.bank_loss(X, y, bank.params).sum().backward()
            bank_opt.step()
            for i, (model, opt) in enumerate(refs):
                opt.zero_grad()
                model.loss(X[i], y[i]).backward()
                opt.step()
        states = bank.get_stacked_flat()
        for i, (model, _) in enumerate(refs):
            np.testing.assert_allclose(model.get_flat_parameters(), states[i], atol=1e-12)

    def test_reset_momentum_matches(self):
        rng = np.random.default_rng(10)
        template = _mlp()
        bank = ParameterBank(template, M)
        opt = BankSGD(bank, lr=0.1, momentum=0.9)
        X = rng.normal(size=(M, B, F))
        y = rng.integers(0, C, size=(M, B))
        template.bank_loss(X, y, bank.params).sum().backward()
        opt.step()
        assert np.any(opt._velocity)
        opt.reset_momentum()
        assert not np.any(opt._velocity)

    def test_validation(self):
        bank = ParameterBank(_mlp(), M)
        with pytest.raises(ValueError):
            BankSGD(bank, lr=0.0)
        with pytest.raises(ValueError):
            BankSGD(bank, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            BankSGD(bank, lr=0.1, weight_decay=-1)
        with pytest.raises(ValueError):
            BankSGD(bank, lr=0.1).set_lr(-0.1)


class TestBankLoader:
    def _shards(self, n_samples=61, n_workers=3):
        dataset = make_gaussian_blobs(
            n_samples=n_samples, n_features=F, n_classes=C, rng=5
        )
        part = partition_dataset(dataset, n_workers, rng=0)
        return [part.shard(i) for i in range(n_workers)]

    def test_reproduces_each_shard_stream(self):
        shards = self._shards()
        bank_loader = BankLoader(shards, batch_size=8, rngs=[11, 12, 13])
        refs = [BatchLoader(s, 8, rng=seed) for s, seed in zip(shards, (11, 12, 13))]
        # Enough draws to cross every shard's epoch boundary several times.
        for _ in range(12):
            X, y = bank_loader.next_batches()
            assert X.shape == (3, 8, F) and y.shape == (3, 8)
            for i, ref in enumerate(refs):
                Xr, yr = ref.next_batch()
                np.testing.assert_array_equal(X[i], Xr)
                np.testing.assert_array_equal(y[i], yr)
        assert bank_loader.epochs_completed == refs[0].epochs_completed

    def test_iterator_protocol(self):
        shards = self._shards()
        loader = BankLoader(shards, batch_size=4, rngs=[0, 1, 2])
        X, y = next(iter(loader))
        assert X.shape[0] == 3 and X.shape[1] == 4

    def test_unequal_effective_batch_sizes_raise(self):
        big = make_gaussian_blobs(n_samples=40, n_features=F, n_classes=C, rng=0)
        tiny = make_gaussian_blobs(n_samples=5, n_features=F, n_classes=C, rng=1)
        with pytest.raises(ValueError):
            BankLoader([big, tiny], batch_size=8, rngs=[0, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            BankLoader([], batch_size=4)
        shards = self._shards()
        with pytest.raises(ValueError):
            BankLoader(shards, batch_size=4, rngs=[0])


def _make_cluster(backend, n_workers=4, momentum=0.0, block_momentum=None,
                  model_fn=None, seed=17):
    dataset = make_gaussian_blobs(
        n_samples=200, n_features=F, n_classes=C, class_sep=2.0, noise_std=0.6, rng=3
    )
    runtime = RuntimeSimulator(
        ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=n_workers, rng=0
    )
    if model_fn is None:
        def model_fn():
            return MLP(F, C, hidden_sizes=(12,), rng=42)
    return SimulatedCluster(
        model_fn=model_fn,
        dataset=dataset,
        runtime=runtime,
        n_workers=n_workers,
        batch_size=8,
        lr=0.2,
        momentum=momentum,
        weight_decay=1e-4,
        collective=Exact(block_momentum=block_momentum.beta if block_momentum else 0.0),
        seed=seed,
        backend=backend,
    )


class TestWorkerBankBackend:
    def test_registry_names(self):
        assert "loop" in BACKENDS and "vectorized" in BACKENDS
        assert BACKENDS.get("loop") is LoopWorkers
        assert BACKENDS.get("vectorized") is WorkerBank

    def test_cluster_invariants_on_vectorized_backend(self):
        cluster = _make_cluster("vectorized")
        assert cluster.backend_name == "vectorized"
        assert isinstance(cluster.backend, WorkerBank)
        assert all(isinstance(w, WorkerView) for w in cluster.workers)
        cluster.run_local_period(5)
        assert cluster.clock.now == pytest.approx(5.0)
        assert cluster.model_discrepancy() > 0
        averaged = cluster.average_models()
        assert cluster.clock.now == pytest.approx(7.0)
        for w in cluster.workers:
            np.testing.assert_allclose(w.get_parameters(), averaged)
        assert cluster.model_discrepancy() == pytest.approx(0.0, abs=1e-12)
        assert cluster.breakdown()["local_iterations"] == 5
        assert cluster.breakdown()["communication_rounds"] == 1

    def test_worker_views_roundtrip_parameters(self):
        cluster = _make_cluster("vectorized", n_workers=2)
        view = cluster.workers[1]
        target = np.arange(cluster.backend.bank.n_parameters, dtype=float)
        view.set_parameters(target)
        np.testing.assert_array_equal(view.get_parameters(), target)
        # worker 0 untouched
        assert not np.array_equal(cluster.workers[0].get_parameters(), target)

    # Plain seeded loop↔bank equivalence is covered (more strictly, byte for
    # byte) by the consolidated matrix in tests/test_equivalence_matrix.py;
    # block momentum stays here because it is a cluster-level feature the
    # matrix's backend-protocol fingerprint does not exercise.

    def test_seeded_equivalence_with_block_momentum(self):
        loop = _make_cluster("loop", momentum=0.9, block_momentum=BlockMomentum(0.4))
        bank = _make_cluster("vectorized", momentum=0.9, block_momentum=BlockMomentum(0.4))
        for _ in range(4):
            loop.run_round(4)
            bank.run_round(4)
        np.testing.assert_allclose(
            loop.synchronized_parameters, bank.synchronized_parameters, atol=1e-9
        )

    def test_evaluate_synchronized_leaves_workers_unchanged(self):
        cluster = _make_cluster("vectorized")
        cluster.run_round(3)
        before = cluster.backend.get_stacked_states()
        dataset = make_gaussian_blobs(n_samples=50, n_features=F, n_classes=C, rng=1)

        def loss_metric(model, X, y):
            return float(model.loss(X, y).item())

        value = cluster.evaluate_synchronized(dataset.X, dataset.y, loss_metric)
        assert np.isfinite(value)
        np.testing.assert_array_equal(before, cluster.backend.get_stacked_states())

    def test_training_reduces_loss_on_vectorized_backend(self):
        cluster = _make_cluster("vectorized")
        dataset = make_gaussian_blobs(
            n_samples=200, n_features=F, n_classes=C, class_sep=2.0, noise_std=0.6, rng=3
        )

        def loss_metric(model, X, y):
            return float(model.loss(X, y).item())

        before = cluster.evaluate_synchronized(dataset.X, dataset.y, loss_metric)
        for _ in range(15):
            cluster.run_round(4)
        after = cluster.evaluate_synchronized(dataset.X, dataset.y, loss_metric)
        assert after < 0.8 * before


class TestAutoBackendSelection:
    def test_auto_picks_vectorized_for_dense_models(self):
        cluster = _make_cluster("auto")
        assert cluster.backend_name == "vectorized"

    def test_auto_picks_vectorized_for_cnn(self):
        from repro.models.cnn import SmallCNN

        def cnn_fn():
            return SmallCNN(in_channels=1, image_size=2, channels=(4,), n_classes=C, rng=0)

        cluster = _make_cluster("auto", model_fn=cnn_fn)
        assert cluster.backend_name == "vectorized"

    def test_auto_picks_vectorized_for_data_free_objectives(self):
        from repro.models.quadratic import NoisyQuadraticProblem, QuadraticObjective

        obj = QuadraticObjective.random(dim=6, rng=0, noise_std=0.1)
        runtime = RuntimeSimulator(
            ConstantDelay(1.0), NetworkModel(1.0, "constant"), n_workers=2, rng=0
        )
        cluster = SimulatedCluster(
            lambda: NoisyQuadraticProblem(obj, rng=0), None, runtime,
            n_workers=2, lr=0.1, seed=0, backend="auto",
        )
        assert cluster.backend_name == "vectorized"

    # CNN loop↔bank trajectory equality is covered byte-for-byte by the
    # consolidated matrix (vgg_lite_cnn / resnet_lite_cnn cases).

    def test_stateful_dropout_factory_matches_loop(self):
        # A factory drawing from a shared generator gives every worker a
        # *different* dropout stream; the bank harvests exactly the replicas
        # the loop would have built, so factory consumption and per-worker
        # streams line up and the trajectories stay byte-identical.
        from repro.utils.seeding import SeedSequence

        def make_factory():
            seeds = SeedSequence(99)
            return lambda: MLP(F, C, hidden_sizes=(6,), dropout=0.4, rng=seeds.generator())

        auto = _make_cluster("auto", model_fn=make_factory(), n_workers=2)
        loop = _make_cluster("loop", model_fn=make_factory(), n_workers=2)
        assert auto.backend_name == "vectorized"
        auto.run_round(2)
        loop.run_round(2)
        np.testing.assert_allclose(
            auto.synchronized_parameters, loop.synchronized_parameters, atol=0
        )

    def test_explicit_vectorized_raises_for_unsupported_model(self):
        # Third-party modules without a bank_loss are the remaining loop-only
        # case (the loop backend is the reference implementation).
        class NoBankModel(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(F, C, rng=0)

            def forward(self, x):
                return self.fc(x)

            def loss(self, x, y):
                from repro.nn.losses import cross_entropy

                return cross_entropy(self(x), y)

        with pytest.raises(BackendUnsupported):
            _make_cluster("vectorized", model_fn=NoBankModel)
        fallback = _make_cluster("auto", model_fn=NoBankModel)
        assert fallback.backend_name == "loop"

    def test_forward_only_layer_inside_builtin_containers(self):
        # A third-party layer that only writes ``forward``, nested in the
        # built-in Sequential / Residual: the containers are stacked
        # definitions now, yet on a bank of one they must still reach it.
        from repro.nn.layers import Dropout, Residual
        from repro.nn.losses import cross_entropy
        from repro.nn.tensor import Tensor

        class Gain(Module):
            def __init__(self, width):
                super().__init__()
                self.gain = Tensor(np.full(width, 1.5), requires_grad=True)

            def forward(self, x):
                return x * self.gain

        class ThirdPartyNet(Module):
            def __init__(self, rng):
                super().__init__()
                self.net = Sequential(
                    Linear(F, 6, rng=0), Gain(6), Residual(Gain(6)),
                    Dropout(0.3, rng=rng), Linear(6, C, rng=1),
                )

            def forward(self, x):
                return self.net(x)

            def loss(self, x, y):
                return cross_entropy(self(x), y)

        def factory():
            seeds = SeedSequence(5)  # stateful: every call advances it
            return lambda: ThirdPartyNet(seeds.generator())

        assert not ThirdPartyNet(0).supports_bank()
        with pytest.raises(BackendUnsupported):
            _make_cluster("vectorized", model_fn=factory())

        loop = _make_cluster("loop", model_fn=factory())
        start = loop.synchronized_parameters.copy()
        loop.run_round(3)
        assert np.all(np.isfinite(loop.synchronized_parameters))
        gains = [p for name, p in loop.workers[0].model.named_parameters() if "gain" in name]
        assert len(gains) == 2 and all(not np.array_equal(g.data, 1.5) for g in gains)
        assert not np.array_equal(loop.synchronized_parameters, start)

        # "auto" probes, falls back, and lands where a direct loop run does:
        # no data, dropout or factory stream was consumed on the way.
        auto = _make_cluster("auto", model_fn=factory())
        assert auto.backend_name == "loop"
        auto.run_round(3)
        np.testing.assert_array_equal(auto.synchronized_parameters, loop.synchronized_parameters)
        assert auto.backend.rng_fingerprint() == loop.backend.rng_fingerprint()

    def test_unknown_backend_name_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            _make_cluster("warp-drive")


class TestHarnessBackendEquivalence:
    """Harness-level wiring; trajectory equivalence itself lives in the
    consolidated matrix (tests/test_equivalence_matrix.py) and the sharded
    acceptance suite (tests/test_sharded_bank.py)."""

    def _config(self, backend):
        return make_config(
            "smoke", wall_time_budget=30.0, n_train=160, n_test=60,
            momentum=0.9, backend=backend,
        )

    def test_auto_resolves_to_vectorized_in_harness(self):
        record = run_method(self._config("auto"), "sync-sgd")
        assert record.config["backend"] == "vectorized"

    def test_config_validation_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_config("smoke", backend="warp-drive").validate()

    def test_config_backend_roundtrips_through_json(self):
        cfg = self._config("vectorized")
        from repro.experiments.configs import ExperimentConfig

        rebuilt = ExperimentConfig.from_dict(cfg.to_dict())
        assert rebuilt.backend == "vectorized"


class TestExperimentBuilderAndCLI:
    def test_experiment_backend_method(self):
        from repro.api import Experiment

        cfg = Experiment("smoke").backend("vectorized").build()
        assert cfg.backend == "vectorized"
        with pytest.raises(ValueError):
            Experiment("smoke").backend("bogus")

    def test_cli_list_backends(self, capsys):
        from repro.experiments.cli import main

        assert main(["--list", "backends"]) == 0
        out = capsys.readouterr().out.split()
        assert "loop" in out and "vectorized" in out

    def test_cli_backend_flag(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "--config", "smoke", "--backend", "vectorized", "--scale", "0.2",
            "--set", "methods=('sync-sgd',)",
        ]) == 0
        assert "backend=vectorized" in capsys.readouterr().out

    def test_cli_rejects_unknown_backend(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["--config", "smoke", "--backend", "bogus"])


class TestClusterSeedConsumption:
    def test_same_seed_sequence_on_both_backends(self):
        # Both backends must spawn worker RNGs in the same order from the
        # cluster seed, so the partition itself is identical too.
        loop = _make_cluster("loop", seed=33)
        bank = _make_cluster("vectorized", seed=33)
        loop_shards = loop._partition.worker_indices
        bank_shards = bank._partition.worker_indices
        for a, b in zip(loop_shards, bank_shards):
            np.testing.assert_array_equal(a, b)
        seq_a, seq_b = SeedSequence(33), SeedSequence(33)
        assert [seq_a.spawn() for _ in range(3)] == [seq_b.spawn() for _ in range(3)]
