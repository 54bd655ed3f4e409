"""Tests for the async & decentralized method family.

Covers the three execution models added on top of the synchronous PASGD
substrate — gossip averaging over sparse topologies, the barrier-free async
parameter server with staleness tracking, and elastic straggler dropout —
plus the divergence-path regressions that ride along (AdaComm under NaN
losses, the guaranteed final evaluation).

The backend-equivalence contract extends to every new path: gossip, async,
and elastic rounds must be byte-identical between the loop reference and the
vectorized bank, because they are built exclusively from backend-generic
operations (``local_period`` / ``get_stacked_states`` /
``set_stacked_states`` / ``broadcast_state``).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from tests.conftest import EQUIVALENCE_FEATURES, build_equivalence_cluster, equivalence_cases
from repro.data.synthetic import make_gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.averaging import weighted_average_states
from repro.distributed.collectives import AsyncFold, Exact, Gossip
from repro.distributed.topology import consensus_distance, mixing_matrix_for
from repro.experiments.configs import ExperimentConfig, make_config
from repro.experiments.harness import parse_method_spec, run_method
from repro.obs.events import EVENT_NAMES
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.distributions import ExponentialDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator

GOSSIP_WORKERS = 6  # smallest m where the MH chordal ring is not complete

_CASES = {case.id: case for case in equivalence_cases()}
_MLP = _CASES["mlp"]


def _async_cluster(backend="vectorized", damping=0.0, n_workers=4):
    return build_equivalence_cluster(
        _MLP, backend, n_workers=n_workers, collective=AsyncFold(damping)
    )


def _async_fingerprint(cluster, rounds=3, tau=2):
    out = {"losses": [], "synced": []}
    for _ in range(rounds):
        out["losses"].append(cluster.run_round(tau))
        out["synced"].append(cluster.synchronized_parameters)
    return out


# -- gossip averaging ---------------------------------------------------------


class TestGossipCluster:
    @pytest.mark.parametrize("topology", ["ring", "star", "mh"])
    def test_loop_and_vectorized_are_byte_identical(self, topology):
        ref = build_equivalence_cluster(
            _MLP, "loop", n_workers=GOSSIP_WORKERS, collective=Gossip(topology)
        )
        cand = build_equivalence_cluster(
            _MLP, "vectorized", n_workers=GOSSIP_WORKERS, collective=Gossip(topology)
        )
        for _ in range(2):
            assert cand.run_local_period(3) == ref.run_local_period(3)
            np.testing.assert_array_equal(cand.average_models(), ref.average_models())
        np.testing.assert_array_equal(
            cand.backend.get_stacked_states(), ref.backend.get_stacked_states()
        )

    def test_gossip_matches_explicit_mixing_matrix(self):
        cluster = build_equivalence_cluster(
            _MLP, "vectorized", n_workers=GOSSIP_WORKERS, collective=Gossip("ring")
        )
        cluster.run_local_period(2)
        before = cluster.backend.get_stacked_states().copy()
        averaged = cluster.average_models()
        after = cluster.backend.get_stacked_states()
        W = mixing_matrix_for("ring", GOSSIP_WORKERS)
        np.testing.assert_array_equal(after, W @ before)
        np.testing.assert_array_equal(averaged, after.mean(axis=0))

    def test_gossip_rounds_compound_and_contract(self):
        one = build_equivalence_cluster(
            _MLP, "vectorized", n_workers=GOSSIP_WORKERS, collective=Gossip("ring")
        )
        three = build_equivalence_cluster(
            _MLP,
            "vectorized",
            n_workers=GOSSIP_WORKERS,
            collective=Gossip("ring", rounds=3),
        )
        one.run_local_period(2)
        three.run_local_period(2)
        pre = consensus_distance(list(one.backend.get_stacked_states()))
        one.average_models()
        three.average_models()
        d1 = consensus_distance(list(one.backend.get_stacked_states()))
        d3 = consensus_distance(list(three.backend.get_stacked_states()))
        assert d1 < pre and d3 < d1

    def test_gossip_workers_stay_decentralized(self):
        # After a sparse gossip mix, workers must NOT share one model (that
        # would be exact averaging); they only agree in the mean.
        cluster = build_equivalence_cluster(
            _MLP, "vectorized", n_workers=GOSSIP_WORKERS, collective=Gossip("ring")
        )
        cluster.run_local_period(2)
        cluster.average_models()
        states = cluster.backend.get_stacked_states()
        assert consensus_distance(list(states)) > 0.0

    def test_gossip_emits_events_and_metrics(self):
        assert {"gossip_mix", "async_apply", "worker_dropout"} <= EVENT_NAMES
        with Tracer() as tracer, MetricsRegistry() as registry:
            cluster = build_equivalence_cluster(
                _MLP, "vectorized", n_workers=GOSSIP_WORKERS, collective=Gossip("mh")
            )
            cluster.run_local_period(2)
            cluster.average_models()
        names = {e["name"] for e in tracer.finish()}
        assert "gossip_mix" in names
        snapshot = registry.snapshot()
        assert snapshot["counters"]["gossip_rounds_total"] == 1.0
        assert snapshot["gauges"]["consensus_distance"] > 0.0

    def test_gossip_rejects_block_momentum(self):
        # Unwritable on the value, refused when a gossip spec meets the lineup's.
        with pytest.raises(TypeError):
            Gossip("ring", block_momentum=0.3)
        with pytest.raises(ValueError, match="block momentum"):
            parse_method_spec("gossip-ring-tau4", make_config("smoke", block_momentum_beta=0.3))


# -- async parameter server ---------------------------------------------------


class TestAsyncCluster:
    def test_loop_and_vectorized_are_byte_identical(self):
        fp_ref = _async_fingerprint(_async_cluster("loop"))
        fp_cand = _async_fingerprint(_async_cluster("vectorized"))
        assert fp_cand["losses"] == fp_ref["losses"]
        for a, b in zip(fp_cand["synced"], fp_ref["synced"]):
            np.testing.assert_array_equal(a, b)

    def test_same_seed_is_deterministic(self):
        a = _async_fingerprint(_async_cluster())
        b = _async_fingerprint(_async_cluster())
        assert a["losses"] == b["losses"]
        for x, y in zip(a["synced"], b["synced"]):
            np.testing.assert_array_equal(x, y)

    def test_staleness_damping_changes_trajectory(self):
        plain = _async_fingerprint(_async_cluster())
        damped = _async_fingerprint(_async_cluster(damping=0.5))
        assert any(
            not np.array_equal(a, b)
            for a, b in zip(plain["synced"], damped["synced"])
        )

    def test_staleness_histogram_and_events(self):
        m = 4
        with Tracer() as tracer, MetricsRegistry() as registry:
            cluster = _async_cluster(n_workers=m)
            cluster.run_round(2)
        events = [e for e in tracer.finish() if e["name"] == "async_apply"]
        assert len(events) == m
        # One generation folds m arrivals: the k-th applied update has seen
        # k earlier server versions since its pull.
        assert sorted(e["fields"]["staleness"] for e in events) == list(range(m))
        snapshot = registry.snapshot()
        hist = snapshot["histograms"]["staleness_updates"]
        assert hist["count"] == m
        assert hist["max"] == float(m - 1)
        assert snapshot["counters"]["async_applies_total"] == float(m)

    def test_staleness_is_bounded_by_two_generations(self):
        # A worker that landed first in the previous generation and lands last
        # in this one has seen m − 1 + m − 1 folds since its pull: random
        # arrival orders reach past m − 1, never past 2(m − 1).
        m = 4
        runtime = RuntimeSimulator(ExponentialDelay(1.0), NetworkModel(0.5, "constant"), n_workers=m, rng=2)
        cluster = SimulatedCluster(
            model_fn=_MLP.model_fn,
            dataset=make_gaussian_blobs(n_samples=80, n_features=EQUIVALENCE_FEATURES, n_classes=4, rng=3),
            runtime=runtime, n_workers=m, batch_size=8, lr=0.05, collective=AsyncFold(), seed=2,
        )
        with MetricsRegistry() as registry:
            for _ in range(20):
                cluster.run_round(1)
        hist = registry.snapshot()["histograms"]["staleness_updates"]
        assert hist["count"] == 20 * m
        assert m - 1 < hist["max"] <= 2 * (m - 1)

    def test_worker_clocks_advance_independently(self):
        cluster = _async_cluster()
        runtime = cluster.runtime
        assert np.all(runtime.worker_clocks == 0.0)
        cluster.run_round(2)
        first = runtime.worker_clocks.copy()
        assert np.all(first > 0.0)
        cluster.run_round(2)
        assert np.all(runtime.worker_clocks > first)
        # The cluster clock tracks the latest arrival, not a barrier sum.
        assert cluster.clock.now == pytest.approx(float(runtime.worker_clocks.max()))

    def test_rejects_bad_arguments(self):
        cluster = _async_cluster()
        with pytest.raises(ValueError):
            cluster.run_round(0)
        with pytest.raises(ValueError):
            AsyncFold(damping=-0.1)
        with pytest.raises(RuntimeError, match="run_local_period"):
            cluster.average_models()  # nothing in flight to fold


# -- elastic stragglers -------------------------------------------------------


class TestElasticCluster:
    def test_dropout_is_deterministic_given_seed(self):
        def survivors_trace(cluster, rounds=4):
            trace = []
            for _ in range(rounds):
                cluster.run_local_period(2)
                s = cluster._last_survivors
                trace.append(None if s is None else s.tolist())
                cluster.average_models()
            return trace

        a = survivors_trace(
            build_equivalence_cluster(_MLP, "vectorized", collective=Exact(dropout_prob=0.5))
        )
        b = survivors_trace(
            build_equivalence_cluster(_MLP, "vectorized", collective=Exact(dropout_prob=0.5))
        )
        assert a == b
        assert any(s is not None and len(s) < 4 for s in a)

    def test_loop_and_vectorized_are_byte_identical(self):
        ref = build_equivalence_cluster(_MLP, "loop", collective=Exact(dropout_prob=0.4))
        cand = build_equivalence_cluster(_MLP, "vectorized", collective=Exact(dropout_prob=0.4))
        for _ in range(3):
            assert cand.run_local_period(2) == ref.run_local_period(2)
            np.testing.assert_array_equal(cand.average_models(), ref.average_models())

    def test_dropout_rng_does_not_perturb_worker_streams(self):
        # The elastic RNG is spawned after the worker streams (and only when
        # the feature is on), so the first period's losses — drawn before any
        # averaging — must match the non-elastic cluster exactly.
        plain = build_equivalence_cluster(_MLP, "vectorized")
        elastic = build_equivalence_cluster(_MLP, "vectorized", collective=Exact(dropout_prob=0.5))
        assert elastic.run_local_period(3) == plain.run_local_period(3)

    def test_survivor_average_folds_only_survivors(self):
        cluster = build_equivalence_cluster(_MLP, "vectorized", collective=Exact(dropout_prob=0.5))
        found = False
        for _ in range(6):
            cluster.run_local_period(2)
            survivors = cluster._last_survivors
            states = cluster.backend.get_stacked_states().copy()
            averaged = cluster.average_models()
            if survivors is not None and 0 < len(survivors) < cluster.n_workers:
                expected = weighted_average_states(
                    [states[i] for i in survivors], [1.0] * len(survivors)
                )
                np.testing.assert_array_equal(averaged, expected)
                found = True
                break
        assert found, "no partial-survivor round in 6 tries (seeded; should not happen)"

    def test_fastest_worker_always_survives(self):
        # A deadline below every per-worker compute time drops everyone; the
        # fastest worker must be resurrected so the round still averages.
        cluster = build_equivalence_cluster(
            _MLP, "vectorized", collective=Exact(dropout_deadline=1e-6)
        )
        cluster.run_local_period(2)
        survivors = cluster._last_survivors
        assert survivors is not None and len(survivors) == 1
        cluster.average_models()  # completes without raising

    def test_broadcast_rejoins_dropped_workers(self):
        cluster = build_equivalence_cluster(_MLP, "vectorized", collective=Exact(dropout_prob=0.6))
        for _ in range(3):
            cluster.run_local_period(2)
            averaged = cluster.average_models()
            states = cluster.backend.get_stacked_states()
            for row in states:  # broadcast reaches every worker, dropped or not
                np.testing.assert_array_equal(row, averaged)

    def test_dropout_emits_events_and_metrics(self):
        with Tracer() as tracer, MetricsRegistry() as registry:
            cluster = build_equivalence_cluster(_MLP, "vectorized", collective=Exact(dropout_prob=0.5))
            dropped = 0
            for _ in range(5):
                cluster.run_local_period(2)
                s = cluster._last_survivors
                dropped += cluster.n_workers - len(s)
                cluster.average_models()
        events = [e for e in tracer.finish() if e["name"] == "worker_dropout"]
        assert dropped > 0
        assert sum(e["fields"]["dropped"] for e in events) == dropped
        assert registry.snapshot()["counters"]["worker_dropouts_total"] == float(dropped)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_equivalence_cluster(_MLP, "vectorized", collective=Exact(dropout_prob=1.0))
        with pytest.raises(ValueError):
            build_equivalence_cluster(_MLP, "vectorized", collective=Exact(dropout_deadline=0.0))
        with pytest.raises(ValueError):
            build_equivalence_cluster(_MLP, "vectorized", collective=Gossip("ring", rounds=0))
        with pytest.raises(ValueError):
            build_equivalence_cluster(_MLP, "vectorized", collective=Gossip("hypercube"))


# -- config plumbing ----------------------------------------------------------


class TestConfigPlumbing:
    def test_retired_lineup_wide_keys_fail_loudly(self):
        # Saved before the spec became the only way to name a collective: each
        # key held a non-default value that changed the trajectory, so loading
        # it without the behaviour would silently change results.
        data = make_config("smoke").to_dict()
        for key, value in [
            ("topology", "ring"), ("gossip_rounds", 2), ("staleness_damping", 0.5),
            ("elastic_dropout_prob", 0.2), ("elastic_deadline", 5.0),
        ]:
            with pytest.raises(ValueError, match=rf"unknown config fields \['{key}'\]"):
                ExperimentConfig.from_dict({**data, key: value})

    def test_validation_rejects_bad_values(self):
        # Each message names its spec, once: a campaign has many.
        cfg = make_config("smoke")
        for spec in (
            "gossip:topology=mesh,tau=2",
            "gossip:topology=ring,rounds=0,tau=2",
            "async:tau=2,damping=-1",
            "elastic:p=1.0,tau=4",
            "elastic:deadline=-2,tau=4",
            "adacomm:gamma=1.0",
            "adacomm:couple_lr=False",
            "sequence:taus=[]",
            "fixed:tau=0",
            "fixed:4",
            "pasgd-taux",
        ):
            with pytest.raises(ValueError, match=re.escape(f"method spec {spec!r}: ")) as caught:
                parse_method_spec(spec, cfg)
            assert str(caught.value).count(repr(spec)) == 1


# -- method specs and the harness ---------------------------------------------


class TestMethodSpecs:
    @pytest.fixture
    def cfg(self):
        return make_config("smoke", n_workers=4, wall_time_budget=25.0)

    @pytest.mark.parametrize(
        "spec, label, collective",
        [
            ("gossip-ring-tau4", "gossip-ring-tau4", Gossip("ring", 1)),
            ("gossip:topology=star,tau=2,rounds=3", "gossip-star-tau2-r3", Gossip("star", 3)),
            ("async-tau8", "async-tau8", AsyncFold(0.0)),
            ("async:tau=4,damping=0.5", "async-tau4-d0.5", AsyncFold(0.5)),
            ("elastic:p=0.1,tau=4", "elastic-tau4-p0.1", Exact(dropout_prob=0.1)),
        ],
    )
    def test_parse_forms(self, cfg, spec, label, collective):
        method = parse_method_spec(spec, cfg)
        assert method.label == label
        assert method.collective == collective

    def test_collectives_are_comparable_values(self, cfg):
        assert parse_method_spec("gossip-ring-tau4", cfg).collective == Gossip("ring", 1)
        assert parse_method_spec("async:tau=4,damping=0.5", cfg).collective == AsyncFold(0.5)
        assert parse_method_spec("elastic:p=0.1,tau=4,deadline=3", cfg).collective == Exact(
            dropout_prob=0.1, dropout_deadline=3.0
        )
        assert len({Gossip("ring"), Gossip("ring", 1), AsyncFold(), Exact()}) == 3

    def test_parse_rejects_malformed_specs(self, cfg):
        for bad in ("gossip-tau4", "gossip", "gossip-ring-tauX",
                    "async-tauX", "elastic", "elastic:tau=4"):
            with pytest.raises(ValueError):
                parse_method_spec(bad, cfg)

    def test_classic_specs_are_unchanged(self, cfg):
        method = parse_method_spec("pasgd-tau8", cfg)
        assert method.collective == cfg.collective() == Exact()
        assert method.label == "pasgd-tau8"

    @pytest.mark.parametrize(
        "spec", ["gossip-ring-tau4", "async-tau4", "elastic:p=0.2,tau=4"]
    )
    def test_run_method_executes_family(self, cfg, spec):
        record = run_method(cfg, spec)
        assert len(record.points) >= 2
        assert np.isfinite(record.points[-1].train_loss)

    def test_family_records_tag_their_mode(self, cfg):
        gossip = run_method(cfg, "gossip-ring-tau4")
        assert gossip.config["topology"] == "ring"
        sync = run_method(cfg, "sync-sgd")
        assert "topology" not in sync.config and "mode" not in sync.config
        asyn = run_method(cfg, "async-tau4")
        assert asyn.config["mode"] == "async"
        elastic = run_method(cfg, "elastic:p=0.2,tau=4")
        assert elastic.config["elastic_dropout_prob"] == 0.2


    @pytest.mark.parametrize(
        "fields, spec, match",
        [
            # Only an exact average honours block momentum or shard-size
            # weights; the first three used to run with the setting silently
            # ignored (block momentum even recorded).
            ({"block_momentum_beta": 0.3}, "async-tau4", "block momentum"),
            ({"weighting": "shard_size"}, "gossip-ring-tau4", "weighting='shard_size'"),
            ({"weighting": "shard_size"}, "async-tau4", "weighting='shard_size'"),
            # the keyword spelling of a gossip spec is refused like the short one
            (
                {"block_momentum_beta": 0.3},
                "gossip:topology=ring,tau=4,rounds=2",
                "block momentum",
            ),
            ({"block_momentum_beta": 0.3}, "gossip-ring-tau4", "block momentum"),
        ],
    )
    def test_conflicts_surface_before_any_cluster_is_built(
        self, cfg, fields, spec, match, monkeypatch
    ):
        from repro.distributed.cluster import SimulatedCluster

        monkeypatch.setattr(SimulatedCluster, "__init__", None)  # must not be reached
        with pytest.raises(ValueError, match=match):
            run_method(cfg.with_overrides(**fields), spec)

    def test_specs_sharing_a_label_fail_before_anything_runs(self, cfg, monkeypatch):
        from repro.api import Experiment
        from repro.distributed.cluster import SimulatedCluster
        from repro.experiments.harness import run_experiment

        monkeypatch.setattr(SimulatedCluster, "__init__", None)  # must not be reached
        match = r"'pasgd-tau4' and 'fixed:tau=4' share the label 'pasgd-tau4'"
        with pytest.raises(ValueError, match=match):
            run_experiment(cfg, methods=["pasgd-tau4", "fixed:tau=4"])
        with pytest.raises(ValueError, match=match):
            Experiment(cfg).methods("pasgd-tau4", "fixed:tau=4")

    def test_async_discrepancy_is_measured_before_the_fold(self, cfg, monkeypatch):
        # TrainerConfig.record_discrepancy documents the *pre-averaging*
        # discrepancy; the async trainer used to log it after the fold.
        from repro.distributed.cluster import SimulatedCluster

        pre, post = [], []
        fold = SimulatedCluster.average_models

        def spy(self):
            pre.append(self.model_discrepancy())
            out = fold(self)
            post.append(self.model_discrepancy())
            return out

        monkeypatch.setattr(SimulatedCluster, "average_models", spy)
        record = run_method(cfg, "async-tau4", record_discrepancy=True)
        logged = [p.extra["model_discrepancy"] for p in record.points[1:]]
        assert len(logged) >= 2 and logged == pre[: len(logged)]
        assert logged != post[: len(logged)]


class TestOneDefinition:
    """Fork guards: the collapse to one round / one trainer / one value holds."""

    def test_cluster_signature_has_one_collective_argument(self):
        import inspect

        from repro.distributed.cluster import SimulatedCluster

        params = list(inspect.signature(SimulatedCluster.__init__).parameters)[1:]
        assert "collective" in params and len(params) <= 13
        assert not {
            "block_momentum", "weighting", "topology", "gossip_rounds",
            "dropout_prob", "dropout_deadline",
            # the process layout travels whole, as the BackendHandle
            "n_shards",
        } & set(params)
        assert SimulatedCluster.run_async_round is SimulatedCluster.run_round

    def test_one_trainer_one_round_one_method_value(self):
        import dataclasses
        import inspect

        from repro.core import trainer
        from repro.experiments import harness

        assert trainer.AsyncPASGDTrainer is trainer.PASGDTrainer
        assert "_execute_round" in vars(trainer.PASGDTrainer)
        assert not trainer.PASGDTrainer.__subclasses__()
        assert [f.name for f in dataclasses.fields(harness.MethodSpec)] == [
            "label", "schedule_fn", "collective",
        ]
        body = inspect.getsource(harness.run_method)
        for name in ("topology", "gossip_rounds", "elastic_", "staleness_damping"):
            assert name not in body

    def test_each_range_check_is_written_once(self):
        import re
        from pathlib import Path

        import repro

        sources = {
            path: path.read_text() for path in Path(repro.__file__).parent.rglob("*.py")
        }
        for check in (
            r'not in \("uniform", "shard_size"\)', r"not in TOPOLOGIES",
            r"\b(?:gossip_)?rounds < 1",
            r"dropout_prob < 1\.0", r"deadline <= 0", r"damping < 0",
        ):
            hits = [p.name for p, text in sources.items() for _ in re.findall(check, text)]
            assert hits == ["collectives.py"], (check, hits)

    def test_float32_gossip_counts_bytes_of_the_gathered_slab(self):
        # W @ slab is float64 whatever the bank stores; counting the mixed
        # array's bytes would double the figure under --bank-dtype float32.
        m, rounds = 4, 2
        with MetricsRegistry() as registry:
            cluster = build_equivalence_cluster(
                _MLP, "vectorized", n_workers=m, bank_dtype="float32",
                collective=Gossip("star", rounds=rounds),
            )
            cluster.run_local_period(2)
            cluster.average_models()
        n_params = cluster.backend.get_stacked_states().shape[1]
        edges = np.count_nonzero(mixing_matrix_for("star", m)) - m
        assert registry.snapshot()["counters"]["bytes_averaged_total"] == float(
            n_params * 4 * edges * rounds
        )


class TestMethodFamilyFrontier:
    def test_campaign_covers_every_execution_model(self, tmp_path):
        from repro.api.registries import SWEEPS
        from repro.experiments.figures import sweep_error_runtime_frontier
        from repro.sweep import ResultStore, SweepRunner
        from repro.sweep.spec import SweepSpec

        spec = SWEEPS.build("method_family_frontier")
        quick = SweepSpec(
            name=spec.name,
            base=spec.base.with_overrides(wall_time_budget=15.0),
            axes={"method": list(spec.axes["method"]), "seed": [7]},
        )
        store = ResultStore(tmp_path)
        report = SweepRunner(store, jobs=1).run(quick)
        assert not report.failed
        rows = sweep_error_runtime_frontier(
            store, target_loss=0.5, addresses=[c.address for c in report.cells]
        )
        labels = {label.split(" :: ")[1] for label, _, _ in rows}
        assert {
            "sync-sgd",
            "pasgd-tau8",
            "adacomm",
            "gossip-ring-tau8",
            "gossip-star-tau8",
            "gossip-mh-tau8",
            "async-tau8",
            "elastic-tau8-p0.1",
        } <= labels


# -- divergence-path regressions ---------------------------------------------


class TestDivergenceRegressions:
    def test_diverging_adacomm_run_completes(self):
        # An absurd learning rate makes the loss overflow to inf/NaN within a
        # few rounds; AdaComm used to die in math.ceil(nan * tau).  Now the
        # controller ignores non-finite observations and keeps its period.
        cfg = make_config("smoke", lr=1e6, wall_time_budget=40.0)
        # Diverging on purpose: the overflow / NaN warnings are this test's
        # to assert — everywhere else a RuntimeWarning is an error
        # (pyproject.toml), so a new NaN path fails loudly.
        with pytest.warns(RuntimeWarning) as caught:
            record = run_method(cfg, "adacomm")
        messages = " | ".join(str(w.message) for w in caught)
        assert "overflow encountered" in messages
        assert "invalid value encountered" in messages
        assert len(record.points) >= 2
        assert not np.isfinite(record.points[-1].train_loss)

    def test_final_point_is_always_evaluated(self):
        cfg = make_config("smoke", eval_every_rounds=3, wall_time_budget=40.0)
        record = run_method(cfg, "pasgd-tau4")
        last = record.points[-1]
        # Whether or not the budget expired on an eval round, the trajectory
        # must end on a genuinely evaluated point.
        assert np.isfinite(last.test_accuracy)
        # Interior non-eval rounds still carry the nan sentinel.
        assert any(np.isnan(p.test_accuracy) for p in record.points[1:-1])
