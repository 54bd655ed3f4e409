"""Tests for the unified registry + declarative experiment API (repro.api)."""

from __future__ import annotations

import json
import re

import pytest

from repro.api import MODELS, Experiment, Registry, all_registries, filter_kwargs
from repro.experiments.cli import build_parser, main
from repro.experiments.configs import (
    ExperimentConfig,
    available_configs,
    config_spec,
    make_config,
)
from repro.experiments.harness import default_methods, parse_method_spec
from repro.models.registry import build_model, infer_image_geometry, register_model
from repro.runtime.distributions import ParetoDelay


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("widget")
        reg.register("a", int)
        assert reg.get("a") is int
        assert reg.names() == ["a"]
        assert "a" in reg and "b" not in reg
        assert len(reg) == 1

    def test_decorator_form_returns_target(self):
        reg = Registry("widget")

        @reg.register("fn")
        def fn():
            return 42

        assert fn() == 42
        assert reg.get("fn") is fn

    def test_duplicate_raises_value_error_listing_names(self):
        reg = Registry("widget")
        reg.register("a", int)
        with pytest.raises(ValueError, match=r"already registered.*\['a'\]"):
            reg.register("a", float)

    def test_overwrite_replaces(self):
        reg = Registry("widget")
        reg.register("a", int)
        reg.register("a", float, overwrite=True)
        assert reg.get("a") is float

    def test_unknown_lists_available(self):
        reg = Registry("widget")
        reg.register("a", int)
        with pytest.raises(ValueError, match=r"unknown widget 'b'.*\['a'\]"):
            reg.get("b")

    def test_build_calls_factory(self):
        reg = Registry("widget")
        reg.register("pair", lambda x, y: (x, y))
        assert reg.build("pair", x=1, y=2) == (1, 2)

    def test_build_filtered_drops_unknown_kwargs(self):
        reg = Registry("widget")
        reg.register("one", lambda x: x)
        assert reg.build_filtered("one", x=3, y="dropped") == 3

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("a", int)
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(ValueError):
            reg.unregister("a")

    def test_lazy_populate_runs_once(self):
        calls = []
        reg = Registry("widget", populate=lambda: calls.append(1) or reg.register("x", int))
        assert reg.names() == ["x"]
        assert reg.get("x") is int
        assert calls == [1]

    def test_failed_populate_reraises_root_cause_on_retry(self):
        calls = []

        def populate():
            calls.append(1)
            if len(calls) == 1:
                raise ImportError("missing dependency")
            reg.register("x", int)

        reg = Registry("widget", populate=populate)
        with pytest.raises(ImportError, match="missing dependency"):
            reg.get("x")
        # The second lookup retries population instead of reporting an empty
        # registry that masks the real import failure.
        assert reg.get("x") is int
        assert calls == [1, 1]

    def test_filter_kwargs_respects_var_keyword(self):
        assert filter_kwargs(lambda **kw: kw, {"a": 1}) == {"a": 1}
        assert filter_kwargs(lambda a: a, {"a": 1, "b": 2}) == {"a": 1}

    def test_all_registries_are_populated(self):
        for key, reg in all_registries().items():
            assert reg.names(), f"registry {key} is empty"


class TestModelRegistry:
    def test_duplicate_register_model_raises_value_error(self):
        with pytest.raises(ValueError, match="already registered"):
            register_model("mlp", lambda **kw: None)

    def test_register_model_overwrite_roundtrip(self):
        original = MODELS.get("mlp")
        sentinel = lambda **kw: None  # noqa: E731
        register_model("mlp", sentinel, overwrite=True)
        try:
            assert MODELS.get("mlp") is sentinel
        finally:
            register_model("mlp", original, overwrite=True)

    def test_build_model_unknown_error_message_shape(self):
        with pytest.raises(ValueError, match=r"unknown model 'transformer-xxl'; available: \["):
            build_model("transformer-xxl")

    def test_infer_image_geometry(self):
        assert infer_image_geometry(192) == (3, 8)  # 3x8x8 synthetic CIFAR
        assert infer_image_geometry(16) == (1, 4)
        with pytest.raises(ValueError):
            infer_image_geometry(17)

    def test_cnn_builder_adapts_to_flat_features(self):
        model = build_model("vgg_lite_cnn", n_features=16, n_classes=4, rng=0)
        import numpy as np

        assert model(np.zeros((2, 16))).shape == (2, 4)

    def test_cnn_builder_keeps_explicit_image_size_kwarg(self):
        model = build_model("resnet_lite_cnn", image_size=4, n_classes=3, rng=0)
        import numpy as np

        assert model(np.zeros((2, 3, 4, 4))).shape == (2, 3)

    def test_cnn_builder_rejects_geometry_mismatching_features(self):
        # Explicit geometry that cannot view the dataset's flat features must
        # fail at build time, not with a reshape error deep in forward().
        with pytest.raises(ValueError, match="does not match"):
            build_model("vgg_lite_cnn", n_features=192, in_channels=1, rng=0)


class TestConfigSerialization:
    @pytest.mark.parametrize("name", available_configs())
    def test_round_trip_every_named_config(self, name):
        cfg = make_config(name)
        payload = json.loads(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_dict(payload) == cfg

    def test_from_dict_rejects_unknown_field(self):
        payload = make_config("smoke").to_dict()
        payload["warp_factor"] = 9
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_drops_the_retired_shard_transport_key(self):
        # Configs saved while the data plane was a knob carry it; whatever it
        # held, it never changed a trajectory, so it loads as today's config.
        for value in ("auto", "shm", "pipe"):
            saved = {**make_config("smoke").to_dict(), "shard_transport": value}
            assert ExperimentConfig.from_dict(saved) == make_config("smoke")

    def test_from_dict_rejects_unknown_model(self):
        payload = make_config("smoke").to_dict()
        payload["model"] = "transformer-xxl"
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_rejects_unknown_dataset(self):
        payload = make_config("smoke").to_dict()
        payload["dataset"] = "imagenet"
        with pytest.raises(ValueError, match="unknown dataset"):
            ExperimentConfig.from_dict(payload)

    # Timing values a run cannot use: a clock that never moves spins the
    # trainer forever, and a negative spread or delay is not a delay model.
    BAD_TIMINGS = [
        ({"compute_time": 0.0}, "compute_time must be positive, got 0.0"),
        ({"compute_time": -1.0}, "compute_time must be positive"),
        ({"compute_time_std_fraction": -0.5}, "compute_time_std_fraction must be >= 0"),
        ({"alpha": -1.0}, "alpha must be >= 0, got -1.0"),
        ({"delay": {"kind": "constant", "value": 0.0}, "alpha": 0.0}, "mean must be positive, got 0.0"),
        ({"delay": {"kind": "uniform", "low": 0.0, "high": 0.0}}, "mean must be positive"),
        ({"delay": {"value": 1.0}}, "must name its 'kind'"),
        ({"delay": {"kind": "constant", "valu": 1.0}}, "invalid parameters for delay 'constant'"),
        ({"delay": {"kind": "constant", "value": "slow"}}, "invalid parameters for delay 'constant'"),
        ({"delay": {"kind": "weibull"}}, "unknown delay distribution 'weibull'"),
    ]

    @pytest.mark.parametrize("overrides, message", BAD_TIMINGS)
    def test_validate_refuses_unusable_timing(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_config("smoke", **overrides).validate()

    @pytest.mark.parametrize("overrides, message", BAD_TIMINGS)
    def test_from_dict_refuses_unusable_timing(self, overrides, message):
        payload = {**make_config("smoke").to_dict(), **overrides}
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(json.loads(json.dumps(payload)))

    def test_validate_accepts_the_timing_edges(self):
        # No spread (a constant delay) and no communication cost both still run.
        make_config("smoke", compute_time_std_fraction=0.0, alpha=0.0).validate()

    def test_to_dict_rejects_dataset_fn_escape_hatch(self):
        # A dataset is named once, through DATASETS: a callable field is gone
        # from the config, its dict and what from_dict accepts.
        payload = make_config("smoke").to_dict()
        assert "dataset_fn" not in payload
        with pytest.raises(ValueError, match=r"unknown config fields \['dataset_fn'\]"):
            ExperimentConfig.from_dict({**payload, "dataset_fn": None})
        with pytest.raises(TypeError, match="dataset_fn"):
            make_config("smoke", dataset_fn=lambda **kw: None)

    def test_config_spec_is_a_copy(self):
        spec = config_spec("smoke")
        spec["n_workers"] = 99
        assert config_spec("smoke")["n_workers"] == 2

    def test_scale_grows_training_set(self):
        base = make_config("smoke")
        scaled = make_config("smoke", scale=2.0)
        assert scaled.n_train == 2 * base.n_train
        assert scaled.wall_time_budget == pytest.approx(2 * base.wall_time_budget)


class TestMethodSpecs:
    def test_default_lineup_matches_seed(self):
        cfg = make_config("smoke")
        labels = [m.label for m in default_methods(cfg)]
        assert labels == ["sync-sgd", "pasgd-tau8", "adacomm"]

    def test_methods_field_drives_lineup(self):
        cfg = make_config("smoke", methods=("sync-sgd", "pasgd-tau4"))
        labels = [m.label for m in default_methods(cfg)]
        assert labels == ["sync-sgd", "pasgd-tau4"]

    def test_spec_with_kwargs(self):
        cfg = make_config("smoke")
        method = parse_method_spec("fixed:tau=4", cfg)
        assert method.label == "pasgd-tau4"
        assert method.schedule_fn().next_tau() == 4

    def test_adacomm_spec_uses_config_defaults(self):
        cfg = make_config("smoke")
        schedule = parse_method_spec("adacomm", cfg).schedule_fn()
        assert schedule.next_tau() == cfg.adacomm_initial_tau

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown communication schedule"):
            parse_method_spec("quantum-annealing", make_config("smoke"))

    def test_list_valued_spec_argument(self):
        cfg = make_config("smoke")
        method = parse_method_spec("sequence:taus=[4,2,1]", cfg)
        assert method.label == "sequence-3"
        schedule = method.schedule_fn()
        assert [schedule.next_tau() for _ in range(4)] == [4, 2, 1, 1]

    def test_missing_required_argument_raises_value_error(self):
        with pytest.raises(ValueError, match="missing or invalid arguments"):
            parse_method_spec("fixed", make_config("smoke"))

    def test_malformed_pasgd_tau_names_the_spec(self):
        for bad in ("pasgd-tau", "pasgd-taux"):
            with pytest.raises(ValueError, match="malformed tau"):
                parse_method_spec(bad, make_config("smoke"))


class TestDelaySpecs:
    def test_pareto_moment_matched_to_config(self):
        cfg = make_config("smoke", delay="pareto")
        dist = cfg.compute_distribution()
        assert isinstance(dist, ParetoDelay)
        assert dist.mean == pytest.approx(cfg.compute_time)
        assert dist.std == pytest.approx(cfg.compute_time_std_fraction * cfg.compute_time)

    def test_dict_spec_passes_params_verbatim(self):
        cfg = make_config("smoke", delay={"kind": "pareto", "scale": 1.0, "alpha": 3.0})
        dist = cfg.compute_distribution()
        assert isinstance(dist, ParetoDelay) and dist.alpha == 3.0

    def test_zero_std_degenerates_to_constant(self):
        cfg = make_config("smoke", delay="exponential", compute_time_std_fraction=0.0)
        assert cfg.compute_distribution().variance == 0.0

    def test_unknown_delay_raises(self):
        with pytest.raises(ValueError, match="unknown delay distribution"):
            make_config("smoke", delay="weibull").compute_distribution()

    def test_dict_spec_requires_kind(self):
        with pytest.raises(ValueError, match="'kind'"):
            make_config("smoke", delay={"scale": 1.0}).compute_distribution()

    def test_pareto_delay_runs_end_to_end(self):
        from repro.experiments.harness import run_method

        cfg = make_config("smoke", delay="pareto", wall_time_budget=10.0)
        record = run_method(cfg, "sync-sgd")
        assert record.points, "pareto run produced no metric points"


class TestExperimentBuilder:
    def test_issue_chain_smoke_run(self):
        store = (
            Experiment("smoke")
            .model("vgg_lite_cnn")
            .delay("pareto")
            .methods("sync-sgd", "adacomm")
            .set(wall_time_budget=10.0, adacomm_interval=5.0)
            .run()
        )
        assert set(store.names()) == {"sync-sgd", "adacomm"}

    def test_build_returns_validated_config(self):
        cfg = Experiment("smoke").model("softmax").workers(3).seed(11).build()
        assert (cfg.model, cfg.n_workers, cfg.seed) == ("softmax", 3, 11)

    def test_unknown_component_fails_at_builder_time(self):
        with pytest.raises(ValueError, match="unknown model"):
            Experiment("smoke").model("transformer-xxl")
        with pytest.raises(ValueError, match="unknown delay distribution"):
            Experiment("smoke").delay("weibull")
        with pytest.raises(ValueError, match="unknown communication schedule"):
            Experiment("smoke").methods("quantum-annealing")

    def test_underspecified_method_fails_at_builder_time(self):
        with pytest.raises(ValueError, match="missing or invalid arguments"):
            Experiment("smoke").methods("pasgd")

    def test_dataset_with_intrinsic_features_sizes_the_model(self):
        # spirals ignores n_features (always 2-D); the model must follow the
        # data, not the config knob.
        store = (
            Experiment("smoke")
            .dataset("spirals")
            .methods("sync-sgd")
            .set(wall_time_budget=5.0, n_classes=3)
            .run()
        )
        assert store.names() == ["sync-sgd"]

    def test_delay_with_params_becomes_dict_spec(self):
        cfg = Experiment("smoke").delay("pareto", scale=1.0, alpha=3.0).build()
        assert cfg.delay == {"kind": "pareto", "scale": 1.0, "alpha": 3.0}

    def test_save_and_reload(self, tmp_path):
        path = Experiment("smoke").model("softmax").save(str(tmp_path / "cfg.json"))
        with open(path, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
        assert cfg.model == "softmax"

    def test_accepts_ready_config(self):
        base = make_config("smoke", lr=0.123)
        assert Experiment(base).build().lr == 0.123


class TestCLI:
    def test_set_and_model_parsing(self):
        args = build_parser().parse_args(
            ["--config", "smoke", "--model", "vgg_lite_cnn",
             "--set", "n_workers=4", "--set", "alpha=2.0", "--set", "delay=pareto"]
        )
        assert args.model == "vgg_lite_cnn"
        assert dict(args.overrides) == {"n_workers": 4, "alpha": 2.0, "delay": "pareto"}

    def test_set_rejects_malformed_pair(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--set", "n_workers"])

    def test_list_models(self, capsys):
        assert main(["--list", "models"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "mlp" in out and "vgg_lite_cnn" in out

    def test_list_configs(self, capsys):
        assert main(["--list", "configs"]) == 0
        assert "smoke" in capsys.readouterr().out.splitlines()

    def test_list_delays_includes_pareto(self, capsys):
        assert main(["--list", "delays"]) == 0
        assert "pareto" in capsys.readouterr().out.splitlines()

    def test_json_config_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        cfg = make_config("smoke", wall_time_budget=10.0, methods=("sync-sgd", "adacomm"))
        path.write_text(json.dumps(cfg.to_dict()))
        assert main(["--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sync-sgd" in out and "adacomm" in out

    def test_invalid_set_key_exits_with_message(self):
        with pytest.raises(SystemExit, match="invalid --set override"):
            main(["--config", "smoke", "--set", "warp_factor=9"])

    @pytest.mark.parametrize("argv, message", [
        (["--sweep", "smoke_2x2", "--jobs", "0"], "--jobs must be >= 1, got 0"),
        (["--config", "smoke", "--jobs", "3"], "--jobs applies to --sweep only"),
        (["--config", "smoke", "--points", "0"], "--points must be >= 2, got 0"),
        (["--config", "smoke", "--points", "1"], "--points must be >= 2, got 1"),
        (["--config", "smoke", "--set", "n_workers=0"], "n_workers must be >= 1, got 0"),
        (["--config", "smoke", "--set", "batch_size=0"], "batch_size must be >= 1, got 0"),
        (["--config", "smoke", "--set", "eval_every_rounds=0"], "eval_every_rounds must be >= 1, got 0"),
        (["--config", "smoke", "--set", "wall_time_budget=-1"], "wall_time_budget must be positive, got -1"),
        (["--config", "smoke", "--set", "compute_time=0"], "compute_time must be positive, got 0"),
        (["--config", "smoke", "--set", "alpha=-1"], "alpha must be >= 0, got -1"),
        (["--config", "smoke", "--set", "delay={'value': 1.0}"], "delay spec dict must name its 'kind'"),
        (["--config", "smoke", "--set", "delay={'kind': 'constant', 'valu': 1.0}"],
         "invalid parameters for delay 'constant'"),
        (["--config", "smoke", "--set", "n_train=0"], "n_train must be >= 1, got 0"),
        (["--config", "smoke", "--set", "n_test=0"], "n_test must be >= 1, got 0"),
        (["--config", "smoke", "--set", "n_features=0"], "n_features must be >= 1, got 0"),
        (["--config", "smoke", "--set", "hidden_sizes=(16, 0)"], "hidden_sizes must all be >= 1, got (16, 0)"),
        (["--config", "smoke", "--set", "methods=()"], "methods must name at least one method, got ()"),
        # Every field's declared domain: each of these traced back mid-run or ran regardless.
        (["--config", "smoke", "--set", "lr=-1"], "lr must be finite and positive, got -1"),
        (["--config", "smoke", "--set", "lr=0"], "lr must be finite and positive, got 0"),
        (["--config", "smoke", "--set", "momentum=1.5"], "momentum must be in [0, 1), got 1.5"),
        (["--config", "smoke", "--set", "weight_decay=-1.0"], "weight_decay must be finite and non-negative, got -1.0"),
        (["--config", "smoke", "--set", "label_noise=2.0"], "label_noise must be in [0, 1), got 2.0"),
        (["--config", "smoke", "--set", "class_sep=-1.0"], "class_sep must be >= 0, got -1.0"),
        (["--config", "smoke", "--set", "n_workers=100000"],
         "n_train must be >= n_workers * batch_size = 1600000, got 240"),
        (["--config", "smoke", "--set", "n_train=2.5"], "n_train takes integers, got 2.5"),
        (["--config", "smoke", "--set", "model_kwargs={'foo':1}"], "model_kwargs ['foo'] are not arguments of model 'mlp'"),
        (["--config", "smoke", "--set", "lr=nan"], "lr takes finite numbers, got nan"),
        (["--config", "smoke", "--set", "alpha=nan"], "alpha takes finite numbers, got nan"),
        (["--config", "smoke", "--set", "compute_time=nan"], "compute_time takes finite numbers, got nan"),
        (["--config", "smoke", "--set", "wall_time_budget=inf"], "wall_time_budget takes finite numbers, got inf"),
        (["--config", "smoke", "--set", "lr_decay_gamma=0.0"], "lr_decay_gamma must be in (0, 1], got 0.0"),
        (["--config", "smoke", "--set", "lr_decay_gamma=2.0"], "lr_decay_gamma must be in (0, 1], got 2.0"),
        (["--config", "smoke", "--set", "lr_decay_milestones=(-1.0,)"], "lr_decay_milestones must all be positive, got (-1.0,)"),
        (["--config", "smoke", "--set", "batch_size=100000"],
         "n_train must be >= n_workers * batch_size = 200000, got 240"),
        (["--config", "smoke", "--set", "n_classes=1"], "n_classes must be >= 2, got 1"),
        (["--config", "smoke", "--set", "eval_every_rounds=1.5"], "eval_every_rounds takes integers, got 1.5"),
        (["--config", "smoke", "--set", "n_workers=True"], "n_workers takes integers, got True"),
        (["--config", "smoke", "--set", "seed=True"], "seed takes integers, got True"),
        (["--config", "smoke", "--bank-dtype", "float16"], "unknown bank_dtype 'float16'; choose 'float64' or 'float32'"),
    ])
    def test_bad_run_flags_exit_before_anything_runs(self, argv, message, monkeypatch, tmp_path, capsys):
        import repro.experiments.cli as cli

        def must_not_run(*args, **kwargs):
            raise AssertionError("the run started before the flags were checked")

        monkeypatch.chdir(tmp_path)  # a sweep that slipped through writes its store here
        monkeypatch.setattr(cli, "run_experiment", must_not_run)
        with pytest.raises(SystemExit) as stop:
            main(argv)
        # A string code is what Python prints to stderr before exiting with status 1.
        assert re.match(f"error: {re.escape(message)}", stop.value.code) and "\n" not in stop.value.code
        captured = capsys.readouterr()
        assert "error:" not in captured.out + captured.err
        assert "running experiment" not in captured.out

    @pytest.mark.parametrize("argv, message", [
        (["--scale", "0"], "scale must be positive"),
        (["--set", "methods=('gossip-moon-tau4',)"], "unknown topology 'moon'"),
        (["--set", "methods=('pasgd-tau4','fixed:tau=4')"], "share the label 'pasgd-tau4'"),
        (["--scale", "inf"], "scale must be positive and finite, got inf"),
        (["--scale", "nan"], "scale must be positive and finite, got nan"),
        (["--target-loss", "nan"], "--target-loss must be finite, got nan"),
    ])
    def test_bad_scale_or_lineup_exits_with_message(self, argv, message):
        with pytest.raises(SystemExit, match=f"^error: .*{re.escape(message)}"):
            main(["--config", "smoke", *argv])

    def test_unknown_model_exits_with_message(self):
        with pytest.raises(SystemExit, match="unknown model"):
            main(["--config", "smoke", "--model", "transformer-xxl"])

    def test_json_config_missing_name_exits_with_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dataset": "synth_cifar10"}')
        with pytest.raises(SystemExit, match="cannot load config"):
            main(["--config", str(path)])

    def test_json_config_unknown_model_exits_with_message(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "model": "nope"}')
        with pytest.raises(SystemExit, match="cannot load config"):
            main(["--config", str(path)])

    def test_model_override_runs_end_to_end(self, capsys):
        assert main(
            ["--config", "smoke", "--model", "vgg_lite_cnn",
             "--set", "n_workers=4", "--set", "alpha=2.0",
             "--set", "wall_time_budget=10.0", "--points", "2"]
        ) == 0
        assert "model=vgg_lite_cnn" in capsys.readouterr().out
