"""Fluent, declarative experiment builder.

``Experiment`` wraps an :class:`~repro.experiments.configs.ExperimentConfig`
and lets you compose any registered model × dataset × delay × method lineup
from one entry point, validating each name against its registry at the time
it is set::

    from repro.api import Experiment

    store = (
        Experiment("smoke")
        .model("vgg_lite_cnn")
        .delay("pareto")
        .methods("sync-sgd", "adacomm")
        .set(n_workers=4, alpha=2.0)
        .run()
    )

Every mutator returns the builder, ``build()`` returns the immutable config,
and ``run()`` hands it to :func:`repro.experiments.harness.run_experiment`.
"""

from __future__ import annotations

import json
from typing import Any

from repro.api.registries import (
    BACKENDS,
    DATASETS,
    DELAYS,
    LR_SCHEDULES,
    MODELS,
    NETWORK_SCALINGS,
)
from repro.experiments.configs import ExperimentConfig, _apply_scale, make_config

__all__ = ["Experiment"]


class Experiment:
    """Fluent builder over a named or explicit :class:`ExperimentConfig`.

    Parameters
    ----------
    config:
        A named config (see ``available_configs()``) or a ready
        ``ExperimentConfig`` to start from.
    overrides:
        Initial field overrides, as for :meth:`set`.
    """

    def __init__(self, config: str | ExperimentConfig = "smoke", **overrides):
        if isinstance(config, ExperimentConfig):
            self._config = config
        else:
            self._config = make_config(config)
        if overrides:
            self._config = self._config.with_overrides(**overrides)
        self._trace_path: str | None = None
        self._trace_profile = False

    # -- component selection ----------------------------------------------

    def model(self, name: str, **kwargs) -> "Experiment":
        """Select a registered model; extra kwargs go to its builder verbatim."""
        MODELS.get(name)
        self._config = self._config.with_overrides(model=name, model_kwargs=dict(kwargs))
        return self

    def dataset(self, name: str) -> "Experiment":
        """Select a registered dataset generator."""
        DATASETS.get(name)
        self._config = self._config.with_overrides(dataset=name)
        return self

    def delay(self, kind: str, **params) -> "Experiment":
        """Select a compute-time delay distribution.

        Without ``params`` the distribution is moment-matched to the config's
        ``compute_time`` / ``compute_time_std_fraction``; with ``params`` they
        are passed to the distribution verbatim.
        """
        DELAYS.get(kind)
        spec: str | dict = {"kind": kind, **params} if params else kind
        self._config = self._config.with_overrides(delay=spec)
        return self

    def network(self, scaling: str) -> "Experiment":
        """Select how the broadcast delay scales with the number of workers."""
        NETWORK_SCALINGS.get(scaling)
        self._config = self._config.with_overrides(network_scaling=scaling)
        return self

    def lr_schedule(self, name: str) -> "Experiment":
        """Select a registered learning-rate schedule by name."""
        LR_SCHEDULES.get(name)
        self._config = self._config.with_overrides(lr_schedule=name)
        return self

    def backend(self, name: str) -> "Experiment":
        """Select the worker-execution backend ("auto", "loop", "vectorized", "sharded")."""
        BACKENDS.get(name)
        self._config = self._config.with_overrides(backend=name)
        return self

    def shards(self, n: int) -> "Experiment":
        """Set the sharded backend's process count (``backend_shards``)."""
        return self.set(backend_shards=int(n))

    def dtype(self, name: str) -> "Experiment":
        """Set the bank storage dtype: "float64" (byte-identical default) or
        "float32" (opt-in reduced precision, parity within tolerance)."""
        return self.set(bank_dtype=str(name))

    def methods(self, *specs: str) -> "Experiment":
        """Set the method lineup from spec strings (see ``parse_method_spec``).

        The spec names each method's collective (``"gossip-ring-tau4"``,
        ``"async:tau=8,damping=0.5"``, ``"elastic:p=0.1,tau=4"``).  The lineup
        is resolved (and therefore fully validated — names, arguments, shared
        labels) against the current config immediately, so a bad lineup fails
        here rather than at ``run()`` time.
        """
        if not specs:
            raise ValueError("methods() needs at least one method spec")
        from repro.experiments.harness import default_methods

        default_methods(self._config, specs)
        self._config = self._config.with_overrides(methods=tuple(specs))
        return self

    # -- generic knobs ----------------------------------------------------

    def workers(self, n: int) -> "Experiment":
        """Set the simulated cluster size."""
        return self.set(n_workers=int(n))

    def seed(self, value: int) -> "Experiment":
        """Set the experiment's root seed."""
        return self.set(seed=int(value))

    def scale(self, factor: float) -> "Experiment":
        """Scale wall-clock budget, AdaComm interval, and training-set size."""
        self._config = _apply_scale(self._config, factor)
        return self

    def set(self, **overrides: Any) -> "Experiment":
        """Override arbitrary :class:`ExperimentConfig` fields by name."""
        self._config = self._config.with_overrides(**overrides)
        return self

    def trace(self, path: str, profile: bool = False) -> "Experiment":
        """Record a structured event trace of :meth:`run` to ``path``.

        The run executes under a :class:`repro.obs.tracer.Tracer` and the
        resulting ``trace.jsonl`` is flushed to ``path``; inspect it with
        ``python -m repro.obs summary/export/diff``.  With ``profile=True``
        the per-op profiler runs alongside and its rows are bridged into the
        trace as ``profile_op`` events.  Tracing is runtime state, not a
        config field: it never changes what the experiment computes, stores,
        or hashes.
        """
        self._trace_path = str(path)
        self._trace_profile = bool(profile)
        return self

    # -- materialization --------------------------------------------------

    def build(self) -> ExperimentConfig:
        """Validate and return the composed config."""
        return self._config.validate()

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible dict of the composed config."""
        return self.build().to_dict()

    def save(self, path: str) -> str:
        """Write the composed config to ``path`` as JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        return path

    def run(self, record_discrepancy: bool = False):
        """Run the full method lineup; returns the :class:`RunStore`."""
        from repro.experiments.harness import run_experiment

        if self._trace_path is None:
            return run_experiment(self.build(), record_discrepancy=record_discrepancy)
        from repro.obs.tracer import Tracer

        with Tracer(profile=self._trace_profile) as tracer:
            store = run_experiment(self.build(), record_discrepancy=record_discrepancy)
        tracer.flush(self._trace_path)
        return store

    def sweep(
        self,
        axes: "dict[str, list] | None" = None,
        *,
        store: str = "sweeps",
        jobs: int = 1,
        name: str | None = None,
        **axis_kwargs,
    ):
        """Expand a grid over the composed config and run it as a campaign.

        ``axes`` / keyword axes follow :func:`repro.sweep.spec.grid` — config
        field names plus the ``m`` / ``tau`` / ``method`` aliases::

            report = (
                Experiment("smoke")
                .sweep(tau=[1, 8, 20], seed=range(3), store="sweeps", jobs=4)
            )

        Cells already present in the persistent ``store`` are skipped (the
        store is content-addressed), so repeating a sweep is free and a
        killed campaign resumes where it stopped.  Returns the
        :class:`~repro.sweep.runner.SweepReport`; iterate
        ``report.results()`` for the stored trajectories.
        """
        from repro.sweep import SweepRunner, SweepSpec

        merged = {**(axes or {}), **axis_kwargs}
        spec = SweepSpec(name or f"{self._config.name}_sweep", self.build(), merged)
        return SweepRunner(store, jobs=jobs).run(spec)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = self._config
        return (
            f"Experiment(name={c.name!r}, model={c.model!r}, dataset={c.dataset!r}, "
            f"delay={c.delay!r}, methods={c.methods!r}, n_workers={c.n_workers})"
        )
