"""Executing sweep campaigns: process-parallel, resumable, deterministic.

:class:`SweepRunner` takes a :class:`~repro.sweep.spec.SweepSpec`, expands it
into content-addressed cells, skips every cell already present in the
:class:`~repro.sweep.store.ResultStore`, and executes the rest through
:func:`~repro.experiments.parallel.run_items`: the parent runs cells from
the front and, with ``jobs > 1``, helper processes forked from it take them
from the back.  Both run a cell from its config dict (which carries its run
seed), the helper from the copy it inherited at the fork.  The parent is the
only writer to the store; because cells are pure functions of their config,
where a cell ran cannot change any stored byte.

A killed or partially-completed campaign resumes for free: re-running the
same spec executes only the cells whose result files are missing.
"""

from __future__ import annotations

import os
import traceback
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.distributed.reuse import BackendHandle
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import run_experiment
from repro.experiments.parallel import run_items
from repro.obs.emit import count, instant, span
from repro.obs.metrics import MetricsRegistry
from repro.sweep.spec import SweepCell, SweepSpec
from repro.sweep.store import ResultStore
from repro.utils.logging import get_logger

__all__ = ["SweepRunner", "SweepReport", "run_sweep"]

logger = get_logger("sweep.runner")


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run` invocation.

    ``executed`` / ``cached`` / ``failed`` partition the campaign's cell
    addresses: freshly run this invocation, already present in the store
    (skipped), and raised during execution (error text kept per address).
    """

    sweep: str
    store: ResultStore
    cells: list[SweepCell]
    executed: list[str] = field(default_factory=list)
    cached: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        """One stable status line (CI greps ``executed=...`` / ``cached=...``)."""
        return (
            f"[sweep] {self.sweep}: total={self.total} executed={len(self.executed)} "
            f"cached={len(self.cached)} failed={len(self.failed)} store={self.store.root}"
        )

    def results(self):
        """Iterate the campaign's stored :class:`CellResult` objects."""
        done = [c.address for c in self.cells if c.address in self.store]
        return self.store.cells(done)


def _execute_cell(
    cell: SweepCell, collect_metrics: bool, backend_handle: "BackendHandle | None" = None
) -> tuple["dict | None", "str | None", "dict | None"]:
    """Run one cell in the current process.

    Returns ``(result, error, metrics)``: the result payload, a
    traceback string on failure, and (only with ``collect_metrics``) a
    metrics snapshot from a per-cell registry.  Metrics are opt-in so the
    default path stores exactly the bytes it always has; the snapshot is the
    store's *sidecar* content, never part of ``result.json``.

    ``backend_handle`` lets consecutive cells on the process that opened it
    reuse one sharded process pool; the runner owns its lifetime.
    """
    try:
        config = ExperimentConfig.from_dict(cell.config.to_dict())
        # On a helper the span is recorded and replayed on the parent.
        with span("sweep_cell", address=cell.address, experiment=config.name):
            if collect_metrics:
                with MetricsRegistry() as registry:
                    runs = run_experiment(config, backend_handle=backend_handle)
                return runs.to_payload(), None, registry.snapshot()
            runs = run_experiment(config, backend_handle=backend_handle)
        return runs.to_payload(), None, None
    except Exception:  # noqa: BLE001 - one bad cell must not sink the campaign
        return None, traceback.format_exc(), None


def _cell_meta(cell: SweepCell) -> dict[str, Any]:
    return {
        "name": cell.config.name,
        "overrides": dict(cell.overrides),
        "run_seed": cell.config.seed,
        "config": cell.config.to_dict(),
    }


class SweepRunner:
    """Run campaigns against a persistent store, in parallel when asked.

    Parameters
    ----------
    store:
        A :class:`ResultStore` or a directory path for one.
    jobs:
        Busy processes, the parent included; ``1`` (default) runs every cell
        in-process.  See :func:`~repro.experiments.parallel.run_items` for
        when helpers start and when everything stays on the parent; a
        helper's telemetry is replayed on the parent in cell order.
    progress:
        Optional callable receiving one line per cell event (the CLI passes
        ``print``); campaign progress also goes to the module logger.
    collect_metrics:
        Run each cell under a fresh metrics registry and persist its
        snapshot as the cell's ``metrics.json`` sidecar (see
        :meth:`ResultStore.put_metrics`).  Off by default so the stored
        result bytes — and the parallel==serial byte-equality guarantee on
        them — are untouched by telemetry.
    """

    def __init__(
        self,
        store: "ResultStore | str | Path",
        jobs: int = 1,
        progress: "Callable[[str], None] | None" = None,
        collect_metrics: bool = False,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.jobs = int(jobs)
        self._progress = progress
        self.collect_metrics = bool(collect_metrics)

    def _emit(self, message: str) -> None:
        logger.info("%s", message)
        if self._progress is not None:
            self._progress(message)

    def run(self, spec: SweepSpec) -> SweepReport:
        """Execute every missing cell of ``spec``; returns the report.

        Duplicate addresses (axes that collapse to the same config) are
        executed once.  Failed cells are reported, not raised — inspect
        ``report.failed`` or check ``report.ok``.  Cells are stored and
        reported in pending order, each as soon as it reaches the parent.
        """
        cells = spec.cells()
        unique: dict[str, SweepCell] = {}
        for cell in cells:
            unique.setdefault(cell.address, cell)
        if len(unique) < len(cells):
            self._emit(
                f"[sweep] {spec.name}: {len(cells) - len(unique)} duplicate "
                f"cell(s) collapsed by content address"
            )

        report = SweepReport(sweep=spec.name, store=self.store, cells=cells)
        # The manifest is a pure function of the spec, so record it *before*
        # executing anything: an interrupted campaign's completed cells stay
        # referenced (store.gc never collects them) and the resume picks up
        # exactly the missing addresses.
        self.store.write_manifest(
            spec.name,
            {
                "name": spec.name,
                "axes": {k: list(v) for k, v in spec.axes.items()},
                "cells": [
                    {"address": c.address, "overrides": dict(c.overrides)}
                    for c in cells
                ],
            },
        )
        pending: list[SweepCell] = []
        for cell in unique.values():
            if cell.address in self.store:
                report.cached.append(cell.address)
                count("sweep_cells_cached_total")
                instant("sweep_cell", address=cell.address, status="cached")
                self._emit(f"[sweep] cached   {cell.address}  {cell.label}")
            else:
                pending.append(cell)

        if pending:
            self._emit(
                f"[sweep] {spec.name}: running {len(pending)}/{len(unique)} cell(s) "
                f"with jobs={min(self.jobs, len(pending))}"
            )
        with ExitStack() as stack:
            # One layout for every pending cell: one BackendHandle spans the
            # parent's cells, so their sharded pool is forked once (see
            # repro.distributed.reuse); else each lineup makes its own.  A
            # helper inherits the handle at the fork but never uses it: its
            # cells make their own, so it never reaches the parent's pool.
            handle = None
            if len({cell.config.backend_handle().layout for cell in pending}) == 1:
                handle = stack.enter_context(pending[0].config.backend_handle())
            parent = os.getpid()

            def run(index: int):
                own = handle if os.getpid() == parent else None
                return _execute_cell(pending[index], self.collect_metrics, own)

            outcomes = stack.enter_context(closing(run_items(len(pending), run, self.jobs)))
            for cell, (result_payload, error, metrics) in zip(pending, outcomes):
                address = cell.address
                if error is not None:
                    report.failed[address] = error
                    count("sweep_cells_failed_total")
                    instant("sweep_cell", address=address, status="failed")
                    self._emit(f"[sweep] FAILED   {address}  {cell.label}")
                    logger.error("cell %s failed:\n%s", address, error)
                else:
                    self.store.put(address, _cell_meta(cell), result_payload)
                    if metrics is not None:
                        self.store.put_metrics(address, metrics)
                    report.executed.append(address)
                    count("sweep_cells_executed_total")
                    instant("sweep_cell", address=address, status="executed")
                    self._emit(f"[sweep] executed {address}  {cell.label}")

        self._emit(report.summary())
        return report


def run_sweep(
    spec: SweepSpec,
    store: "ResultStore | str | Path",
    jobs: int = 1,
    progress: "Callable[[str], None] | None" = None,
    collect_metrics: bool = False,
) -> SweepReport:
    """One-call convenience wrapper: ``run_sweep(spec, "sweeps", jobs=4)``."""
    return SweepRunner(
        store, jobs=jobs, progress=progress, collect_metrics=collect_metrics
    ).run(spec)
