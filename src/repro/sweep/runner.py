"""Executing sweep campaigns: process-parallel, resumable, deterministic.

:class:`SweepRunner` takes a :class:`~repro.sweep.spec.SweepSpec`, expands it
into content-addressed cells, skips every cell already present in the
:class:`~repro.sweep.store.ResultStore`, and executes the rest — either
serially in-process or on a :class:`~concurrent.futures.ProcessPoolExecutor`
(``jobs > 1``).  Its workers are not daemonic, so a ``backend="sharded"``
cell spawns real shard processes there, exactly as it does serially.

Worker processes receive only JSON-compatible payloads (the cell's config
dict and run seed); each worker rebuilds its ``ExperimentConfig`` through
``from_dict``, which re-resolves every component name against the registries
*in that process* — so spawned interpreters (the default start method, and
the only one available on Windows/macOS) work without any pickled model or
registry state.  Results come back to the parent, which is the only writer
to the store; because cells are pure functions of their config (seeded NumPy
end to end), pool scheduling order cannot change any stored byte.

A killed or partially-completed campaign resumes for free: re-running the
same spec executes only the cells whose result files are missing.  A pool
worker that dies (SIGKILL, OOM) ends the run at once with one
``RuntimeError`` naming the cells it lost.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.emit import count, instant, span
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
    payload: dict[str, Any], backend_handle=None
) -> tuple[str, "dict | None", "str | None", "dict | None"]:
    """Run one cell in the current process.

    Returns ``(address, result, error, metrics)``: the result payload, a
    traceback string on failure, and (only when the payload asks for
    ``collect_metrics``) a metrics snapshot from a per-cell registry.
    Metrics are opt-in so the default path stores exactly the bytes it
    always has; the snapshot is the store's *sidecar* content, never part of
    ``result.json``.

    Module-level (picklable) so it works under every multiprocessing start
    method.  Imports are local so a spawned interpreter pays them lazily and
    the registries repopulate inside the worker.  ``backend_handle`` (serial
    path only — handles do not cross process boundaries) lets consecutive
    cells reuse one sharded process pool; the runner owns its lifetime.
    """
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.harness import run_experiment
    from repro.obs.metrics import MetricsRegistry

    address = payload["address"]
    try:
        # The config dict already carries the cell's run seed (the spec folds
        # derived seeds back in), so the address is the hash of what runs.
        config = ExperimentConfig.from_dict(payload["config"])
        # The span records under the parent's tracer on the serial path;
        # pool workers have no active tracer, so it costs nothing there.
        with span("sweep_cell", address=address, experiment=config.name):
            if payload.get("collect_metrics"):
                with MetricsRegistry() as registry:
                    runs = run_experiment(config, backend_handle=backend_handle)
                return address, runs.to_payload(), None, registry.snapshot()
            runs = run_experiment(config, backend_handle=backend_handle)
        return address, runs.to_payload(), None, None
    except Exception:  # noqa: BLE001 - one bad cell must not sink the campaign
        return address, None, traceback.format_exc(), None


def _cell_payload(cell: SweepCell, collect_metrics: bool = False) -> dict[str, Any]:
    return {
        "address": cell.address,
        "config": cell.config.to_dict(),
        "run_seed": cell.run_seed,
        "collect_metrics": collect_metrics,
    }


def _cell_meta(cell: SweepCell) -> dict[str, Any]:
    return {
        "name": cell.config.name,
        "overrides": dict(cell.overrides),
        "run_seed": cell.run_seed,
        "config": cell.config.to_dict(),
    }


class SweepRunner:
    """Run campaigns against a persistent store, in parallel when asked.

    Parameters
    ----------
    store:
        A :class:`ResultStore` or a directory path for one.
    jobs:
        Worker processes; ``1`` (default) runs serially in-process, which is
        also the automatic fallback when only one cell is pending.
    mp_context:
        Multiprocessing start method (default ``"spawn"`` — the portable
        choice, and the one that genuinely exercises in-worker registry
        re-resolution; ``"fork"`` is faster on Linux if startup dominates).
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
        mp_context: str = "spawn",
        progress: "Callable[[str], None] | None" = None,
        collect_metrics: bool = False,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.jobs = int(jobs)
        self.mp_context = mp_context
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
        ``report.failed`` or check ``report.ok``.  A pool worker that dies
        raises ``RuntimeError`` after the cells completed so far are stored.
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
                "seed_mode": spec.seed_mode,
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
        by_address = {cell.address: cell for cell in pending}
        # Results are stored and reported as they complete, but a trace must
        # be a pure function of the seeded run, not of pool scheduling: the
        # outcome instant of pending cell k waits for those of the cells
        # before it (serial arrivals are already in order).
        outcome: dict[str, str] = {}
        announced = 0
        for address, result_payload, error, metrics in self._execute(pending):
            cell = by_address[address]
            if error is not None:
                report.failed[address] = error
                count("sweep_cells_failed_total")
                outcome[address] = "failed"
                self._emit(f"[sweep] FAILED   {address}  {cell.label}")
                logger.error("cell %s failed:\n%s", address, error)
            else:
                self.store.put(address, _cell_meta(cell), result_payload)
                if metrics is not None:
                    self.store.put_metrics(address, metrics)
                report.executed.append(address)
                count("sweep_cells_executed_total")
                outcome[address] = "executed"
                self._emit(f"[sweep] executed {address}  {cell.label}")
            while announced < len(pending) and pending[announced].address in outcome:
                head = pending[announced].address
                instant("sweep_cell", address=head, status=outcome[head])
                announced += 1

        self._emit(report.summary())
        return report

    def _execute(self, pending: list[SweepCell]):
        """Yield ``(address, payload, error, metrics)`` for each pending cell."""
        payloads = [_cell_payload(cell, self.collect_metrics) for cell in pending]
        if not payloads:
            return
        jobs = min(self.jobs, len(payloads))
        if jobs == 1:
            # Serial path: when every pending cell selects its backend the
            # same way, one BackendHandle spans the whole campaign, so a
            # sharded pool spawned by the first cell is rebuilt in place by
            # each subsequent one (byte-identical results either way; see
            # repro.distributed.reuse).  Mixed-backend campaigns fall back
            # to the per-lineup handle run_experiment creates itself.
            layouts = {cell.config.backend_handle().layout for cell in pending}
            handle = pending[0].config.backend_handle() if len(layouts) == 1 else None
            try:
                for payload in payloads:
                    yield _execute_cell(payload, backend_handle=handle)
            finally:
                if handle is not None:
                    handle.close()
            return
        # Imported here, not at module level: serial runs and shard children
        # (which import this package) never pay for the executor machinery.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        executor = ProcessPoolExecutor(
            jobs, mp_context=multiprocessing.get_context(self.mp_context)
        )
        try:
            in_flight = {executor.submit(_execute_cell, p): p["address"] for p in payloads}
            for future in as_completed(in_flight):
                try:
                    result = future.result()
                except BrokenProcessPool as err:
                    raise RuntimeError(
                        "a sweep worker process died; re-run to execute the "
                        f"cells it lost: {', '.join(sorted(in_flight.values()))}"
                    ) from err
                del in_flight[future]
                yield result
        finally:
            # On any exit — an error, a caller that stopped iterating — wait
            # for the running cells only, never for the queued rest.
            executor.shutdown(cancel_futures=True)


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
