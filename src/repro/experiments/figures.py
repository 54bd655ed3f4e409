"""Extracting figure data series from run stores and sweep result stores.

There is no plotting dependency in this environment, so "figures" are
produced as data series (lists of (x, y) pairs) plus compact text summaries;
the CLI prints a downsampled view of each series, and the full series can be
saved to JSON for external plotting.

The ``sweep_*`` functions render campaign figures from a persistent
:class:`~repro.sweep.store.ResultStore` *alone* — no in-memory run objects —
so the error-runtime trade-off curves and scaling figures can be regenerated
at any time from a populated store directory.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.results import RunRecord

__all__ = [
    "loss_vs_time_series",
    "tau_vs_time_series",
    "comm_comp_breakdown",
    "summarize_series",
    "iter_sweep_cells",
    "sweep_loss_curves",
    "sweep_error_runtime_frontier",
]


def loss_vs_time_series(record: RunRecord) -> list[tuple[float, float]]:
    """The (wall_time, train_loss) series behind Figures 9–13."""
    return [(p.wall_time, p.train_loss) for p in record.points if not math.isinf(p.train_loss)]


def tau_vs_time_series(record: RunRecord) -> list[tuple[float, int]]:
    """The (wall_time, τ) staircase shown in the top panel of each AdaComm figure."""
    return [(p.wall_time, p.tau) for p in record.points]


def comm_comp_breakdown(record: RunRecord) -> dict[str, float]:
    """Compute vs communication time of a run (the Figure-8 bar chart data)."""
    breakdown = record.config.get("event_breakdown")
    if breakdown is None:
        raise KeyError(f"run {record.name!r} has no event breakdown in its config")
    return dict(breakdown)


def summarize_series(
    series: list[tuple[float, float]], n_points: int = 10
) -> list[tuple[float, float]]:
    """Downsample a series to ~``n_points`` evenly spaced samples for printing."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if len(series) <= n_points:
        return list(series)
    idx = np.linspace(0, len(series) - 1, n_points).round().astype(int)
    return [series[i] for i in idx]


# -- campaign figures, rendered from a persistent ResultStore ---------------


def iter_sweep_cells(source, addresses: "list[str] | None" = None):
    """Normalize a cell source: a ``ResultStore`` or pre-loaded ``CellResult``s.

    Accepting an already-loaded cell list lets callers that render several
    views (summary table + curves + frontier) read and parse each cell's
    JSON exactly once.
    """
    cells = getattr(source, "cells", None)
    return cells(addresses) if callable(cells) else source


def sweep_loss_curves(
    store, addresses: "list[str] | None" = None
) -> dict[str, list[tuple[float, float]]]:
    """One loss-vs-wall-clock series per (cell, method) in a sweep store.

    ``store`` is a :class:`~repro.sweep.store.ResultStore` (or an iterable
    of loaded :class:`~repro.sweep.store.CellResult`); ``addresses``
    restricts the rendering to one campaign's cells (e.g. the manifest's
    address list), defaulting to every completed cell.  Keys are
    ``"<cell label> :: <method>"`` — the curve family behind the paper's
    error-runtime trade-off figures.
    """
    curves: dict[str, list[tuple[float, float]]] = {}
    for cell in iter_sweep_cells(store, addresses):
        for record in cell.runs:
            curves[f"{cell.label} :: {record.name}"] = loss_vs_time_series(record)
    return curves


def sweep_error_runtime_frontier(
    store, target_loss: float, addresses: "list[str] | None" = None
) -> list[tuple[str, float, float]]:
    """The error-runtime frontier of a campaign, from the store alone.

    One ``(label, time_to_target, best_loss)`` point per (cell, method):
    how long each configuration needs to reach ``target_loss`` and how low
    it ultimately gets — the scatter the paper's trade-off discussion (and
    the optimal-τ argument) is built on.  ``time_to_target`` is ``inf`` for
    configurations that never reach the target.
    """
    frontier: list[tuple[str, float, float]] = []
    for cell in iter_sweep_cells(store, addresses):
        for record in cell.runs:
            frontier.append(
                (
                    f"{cell.label} :: {record.name}",
                    record.time_to_loss(target_loss),
                    record.best_loss(),
                )
            )
    return frontier
