"""Formatting run stores into the paper's tables.

``accuracy_table`` reproduces Table 1 (best test accuracy within the time
budget, per method), ``time_to_loss_table`` and ``speedup_table`` produce the
"X minutes vs Y minutes → Z× speedup" comparisons quoted throughout
Section 5.  ``sweep_summary_table`` renders an entire campaign from a
persistent :class:`~repro.sweep.store.ResultStore` (one row per cell ×
method).  ``format_table`` renders any of them as aligned plain text, which
is what the CLI and ``python -m repro.experiments.claims`` print.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.utils.results import RunStore

__all__ = [
    "format_table",
    "accuracy_table",
    "time_to_loss_table",
    "speedup_table",
    "sweep_summary_table",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None) -> str:
    """Render rows as an aligned plain-text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if math.isnan(cell):
            return "n/a"
        if math.isinf(cell):
            return "inf"
        return f"{cell:.4g}"
    return str(cell)


def accuracy_table(store: RunStore, time_budget: float | None = None) -> list[list[object]]:
    """Rows of (method, best test accuracy %) — the Table 1 quantity."""
    rows: list[list[object]] = []
    for record in store:
        acc = record.best_accuracy(time_budget=time_budget)
        rows.append([record.name, 100.0 * acc if not math.isnan(acc) else float("nan")])
    return rows


def time_to_loss_table(store: RunStore, target_loss: float) -> list[list[object]]:
    """Rows of (method, simulated seconds to reach the target training loss)."""
    rows: list[list[object]] = []
    for record in store:
        rows.append([record.name, record.time_to_loss(target_loss), record.best_loss()])
    return rows


def speedup_table(store: RunStore, baseline: str, target_loss: float) -> list[list[object]]:
    """Rows of (method, speedup over the baseline method at the target loss)."""
    if baseline not in store:
        raise KeyError(f"baseline run {baseline!r} not in store")
    rows: list[list[object]] = []
    for record in store:
        rows.append([record.name, store.speedup(record.name, baseline, target_loss)])
    return rows


def sweep_summary_table(
    result_store,
    addresses: "list[str] | None" = None,
    target_loss: float | None = None,
) -> list[list[object]]:
    """One row per (cell, method) of a sweep campaign, from the store alone.

    ``result_store`` is a :class:`~repro.sweep.store.ResultStore` (or an
    iterable of loaded :class:`~repro.sweep.store.CellResult`); rows are
    ``[cell, method, best loss, best test accuracy %, time to target]`` (the
    last column only when ``target_loss`` is given).  Pair with
    :func:`format_table` and headers like ``["cell", "method", "best loss",
    "best acc (%)", "t(loss<=X)"]``.
    """
    from repro.experiments.figures import iter_sweep_cells

    rows: list[list[object]] = []
    for cell in iter_sweep_cells(result_store, addresses):
        for record in cell.runs:
            acc = record.best_accuracy()
            row: list[object] = [
                cell.label,
                record.name,
                record.best_loss(),
                100.0 * acc if not math.isnan(acc) else float("nan"),
            ]
            if target_loss is not None:
                row.append(record.time_to_loss(target_loss))
            rows.append(row)
    return rows
