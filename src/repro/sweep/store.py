"""The persistent, content-addressed results store behind sweep campaigns.

A :class:`ResultStore` maps cell content addresses (see
:func:`repro.sweep.spec.cell_hash`) to completed run results on disk::

    <root>/
      cells/<address>/cell.json      # declared config + axis overrides + run seed
      cells/<address>/result.json    # RunStore payload (all method trajectories)
      sweeps/<campaign>.json         # manifest: which addresses a campaign spans

Everything is plain JSON with sorted keys and **no timestamps**, so the same
cell executed twice produces byte-identical files — the determinism contract
the resume machinery and the test suite rely on.  ``result.json`` is written
last and atomically (temp file + ``os.replace``), so a killed campaign never
leaves a truncated result behind; and a cell is complete if and only if its
``result.json`` parses into a payload with a ``runs`` list, so one truncated
or clobbered by anything else is rerun on resume, never served.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.sweep.spec import format_overrides
from repro.utils.results import RunStore, decode_json_floats, encode_json_floats

__all__ = ["ResultStore", "CellResult", "MergeReport", "QueryHit"]

_CELL_FILE = "cell.json"
_RESULT_FILE = "result.json"
_METRICS_FILE = "metrics.json"


@dataclass(frozen=True)
class CellResult:
    """One completed cell loaded back from the store."""

    address: str
    #: ``cell.json`` payload: ``{"name", "overrides", "run_seed", "config"}``.
    meta: dict[str, Any]
    runs: RunStore

    @property
    def label(self) -> str:
        overrides = self.meta.get("overrides", {})
        if overrides:
            return format_overrides(overrides)
        return self.meta.get("name", self.address)


@dataclass(frozen=True)
class QueryHit:
    """One manifest cell matched by :meth:`ResultStore.query`."""

    campaign: str
    address: str
    #: Axis assignments the campaign recorded for this cell.
    overrides: dict[str, Any]
    #: Whether the cell's result is present in the store.
    completed: bool

    @property
    def label(self) -> str:
        return format_overrides(self.overrides) if self.overrides else self.address


@dataclass(frozen=True)
class MergeReport:
    """Outcome of :meth:`ResultStore.merge_from`.

    ``copied`` / ``identical`` / ``conflicts`` partition the source's
    completed cell addresses; ``manifests_copied`` / ``manifest_conflicts``
    do the same for campaign manifests.  Any conflict means a content
    address holds *different bytes* in the two stores — impossible for
    stores produced by the same code (cells are byte-deterministic pure
    functions of their config), so the merge refuses rather than guess.
    """

    copied: list = field(default_factory=list)
    identical: list = field(default_factory=list)
    conflicts: list = field(default_factory=list)
    manifests_copied: list = field(default_factory=list)
    manifest_conflicts: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.conflicts and not self.manifest_conflicts

    def summary(self) -> str:
        return (
            f"[merge] cells: copied={len(self.copied)} identical={len(self.identical)} "
            f"conflicts={len(self.conflicts)}; manifests: copied={len(self.manifests_copied)} "
            f"conflicts={len(self.manifest_conflicts)}"
        )


def _dump_json(path: Path, payload: Any) -> None:
    """Write JSON deterministically (sorted keys) and atomically.

    Strictly RFC 8259: non-finite floats (``max_iterations`` is ``inf`` in
    every run config; unevaluated accuracies are ``nan``) become tagged
    sentinel strings, and ``allow_nan=False`` turns any future regression
    into a loud ``ValueError`` instead of a silently non-portable file.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(encode_json_floats(payload), indent=2, sort_keys=True, allow_nan=False)
        + "\n"
    )
    os.replace(tmp, path)


def _is_result(path: Path) -> bool:
    """Whether ``path`` holds a whole result: JSON with a ``runs`` list."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    return isinstance(payload, dict) and isinstance(payload.get("runs"), list)


def _load_json(path: Path) -> Any:
    """Read a store file, mapping sentinel strings back to their floats.

    Pre-sentinel files with bare ``NaN``/``Infinity`` tokens still load:
    Python's permissive parser yields float objects, which pass through
    :func:`decode_json_floats` unchanged.
    """
    return decode_json_floats(json.loads(path.read_text()))


class ResultStore:
    """On-disk cache of sweep-cell results, keyed by content address."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # -- layout -----------------------------------------------------------

    def cell_dir(self, address: str) -> Path:
        return self.root / "cells" / address

    def _result_path(self, address: str) -> Path:
        return self.cell_dir(address) / _RESULT_FILE

    def _meta_path(self, address: str) -> Path:
        return self.cell_dir(address) / _CELL_FILE

    def _metrics_path(self, address: str) -> Path:
        return self.cell_dir(address) / _METRICS_FILE

    # -- queries ----------------------------------------------------------

    def __contains__(self, address: str) -> bool:
        """A cell counts as stored only once its result file holds a whole result."""
        return _is_result(self._result_path(address))

    def __len__(self) -> int:
        return len(self.addresses())

    def _written(self) -> list[str]:
        """Sorted addresses of every cell with a result file, whole or not."""
        cells = self.root / "cells"
        if not cells.is_dir():
            return []
        return sorted(d.name for d in cells.iterdir() if (d / _RESULT_FILE).is_file())

    def addresses(self) -> list[str]:
        """Sorted content addresses of every *completed* cell."""
        return [address for address in self._written() if address in self]

    def meta(self, address: str) -> dict[str, Any]:
        """The ``cell.json`` payload of a stored cell."""
        try:
            return _load_json(self._meta_path(address))
        except FileNotFoundError:
            raise KeyError(f"cell {address!r} not in store {self.root}") from None

    def runs(self, address: str) -> RunStore:
        """The :class:`RunStore` (all method trajectories) of a stored cell."""
        try:
            payload = _load_json(self._result_path(address))
        except FileNotFoundError:
            raise KeyError(f"cell {address!r} not in store {self.root}") from None
        return RunStore.from_payload(payload)

    def cell(self, address: str) -> CellResult:
        return CellResult(address=address, meta=self.meta(address), runs=self.runs(address))

    def cells(self, addresses: "list[str] | None" = None) -> Iterator[CellResult]:
        """Iterate stored cells — all of them, or a specific address list."""
        for address in self.addresses() if addresses is None else addresses:
            yield self.cell(address)

    # -- writes -----------------------------------------------------------

    def put(
        self,
        address: str,
        meta: dict[str, Any],
        result_payload: dict[str, Any],
    ) -> None:
        """Persist one completed cell (metadata first, result last).

        ``result_payload`` is a :meth:`RunStore.to_payload` dict.  Writing is
        idempotent: re-putting an address overwrites with identical bytes.
        """
        cell_dir = self.cell_dir(address)
        cell_dir.mkdir(parents=True, exist_ok=True)
        _dump_json(self._meta_path(address), meta)
        _dump_json(self._result_path(address), result_payload)

    def put_metrics(self, address: str, snapshot: dict[str, Any]) -> None:
        """Persist a cell's telemetry snapshot as a sidecar ``metrics.json``.

        Metrics are deliberately *outside* the byte-identity contract:
        snapshots carry wall-time histograms (``shard_rpc_seconds``) that
        differ between executions of the same cell, so they live in their
        own file, never in ``result.json``, and :meth:`merge_from` treats
        them as advisory (copied with a fresh cell, never conflict-checked).
        A cell's completeness is still defined by ``result.json`` alone.
        """
        cell_dir = self.cell_dir(address)
        cell_dir.mkdir(parents=True, exist_ok=True)
        _dump_json(self._metrics_path(address), snapshot)

    def has_metrics(self, address: str) -> bool:
        return self._metrics_path(address).is_file()

    def metrics(self, address: str) -> dict[str, Any]:
        """A stored cell's ``metrics.json`` sidecar payload."""
        try:
            return _load_json(self._metrics_path(address))
        except FileNotFoundError:
            raise KeyError(
                f"cell {address!r} has no metrics sidecar in store {self.root}"
            ) from None

    def write_manifest(self, campaign: str, payload: dict[str, Any]) -> Path:
        """Record which addresses a campaign spans (``sweeps/<name>.json``)."""
        manifest_dir = self.root / "sweeps"
        manifest_dir.mkdir(parents=True, exist_ok=True)
        path = manifest_dir / f"{campaign}.json"
        _dump_json(path, payload)
        return path

    def manifest(self, campaign: str) -> dict[str, Any]:
        path = self.root / "sweeps" / f"{campaign}.json"
        try:
            return _load_json(path)
        except FileNotFoundError:
            raise KeyError(f"no manifest for campaign {campaign!r} in {self.root}") from None

    def campaigns(self) -> list[str]:
        """Names of campaigns with a manifest in this store."""
        manifest_dir = self.root / "sweeps"
        if not manifest_dir.is_dir():
            return []
        return sorted(p.stem for p in manifest_dir.glob("*.json"))

    def query(
        self,
        where: "dict[str, Any] | None" = None,
        campaign: "str | None" = None,
    ) -> list[QueryHit]:
        """Manifest cells whose recorded ``overrides`` match ``where`` exactly.

        Every campaign manifest records, per cell, the axis assignments that
        produced it (``{"tau": 4, "seed": 7}``); ``query`` filters on those.
        A cell matches when it has **every** key in ``where`` with an equal
        value — a cell missing a key does not match (its campaign never set
        that axis), and an empty/absent ``where`` lists everything.  Values
        are compared after a JSON round-trip, because that is how the
        manifest stored them: a tuple-valued axis (``hidden_sizes=(8,)``)
        matches its recorded ``[8]`` form.  Results
        are sorted by (campaign, cell enumeration order); ``completed``
        distinguishes stored results from still-pending addresses, so the
        verb also answers "what is left to run".
        """
        where = json.loads(json.dumps(dict(where or {}), sort_keys=True, allow_nan=False))
        campaigns = [campaign] if campaign is not None else self.campaigns()
        hits: list[QueryHit] = []
        for name in campaigns:
            for cell in self.manifest(name).get("cells", []):
                overrides = dict(cell.get("overrides", {}))
                if any(key not in overrides or overrides[key] != value
                       for key, value in where.items()):
                    continue
                hits.append(
                    QueryHit(
                        campaign=name,
                        address=cell["address"],
                        overrides=overrides,
                        completed=cell["address"] in self,
                    )
                )
        return hits

    # -- maintenance (merge / gc) ------------------------------------------

    def merge_from(self, src: "ResultStore | str | Path", dry_run: bool = False) -> MergeReport:
        """Union another store's completed cells and manifests into this one.

        Safe by construction: cells are content-addressed and
        byte-deterministic, so an address present in both stores must hold
        identical bytes.  The merge is all-or-nothing: the whole source is
        scanned first, and if *any* address (or same-named manifest) holds
        differing bytes the conflicts are reported and **nothing is
        written** — a refused merge leaves the destination untouched.  With
        ``dry_run`` nothing is written even on success.
        """
        src = src if isinstance(src, ResultStore) else ResultStore(src)
        report = MergeReport()
        cells_to_copy: list[tuple[str, str, str]] = []
        # Every source result file, whole or not: a damaged one where the
        # destination holds the cell whole is a conflict, not a silent skip.
        for address in src._written():
            src_meta = src._meta_path(address).read_text()
            src_result = src._result_path(address).read_text()
            if address in self:
                if (
                    self._meta_path(address).read_text() == src_meta
                    and self._result_path(address).read_text() == src_result
                ):
                    report.identical.append(address)
                else:
                    report.conflicts.append(address)
                continue
            report.copied.append(address)
            cells_to_copy.append((address, src_meta, src_result))
        manifests_to_copy: list[tuple[str, str]] = []
        for campaign in src.campaigns():
            src_manifest = (src.root / "sweeps" / f"{campaign}.json").read_text()
            dst_path = self.root / "sweeps" / f"{campaign}.json"
            if dst_path.is_file():
                if dst_path.read_text() != src_manifest:
                    report.manifest_conflicts.append(campaign)
                continue
            report.manifests_copied.append(campaign)
            manifests_to_copy.append((campaign, src_manifest))
        if dry_run or not report.ok:
            return report
        for address, src_meta, src_result in cells_to_copy:
            # Byte-preserving copy, result last and atomic (same contract as
            # put(): a cell is complete iff its result file is whole).
            cell_dir = self.cell_dir(address)
            cell_dir.mkdir(parents=True, exist_ok=True)
            (cell_dir / _CELL_FILE).write_text(src_meta)
            # The metrics sidecar is advisory telemetry (wall-time content,
            # outside the byte-identity contract): it travels with a newly
            # copied cell but is never conflict-checked.
            if src.has_metrics(address):
                (cell_dir / _METRICS_FILE).write_text(
                    src._metrics_path(address).read_text()
                )
            tmp = cell_dir / (_RESULT_FILE + ".tmp")
            tmp.write_text(src_result)
            os.replace(tmp, cell_dir / _RESULT_FILE)
        for campaign, src_manifest in manifests_to_copy:
            dst_path = self.root / "sweeps" / f"{campaign}.json"
            dst_path.parent.mkdir(parents=True, exist_ok=True)
            dst_path.write_text(src_manifest)
        return report

    def referenced_addresses(self) -> set[str]:
        """Addresses referenced by at least one campaign manifest."""
        refs: set[str] = set()
        for campaign in self.campaigns():
            for cell in self.manifest(campaign).get("cells", []):
                refs.add(cell["address"])
        return refs

    def gc(self, dry_run: bool = False) -> list[str]:
        """Prune cell directories no campaign manifest references, and orphaned temp files.

        Orphans appear when a config-schema change shifts content addresses
        or a campaign spec is edited; incomplete cells (no result file) are
        pruned by the same rule.  Interrupted campaigns are safe: the runner
        records the manifest *before* executing any cell, so their completed
        cells stay referenced.  A writer killed between its write and its
        rename (:func:`_dump_json`) leaves a ``*.tmp`` that nothing reads;
        gc deletes those under ``cells/`` and ``sweeps/`` too, so run it
        while no campaign writes to the store.  Returns the sorted orphan
        addresses, then the sorted store-relative ``*.tmp`` paths — removed,
        or merely listed when ``dry_run`` is set.
        """
        cells_dir = self.root / "cells"
        referenced = self.referenced_addresses()
        orphans = sorted(
            d.name for d in cells_dir.iterdir() if d.is_dir() and d.name not in referenced
        ) if cells_dir.is_dir() else []
        temps = sorted(
            str(path.relative_to(self.root)) for top in ("cells", "sweeps") for path in (self.root / top).rglob("*.tmp")
        )
        if not dry_run:
            for path in temps:
                (self.root / path).unlink()
            for address in orphans:
                shutil.rmtree(cells_dir / address)
        return orphans + temps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore(root={str(self.root)!r}, cells={len(self)})"
