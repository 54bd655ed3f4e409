"""Declarative sweep specifications: a base config plus axes of variation.

A :class:`SweepSpec` is three values: a campaign name, a base
:class:`~repro.experiments.configs.ExperimentConfig` and its axes.
:func:`grid` axes expand into their cross-product, :func:`paired` axes zip
into a list of points.  Each point — a :class:`SweepCell` — is the base
config with one combination of axis values applied through
``with_overrides``, so every cell is itself a validated,
JSON-round-trippable config that runs with its own ``seed``.

Cells are identified by a **content address**: the SHA-256 hash of the
canonical (sorted-key JSON) form of the cell's config dict, with the
cosmetic ``name`` field and the process-layout field ``backend_shards`` (it
selects how many processes execute the bank, never what it computes)
excluded.  Two sweeps that expand to the same physics therefore share
cells, a renamed campaign keeps its cache, and the
:class:`~repro.sweep.store.ResultStore` can skip any cell whose address is
already populated.

Axis names are config field names, plus four paper-oriented aliases:

* ``m`` — cluster size (``n_workers``);
* ``tau`` — a single fixed-τ method per cell (``sync-sgd`` for τ = 1,
  ``pasgd-tau<N>`` otherwise), the axis behind the error-runtime figures;
* ``method`` — a single method spec string per cell (e.g. ``"adacomm"``);
* ``config`` — a named config's spec (:func:`config_spec`), so on a
  default base a cell is that named config, address included.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.experiments.configs import ExperimentConfig, check_type, config_spec
from repro.utils.domains import AT_LEAST_ONE

__all__ = ["SweepSpec", "SweepCell", "grid", "paired", "cell_hash"]

#: Hex digits kept from the SHA-256 digest (64 bits — ample for any campaign).
HASH_LENGTH = 16


def grid(**axes: Iterable) -> dict[str, list]:
    """Build a sweep-axis mapping: ``grid(m=[4, 8], tau=[1, 20], seed=range(3))``.

    Axis order is preserved (it determines cell enumeration order); every
    axis must have at least one value.  Purely a readable constructor — a
    plain ``dict`` of lists works everywhere a grid does.
    """
    out: dict[str, list] = {}
    for name, values in axes.items():
        values = list(values)
        if not values:
            raise ValueError(f"sweep axis {name!r} has no values")
        out[name] = values
    return out


class _PairedAxes(dict):
    """Marker type returned by :func:`paired`: axes to be zipped, not crossed.

    ``SweepSpec`` keeps the marker, so the zipping intent travels with the
    axes and cannot silently degrade into a full cross-product.
    """


def paired(**axes: Iterable) -> "_PairedAxes":
    """Equal-length axes zipped positionally instead of cross-multiplied.

    Position i of every axis together forms cell i — a *list of points*
    rather than a grid, e.g. ``paired(m=[2, 4, 8], tau=[20, 10, 5])`` walks a
    diagonal of the (m, τ) plane in three cells instead of nine.  The
    returned mapping carries the pairing as a marker, so
    ``SweepSpec(name, base, paired(...))`` needs no extra flag.
    """
    out = _PairedAxes(grid(**axes))
    lengths = {name: len(values) for name, values in out.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"paired axes must have equal lengths, got {lengths}")
    return out


def format_overrides(overrides: Mapping[str, Any]) -> str:
    """Canonical human-readable tag for axis assignments: ``"tau=4, seed=7"``."""
    return ", ".join(f"{k}={v}" for k, v in overrides.items())


def _integer_axis(name: str, value: Any) -> int:
    """``value`` as an int; a bool or a non-integral number would run a cell other than its label."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise ValueError(f"sweep axis {name!r} takes integers, got {value!r}")
    return int(value)


def _resolve_axis(name: str, value: Any) -> dict[str, Any]:
    """Map one axis assignment to concrete ``ExperimentConfig`` overrides."""
    if name == "m":
        return {"n_workers": value}
    if name == "tau":
        tau = _integer_axis(name, value)
        AT_LEAST_ONE("tau axis values", tau)
        return {"methods": ("sync-sgd" if tau == 1 else f"pasgd-tau{tau}",)}
    if name == "method":
        return {"methods": (value,) if isinstance(value, str) else tuple(value)}
    if name == "config":
        return config_spec(value)
    return {name: value}


#: Config fields excluded from the content address: ``name`` is display
#: metadata, and ``backend_shards`` selects how many shard processes execute
#: the worker bank — the backends are byte-identical, so neither can change
#: a stored result.  Excluding them keeps re-runs under a different layout
#: (and stores populated before the field existed) as pure cache hits.
HASH_EXCLUDED_FIELDS = ("name", "backend_shards")

#: Fields elided from the content address only at their listed default.
#: Unlike :data:`HASH_EXCLUDED_FIELDS` these *can* change the trajectory
#: (``bank_dtype="float32"`` is a genuinely different computation and must
#: address separately), but at the byte-identity-preserving default they are
#: dropped so configs hashed before the field existed keep their addresses —
#: stores populated by older versions stay pure cache hits.
HASH_DEFAULT_ELIDED_FIELDS = {"bank_dtype": "float64"}


def cell_hash(config: ExperimentConfig) -> str:
    """Content address of a cell: hash of its canonical config dict.

    The fields in :data:`HASH_EXCLUDED_FIELDS` are excluded — they affect
    presentation or process layout only, never the trajectory, so cells
    reaching the same physics share an address (and its stored result).
    Fields in :data:`HASH_DEFAULT_ELIDED_FIELDS` are dropped only when they
    hold their trajectory-preserving default, so newly added knobs don't
    invalidate previously stored cells.
    """
    payload = config.to_dict()
    for field_name in HASH_EXCLUDED_FIELDS:
        payload.pop(field_name, None)
    for field_name, default in HASH_DEFAULT_ELIDED_FIELDS.items():
        if payload.get(field_name) == default:
            payload.pop(field_name, None)
    # allow_nan=False: a non-finite value in a config field would serialize
    # as a non-RFC-8259 token whose bytes (and thus the address) depend on
    # the writer — better to refuse loudly than to mint a fragile address.
    canonical = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:HASH_LENGTH]


@dataclass(frozen=True)
class SweepCell:
    """One concrete point of a sweep grid."""

    index: int
    #: Axis assignments that produced this cell, e.g. ``{"tau": 4, "seed": 7}``.
    overrides: dict[str, Any]
    config: ExperimentConfig
    #: Content address (see :func:`cell_hash`) of ``config``.
    address: str

    @property
    def label(self) -> str:
        """Human-readable cell tag, e.g. ``"tau=4, seed=7"``."""
        return format_overrides(self.overrides)


@dataclass(frozen=True)
class SweepSpec:
    """A campaign: a base config plus axes expanding into a grid of cells.

    Parameters
    ----------
    name:
        Campaign name (used for cell naming and the store manifest).
    base:
        The :class:`ExperimentConfig` every cell starts from.  Cells are
        content-addressed through its ``to_dict()``.
    axes:
        Ordered mapping of axis name → values: :func:`grid` axes expand
        into their cross-product, :func:`paired` axes zip positionally.  Axis
        names are config fields or the aliases ``m`` / ``tau`` / ``method`` /
        ``config``; two axes may not resolve to the same config field.  Every
        cell runs with its config's own ``seed``, so cells differing only in
        method or τ share datasets and initializations (common random
        numbers, the paper's paired-comparison setting).
    """

    name: str
    base: ExperimentConfig
    axes: Mapping[str, Sequence]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep name must be non-empty")
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        kind = _PairedAxes if isinstance(self.axes, _PairedAxes) else dict
        object.__setattr__(self, "axes", kind({k: list(v) for k, v in self.axes.items()}))
        seen_fields: dict[str, str] = {}
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"sweep axis {axis!r} has no values")
            # Every value, not the first: two named configs set different fields.
            # A value of the wrong type is refused here; its domain, with the cell.
            for target, value in (item for v in values for item in _resolve_axis(axis, v).items()):
                check_type(target, value, f"sweep axis {axis!r}")
                if seen_fields.setdefault(target, axis) != axis:
                    raise ValueError(
                        f"axes {seen_fields[target]!r} and {axis!r} both set "
                        f"config field {target!r}"
                    )
        self.base.to_dict()  # fails loudly on non-serializable configs

    @property
    def n_cells(self) -> int:
        lengths = [len(values) for values in self.axes.values()]
        return lengths[0] if isinstance(self.axes, _PairedAxes) else math.prod(lengths)

    def cells(self) -> list[SweepCell]:
        """Expand the spec into validated, content-addressed cells.

        Grid enumeration order is the row-major product of the axes in
        insertion order (last axis varies fastest); paired axes are walked
        positionally.
        """
        names = list(self.axes)
        values = list(self.axes.values())
        combos = zip(*values) if isinstance(self.axes, _PairedAxes) else itertools.product(*values)
        cells: list[SweepCell] = []
        for index, combo in enumerate(combos):
            overrides = dict(zip(names, combo))
            field_overrides: dict[str, Any] = {}
            for axis, value in overrides.items():
                field_overrides.update(_resolve_axis(axis, value))
            config = self.base.with_overrides(
                name=f"{self.name}[{format_overrides(overrides)}]", **field_overrides
            ).validate()
            cells.append(SweepCell(index, overrides, config, cell_hash(config)))
        return cells
