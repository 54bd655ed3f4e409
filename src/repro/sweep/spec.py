"""Declarative sweep specifications: a base config plus axes of variation.

A :class:`SweepSpec` is the campaign analogue of an
:class:`~repro.experiments.configs.ExperimentConfig`: pure data describing a
*grid* of concrete experiment configs.  Each point of the grid — a
:class:`SweepCell` — is produced by applying one combination of axis values
to the base config through the existing ``with_overrides`` / ``to_dict`` /
``from_dict`` spec machinery, so every cell is itself a validated,
JSON-round-trippable config.

Cells are identified by a **content address**: the SHA-256 hash of the
canonical (sorted-key JSON) form of the cell's config dict, with the
cosmetic ``name`` field and the process-layout fields (``backend_shards``,
``auto_shard_threshold`` — they select how many processes execute the bank,
never what it computes) excluded.  Two sweeps that expand to the same
physics therefore share cells, a renamed campaign keeps its cache, and the
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
import numbers
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.experiments.configs import ExperimentConfig, config_spec
from repro.utils.seeding import check_random_state

__all__ = ["SweepSpec", "SweepCell", "grid", "paired", "cell_hash", "derive_cell_seed"]

#: Hex digits kept from the SHA-256 digest (64 bits — ample for any campaign).
HASH_LENGTH = 16

_SEED_MODES = ("shared", "decorrelated")
_EXPANSIONS = ("grid", "paired")


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

    ``SweepSpec`` recognizes the marker and switches itself to
    ``expansion="paired"``, so the zipping intent travels with the axes and
    cannot silently degrade into a full cross-product.
    """


def _check_equal_lengths(axes: Mapping[str, Sequence]) -> None:
    lengths = {name: len(values) for name, values in axes.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"paired axes must have equal lengths, got {lengths}")


def paired(**axes: Iterable) -> "_PairedAxes":
    """Equal-length axes zipped positionally instead of cross-multiplied.

    Position i of every axis together forms cell i — a *list of points*
    rather than a grid, e.g. ``paired(m=[2, 4, 8], tau=[20, 10, 5])`` walks a
    diagonal of the (m, τ) plane in three cells instead of nine.  The
    returned mapping carries the pairing as a marker, so
    ``SweepSpec(name, base, paired(...))`` needs no extra flag.
    """
    out = _PairedAxes(grid(**axes))
    _check_equal_lengths(out)
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
        return {"n_workers": _integer_axis(name, value)}
    if name == "tau":
        tau = _integer_axis(name, value)
        if tau < 1:
            raise ValueError(f"tau axis values must be >= 1, got {value!r}")
        return {"methods": ("sync-sgd" if tau == 1 else f"pasgd-tau{tau}",)}
    if name == "method":
        return {"methods": (value,) if isinstance(value, str) else tuple(value)}
    if name == "config":
        return config_spec(value)
    return {name: value}


#: Config fields excluded from the content address: ``name`` is display
#: metadata, and the process-layout knobs select how the worker bank is
#: executed (how many shard processes, when auto escalates) — the backends
#: are byte-identical, so these can never change a stored result.  Excluding
#: them keeps re-runs under a different layout (and stores populated before
#: the fields existed) as pure cache hits.
HASH_EXCLUDED_FIELDS = ("name", "backend_shards", "auto_shard_threshold")

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


def derive_cell_seed(address: str, base_seed: int) -> int:
    """Deterministic per-cell seed mixing a cell's config hash into its seed.

    Used by ``seed_mode="decorrelated"`` sweeps: every cell gets an
    independent RNG stream that is still a pure function of the cell's
    declared config, so re-runs and resumed campaigns reproduce
    byte-identical results regardless of execution order or worker count.
    The derived seed is folded back into the cell's config before the final
    content address is computed (the address hashes what actually runs).
    """
    digest = hashlib.sha256(f"{address}:{base_seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


@dataclass(frozen=True)
class SweepCell:
    """One concrete point of a sweep grid."""

    index: int
    #: Axis assignments that produced this cell, e.g. ``{"tau": 4, "seed": 7}``.
    overrides: dict[str, Any]
    config: ExperimentConfig
    #: Content address (see :func:`cell_hash`) — always the hash of the
    #: config *as executed*, so stored results never collide across modes.
    address: str
    #: Seed the runner executes with (always == ``config.seed``; kept as an
    #: explicit field so store metadata records it even if defaults change).
    run_seed: int

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
        Ordered mapping of axis name → values (see :func:`grid`).  Axis
        names are config fields or the aliases ``m`` / ``tau`` / ``method`` /
        ``config``;
        two axes may not resolve to the same config field.
    seed_mode:
        ``"shared"`` (default) — each cell runs with its config's own
        ``seed``, so cells differing only in method/τ share datasets and
        initializations (common random numbers, the paper's paired-
        comparison setting).  ``"decorrelated"`` — each cell's run seed is
        derived from the hash of its declared config
        (:func:`derive_cell_seed`) and folded back into the config, fully
        decorrelating the grid; the cell's address is then the hash of the
        config as executed, so the two modes can never collide in a store.
    expansion:
        ``"grid"`` (default) — the row-major cross-product of the axes.
        ``"paired"`` — equal-length axes zipped positionally: cell i takes
        value i of every axis.  Axes built with :func:`paired` carry the
        mode themselves, so the flag is only needed for plain dict axes.
    sample_n, sample_seed:
        When ``sample_n`` is set, a random-search subsample of that many
        cells is drawn from the expansion with a seeded RNG (see
        :meth:`random`); enumeration order of the kept cells follows the
        underlying expansion, so the same ``(n, seed)`` always yields the
        same campaign.  The store and runner are untouched — a sampled
        campaign is just a shorter cell list.
    """

    name: str
    base: ExperimentConfig
    axes: Mapping[str, Sequence]
    seed_mode: str = "shared"
    expansion: str = "grid"
    sample_n: "int | None" = None
    sample_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sweep name must be non-empty")
        if self.seed_mode not in _SEED_MODES:
            raise ValueError(
                f"unknown seed_mode {self.seed_mode!r}; choose from {list(_SEED_MODES)}"
            )
        if self.expansion not in _EXPANSIONS:
            raise ValueError(
                f"unknown expansion {self.expansion!r}; choose from {list(_EXPANSIONS)}"
            )
        if isinstance(self.axes, _PairedAxes):
            # paired(...) declares the zipping intent with the axes.
            object.__setattr__(self, "expansion", "paired")
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        object.__setattr__(self, "axes", {k: list(v) for k, v in self.axes.items()})
        if self.expansion == "paired":
            _check_equal_lengths(self.axes)
        if self.sample_n is not None and self.sample_n < 1:
            raise ValueError(f"sample_n must be >= 1, got {self.sample_n}")
        seen_fields: dict[str, str] = {}
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"sweep axis {axis!r} has no values")
            # Every value, not the first: two named configs set different fields.
            for target in dict.fromkeys(t for v in values for t in _resolve_axis(axis, v)):
                if target in seen_fields:
                    raise ValueError(
                        f"axes {seen_fields[target]!r} and {axis!r} both set "
                        f"config field {target!r}"
                    )
                seen_fields[target] = axis
        self.base.to_dict()  # fails loudly on non-serializable configs

    def random(self, n: int, seed: int = 0) -> "SweepSpec":
        """Random-search variant: keep a seeded sample of ``n`` cells.

        Purely declarative — returns a new spec; the sample is drawn without
        replacement inside :meth:`cells`, so the same ``(n, seed)`` always
        names the same sub-campaign and resumes from the store for free.
        """
        if n < 1:
            raise ValueError(f"random sample size must be >= 1, got {n}")
        return replace(self, sample_n=int(n), sample_seed=int(seed))

    def _combos(self) -> "list[tuple]":
        values = [self.axes[n] for n in self.axes]
        if self.expansion == "paired":
            return list(zip(*values))
        return list(itertools.product(*values))

    @property
    def n_cells(self) -> int:
        if self.expansion == "paired":
            n = len(next(iter(self.axes.values())))
        else:
            n = 1
            for values in self.axes.values():
                n *= len(values)
        if self.sample_n is not None:
            n = min(n, self.sample_n)
        return n

    def cells(self) -> list[SweepCell]:
        """Expand the spec into validated, content-addressed cells.

        Grid enumeration order is the row-major product of the axes in
        insertion order (last axis varies fastest); paired expansion walks
        the axes positionally.  A ``sample_n`` subsample keeps that order,
        so cell indices are stable across runs.
        """
        names = list(self.axes)
        combos = self._combos()
        if self.sample_n is not None and self.sample_n < len(combos):
            rng = check_random_state(self.sample_seed)
            keep = np.sort(rng.choice(len(combos), size=self.sample_n, replace=False))
            combos = [combos[i] for i in keep]
        cells: list[SweepCell] = []
        for index, combo in enumerate(combos):
            overrides = dict(zip(names, combo))
            field_overrides: dict[str, Any] = {}
            for axis, value in overrides.items():
                field_overrides.update(_resolve_axis(axis, value))
            config = self.base.with_overrides(
                name=f"{self.name}[{format_overrides(overrides)}]", **field_overrides
            ).validate()
            if self.seed_mode == "decorrelated":
                # Fold the derived seed back into the config, so the cell's
                # content address is the hash of the config *as executed* —
                # shared- and decorrelated-mode cells can never collide in
                # the store (they only share an address when their executed
                # physics is genuinely identical).
                run_seed = derive_cell_seed(cell_hash(config), config.seed)
                config = config.with_overrides(seed=run_seed)
            else:
                run_seed = config.seed
            address = cell_hash(config)
            cells.append(
                SweepCell(
                    index=index,
                    overrides=overrides,
                    config=config,
                    address=address,
                    run_seed=run_seed,
                )
            )
        return cells

    # -- serialization (provenance / manifests) ---------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form: base config + axes + expansion/sampling modes."""
        out: dict[str, Any] = {
            "name": self.name,
            "base": self.base.to_dict(),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "seed_mode": self.seed_mode,
            "expansion": self.expansion,
        }
        if self.sample_n is not None:
            out["sample"] = {"n": self.sample_n, "seed": self.sample_seed}
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_dict` output (validating the base)."""
        sample = data.get("sample") or {}
        return cls(
            name=data["name"],
            base=ExperimentConfig.from_dict(data["base"]),
            axes=dict(data["axes"]),
            seed_mode=data.get("seed_mode", "shared"),
            expansion=data.get("expansion", "grid"),
            sample_n=sample.get("n"),
            sample_seed=sample.get("seed", 0),
        )
