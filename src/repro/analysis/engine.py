"""The rule framework: per-file AST checks plus a cross-file finalize pass.

A :class:`Rule` sees each parsed module once (:meth:`Rule.check`) and may
accumulate state in the shared :class:`AnalysisContext` for a cross-file
:meth:`Rule.finalize` pass after every file has been visited — that is how
OBS001 checks every emission site against the ``EVENTS`` schema declared
in ``obs/events.py``.

Rules self-register into :data:`RULES` (the same lazy
:class:`~repro.api.registry.Registry` machinery behind the component
registries), so ``--select``/``--ignore`` and ``--list-rules`` are pure
registry queries and the README rule table cannot drift from the code.

Path scoping: a rule with a non-empty :attr:`Rule.scope` only checks
modules whose *package-relative* path (the part after the ``repro``
package directory, e.g. ``sweep/store.py``) starts with one of the scope
entries.  Fixture trees in tests reproduce the layout (``tmp/repro/core/``)
to exercise scoped rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.findings import Finding, SuppressionIndex
from repro.api.registry import Registry

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "ModuleInfo",
    "RULES",
    "Rule",
    "all_rules",
    "dotted_chain",
    "run_analysis",
]


def _populate_rules() -> None:
    """Import the rule modules, which register themselves into RULES."""
    import repro.analysis.rules_determinism  # noqa: F401  (registration side effect)
    import repro.analysis.rules_hash  # noqa: F401
    import repro.analysis.rules_obs  # noqa: F401
    import repro.analysis.rules_perf  # noqa: F401


#: id → :class:`Rule` instance for the whole battery.
RULES = Registry("analysis rule", populate=_populate_rules)


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file handed to every applicable rule."""

    #: Path as discovered (used verbatim in findings, clickable from the CLI).
    display: str
    #: Package-relative posix path (``sweep/store.py``) used for rule scoping.
    relpath: str
    tree: ast.Module
    source: str

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`id`, :attr:`summary` (one line, used by
    ``--list-rules`` and the README table), optionally :attr:`scope`, and
    implement :meth:`check` and/or :meth:`finalize`.
    """

    id: str = ""
    summary: str = ""
    #: Package-relative path prefixes this rule is limited to; empty = all.
    scope: tuple[str, ...] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        if not self.scope:
            return True
        return any(
            module.relpath == entry or module.relpath.startswith(entry)
            for entry in self.scope
        )

    def check(self, module: ModuleInfo, ctx: "AnalysisContext") -> Iterable[Finding]:
        """Per-file pass; yield findings for ``module``."""
        return ()

    def finalize(self, ctx: "AnalysisContext") -> Iterable[Finding]:
        """Cross-file pass, run once after every module has been checked."""
        return ()


@dataclass
class AnalysisContext:
    """Shared state for one :func:`run_analysis` invocation."""

    #: Per-rule scratch space for cross-file rules (``ctx.state[rule_id]``).
    state: dict = field(default_factory=dict)
    modules: list[ModuleInfo] = field(default_factory=list)

    def rule_state(self, rule_id: str, factory=dict):
        if rule_id not in self.state:
            self.state[rule_id] = factory()
        return self.state[rule_id]


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: list[Finding]
    files_scanned: int
    suppressed: int
    rules_run: list[str]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "rules": list(self.rules_run),
            "findings": [f.to_dict() for f in sorted(self.findings, key=Finding.sort_key)],
        }


def dotted_chain(node: ast.AST) -> tuple[str, ...]:
    """Resolve ``a.b.c`` attribute chains to ``("a", "b", "c")``.

    Returns ``()`` for expressions that are not pure name/attribute chains
    (calls, subscripts, ...), which callers treat as "not a match".
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    return [RULES.get(rule_id) for rule_id in RULES.names()]


def _iter_python_files(path: Path) -> Iterator[Path]:
    if path.is_file():
        if path.suffix == ".py":
            yield path
        return
    for candidate in sorted(path.rglob("*.py")):
        if "__pycache__" in candidate.parts:
            continue
        yield candidate


def _package_relpath(file_path: Path, root: Path) -> str:
    """Path relative to the ``repro`` package directory, for rule scoping.

    Falls back to the path relative to the scanned root when the file does
    not live under a ``repro`` directory (fixture trees in tests reproduce
    the package layout to opt into scoped rules).
    """
    parts = file_path.parts
    if "repro" in parts:
        tail = parts[len(parts) - 1 - parts[::-1].index("repro"):]
        return "/".join(tail[1:])
    try:
        return file_path.relative_to(root).as_posix()
    except ValueError:
        return file_path.name


def _selected_rules(
    select: "Iterable[str] | None", ignore: "Iterable[str] | None"
) -> list[Rule]:
    known = set(RULES.names())
    for requested in list(select or []) + list(ignore or []):
        if requested not in known:
            raise ValueError(
                f"unknown analysis rule {requested!r}; available: {sorted(known)}"
            )
    chosen = set(select) if select else known
    chosen -= set(ignore or ())
    return [rule for rule in all_rules() if rule.id in chosen]


def run_analysis(
    paths: Iterable[str | Path],
    select: "Iterable[str] | None" = None,
    ignore: "Iterable[str] | None" = None,
) -> AnalysisReport:
    """Run the selected rule battery over ``paths`` and return the report.

    ``select`` keeps only the named rules (default: every rule); ``ignore``
    drops rules from that set.  Suppressed findings are filtered out and
    counted in the report.
    """
    roots = [Path(p) for p in paths]
    for root in roots:
        if not root.exists():
            raise FileNotFoundError(f"analysis path does not exist: {root}")
    rules = _selected_rules(select, ignore)

    ctx = AnalysisContext()
    findings: list[Finding] = []
    suppression_indexes: dict[str, SuppressionIndex] = {}
    files_scanned = 0
    for root in roots:
        for file_path in _iter_python_files(root):
            display = str(file_path)
            if display in suppression_indexes:
                continue  # the same file reached through two scanned roots
            source = file_path.read_text()
            files_scanned += 1
            suppression_indexes[display] = SuppressionIndex.from_source(source)
            try:
                tree = ast.parse(source, filename=display)
            except SyntaxError as err:
                findings.append(
                    Finding(
                        rule="E999",
                        message=f"syntax error: {err.msg}",
                        file=display,
                        line=err.lineno or 1,
                        col=(err.offset or 1) - 1,
                    )
                )
                continue
            module = ModuleInfo(
                display=display,
                relpath=_package_relpath(file_path, root),
                tree=tree,
                source=source,
            )
            ctx.modules.append(module)
            for rule in rules:
                if rule.applies_to(module):
                    findings.extend(rule.check(module, ctx))

    for rule in rules:
        findings.extend(rule.finalize(ctx))

    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        if suppression_indexes[finding.file].suppresses(finding):
            suppressed += 1
        else:
            kept.append(finding)

    kept.sort(key=Finding.sort_key)
    return AnalysisReport(
        findings=kept,
        files_scanned=files_scanned,
        suppressed=suppressed,
        rules_run=[rule.id for rule in rules],
    )
