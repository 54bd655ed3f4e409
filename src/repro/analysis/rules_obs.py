"""OBS001: event names must come from the schema.

``span`` / ``instant`` validate event names at emit time, but a misspelled
name in a rarely exercised branch (an error path, a backend only covered by
slow tests) would only surface as a runtime ``ValueError`` mid-run.  This
rule closes that gap statically: every literal first argument of a
``span(...)`` / ``instant(...)`` call in the scanned tree — kernel scopes
included — is cross-checked against the keys of the ``EVENTS`` declaration
in ``obs/events.py``.  Call sites through names imported from
:mod:`repro.obs` must also pass a *literal* name — a computed event name
cannot be checked here and would silently bypass the schema.

The ``obs/`` package itself is exempt: it is the implementation (``emit``
forwards an arbitrary ``name`` parameter by design).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import AnalysisContext, RULES, ModuleInfo, Rule, dotted_chain
from repro.analysis.findings import Finding

__all__ = ["ObsEventNameRule"]

#: Name of the dict assignment this rule looks for in obs/events.py.
DECLARATION_NAME = "EVENTS"

#: Package-relative path of the module declaring the event-name registry.
DECLARATION_RELPATH = "obs/events.py"

_EMIT_NAMES = ("span", "instant")


class ObsEventNameRule(Rule):
    """OBS001: span/instant event names must be literals from obs/events.py."""

    id = "OBS001"
    summary = "trace event names must be literals from the obs/events.py registry"

    def check(self, module: ModuleInfo, ctx: AnalysisContext) -> Iterator[Finding]:
        if module.relpath == DECLARATION_RELPATH or module.relpath.startswith("obs/"):
            return iter(())
        emit_aliases = self._emit_aliases(module.tree)
        sites = ctx.rule_state(self.id, factory=list)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if not chain:
                continue
            is_import_call = len(chain) == 1 and chain[0] in emit_aliases
            is_method_call = len(chain) >= 2 and chain[-1] in _EMIT_NAMES
            if not (is_import_call or is_method_call):
                continue
            first = node.args[0] if node.args else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                sites.append(
                    (first.value, module.display, first.lineno, first.col_offset)
                )
            elif is_import_call:
                # Attribute calls without a literal first arg are too
                # ambiguous to flag (``re.Match.span()`` takes no string),
                # but a call through the imported helpers definitely emits.
                findings.append(
                    Finding(
                        rule=self.id,
                        message=(
                            f"{chain[0]}(...) event name must be a string literal "
                            f"from {DECLARATION_NAME} in repro.obs.events; a "
                            f"computed name bypasses the trace schema"
                        ),
                        file=module.display,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
        return iter(findings)

    def finalize(self, ctx: AnalysisContext) -> Iterator[Finding]:
        sites: list = ctx.rule_state(self.id, factory=list)
        if not sites:
            return
        declared = self._parse_declaration(ctx)
        if declared is None:
            _, file, line, col = sorted(sites)[0]
            yield Finding(
                rule=self.id,
                message=(
                    f"span/instant call sites found but no {DECLARATION_RELPATH} "
                    f"with a {DECLARATION_NAME} declaration is in the scanned tree"
                ),
                file=file,
                line=line,
                col=col,
            )
            return
        for name, file, line, col in sorted(sites, key=lambda s: (s[1], s[2], s[3])):
            if name not in declared:
                yield Finding(
                    rule=self.id,
                    message=(
                        f"unknown trace event name {name!r}; registered names: "
                        f"{sorted(declared)} (add new event types to "
                        f"repro.obs.events)"
                    ),
                    file=file,
                    line=line,
                    col=col,
                )

    @staticmethod
    def _emit_aliases(tree: ast.Module) -> set[str]:
        """Local names bound to repro.obs span/instant by an import."""
        aliases: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module is None or "obs" not in node.module.split("."):
                continue
            for item in node.names:
                if item.name in _EMIT_NAMES:
                    aliases.add(item.asname or item.name)
        return aliases

    @staticmethod
    def _parse_declaration(ctx: AnalysisContext) -> "set[str] | None":
        """The string keys of the ``EVENTS`` dict in obs/events.py, or None."""
        for module in ctx.modules:
            if module.relpath != DECLARATION_RELPATH:
                continue
            for node in module.tree.body:
                # ``EVENTS: dict[str, Event] = {...}``
                if (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == DECLARATION_NAME
                    and isinstance(node.value, ast.Dict)
                ):
                    return {
                        key.value
                        for key in node.value.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    }
        return None


RULES.register(ObsEventNameRule.id, ObsEventNameRule())
