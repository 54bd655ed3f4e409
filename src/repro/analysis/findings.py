"""The :class:`Finding` record and the suppression-comment grammar.

A finding is one rule violation at one source location.  Findings are
plain data — the engine produces them, the CLI renders them — so the JSON
output schema is exactly :meth:`Finding.to_dict` and is pinned by
``tests/test_analysis.py``.

Suppressions
------------
A violation is silenced by a trailing comment on the *flagged line*::

    value = np.random.default_rng()  # repro: ignore[DET001] entropy fallback

The bracket list may name several rules (``ignore[DET001, DET002]``); a
bare ``# repro: ignore`` (no brackets) suppresses every rule on the line.
Anything after the closing bracket is free-form justification — the audit
convention in this repo is that every suppression carries one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Finding", "IGNORE_ALL", "suppressions_for_line"]

#: Sentinel returned by :func:`suppressions_for_line` for a bare
#: ``# repro: ignore`` comment (suppress every rule on the line).
IGNORE_ALL = "*"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location (1-based line, 0-based col)."""

    rule: str
    message: str
    file: str
    line: int
    col: int = 0

    def to_dict(self) -> dict:
        """JSON form — the schema of ``--format json`` output."""
        return {
            "rule": self.rule,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "col": self.col,
        }

    def render(self) -> str:
        """Human form: ``file:line:col: RULE message`` (clickable in editors)."""
        return f"{self.file}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> tuple:
        return (self.file, self.line, self.col, self.rule)


@dataclass
class SuppressionIndex:
    """Per-file map of line number → rule ids suppressed on that line."""

    by_line: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        index = cls()
        for lineno, line in enumerate(source.splitlines(), start=1):
            rules = suppressions_for_line(line)
            if rules:
                index.by_line[lineno] = rules
        return index

    def suppresses(self, finding: Finding) -> bool:
        rules = self.by_line.get(finding.line)
        if not rules:
            return False
        return IGNORE_ALL in rules or finding.rule in rules


def suppressions_for_line(line: str) -> set[str]:
    """Rule ids suppressed by a ``# repro: ignore[...]`` comment on ``line``.

    Returns the empty set when the line carries no suppression, and a set
    containing :data:`IGNORE_ALL` for the bracket-less form.
    """
    match = _SUPPRESSION_RE.search(line)
    if match is None:
        return set()
    rules = match.group("rules")
    if rules is None:
        return {IGNORE_ALL}
    names = {part.strip() for part in rules.split(",") if part.strip()}
    return names or {IGNORE_ALL}
