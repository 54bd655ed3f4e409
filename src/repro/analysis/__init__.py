"""repro.analysis — AST-based invariant linter for the repro codebase.

The repo's headline guarantee — loop, vectorized, and sharded backends
producing byte-identical trajectories, with content-addressed stores that
are pure cache hits across runs — rests on invariants that the
equivalence matrix, the goldens and the ``leaks`` fixture check at run
time.  This package checks the ones whose violation would pass every
test (a slow path, a code path no test executes, a dtype change that
keeps the bytes): seeded ``Generator`` streams and virtual time only
(DET001 / DET002), hash-stable canonical JSON (HASH001), event names from
the trace schema (OBS001), and no float64 coercion on the bank hot path
(PERF001).  Conventional Python lint (mutable defaults, bare ``except``)
is ruff's job, not this package's.

Architecture
------------
* :mod:`repro.analysis.findings` — the :class:`Finding` record and the
  ``# repro: ignore[RULE]`` suppression-comment grammar.
* :mod:`repro.analysis.engine` — the rule framework: :class:`Rule`,
  per-file AST checks plus a cross-file ``finalize`` pass, path scoping,
  and :func:`run_analysis` which parses files once and fans them out to
  every selected rule.
* ``rules_*`` modules — the rule battery, each grounded in a real past
  bug (see each rule's docstring); they self-register into :data:`RULES`.
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` with text/JSON
  output, rule selection, and ``--list-rules`` (the README table is
  generated from it, so docs cannot drift).

Run the battery over the tree::

    PYTHONPATH=src python -m repro.analysis src/

The process exits non-zero on findings, which is how CI gates every PR on
the invariants alongside the equivalence matrix.
"""

from repro.analysis.engine import (
    AnalysisReport,
    ModuleInfo,
    RULES,
    Rule,
    run_analysis,
)
from repro.analysis.findings import Finding, suppressions_for_line

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleInfo",
    "RULES",
    "Rule",
    "run_analysis",
    "suppressions_for_line",
]
