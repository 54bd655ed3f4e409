"""``python -m repro.analysis`` — run the invariant battery from the shell.

Exit codes: 0 clean, 1 findings (or syntax errors), 2 usage errors.  The
README's rule table is :func:`rules_table_markdown` verbatim — a test
asserts the two match, so ``--list-rules`` and the docs cannot drift.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.engine import all_rules, run_analysis

__all__ = ["build_parser", "main", "rules_table_markdown"]


def rules_table_markdown() -> str:
    """The rule battery as a GitHub-flavored markdown table."""
    lines = ["| Rule | Scope | Invariant |", "| --- | --- | --- |"]
    for rule in all_rules():
        scope = ", ".join(f"`{entry}`" for entry in rule.scope) if rule.scope else "all of `src/`"
        lines.append(f"| `{rule.id}` | {scope} | {rule.summary} |")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant linter for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--rules",
        "--select",
        dest="select",
        metavar="RULE",
        nargs="+",
        help="run only these rule ids",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULE",
        nargs="+",
        help="drop these rule ids from the selected set",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(rules_table_markdown())
        return 0

    try:
        report = run_analysis(args.paths, select=args.select, ignore=args.ignore)
    except (FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{len(report.findings)} finding(s) in {report.files_scanned} file(s)"
            f" [{len(report.rules_run)} rule(s); {report.suppressed} suppressed]"
        )
        print(summary)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
