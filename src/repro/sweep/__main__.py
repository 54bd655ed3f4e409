"""Result-store maintenance verbs: ``python -m repro.sweep {query,merge,gc}``.

Campaign *execution* lives on the main CLI (``python -m repro --sweep``);
this entry point inspects and maintains the persistent stores those
campaigns populate:

* ``query <store> [--where key=value ...]`` — list manifest cells whose
  recorded axis ``overrides`` match every given pair exactly (values parse
  as Python literals, so ``--where tau=4`` matches the integer axis value).
  Cells missing a queried key never match; each hit shows its campaign,
  content address, overrides, and whether its result is stored (``done``)
  or still pending — so the verb answers both "which cells swept τ = 4"
  and "what is left to run".
* ``merge <src> <dst>`` — union one store's completed cells and campaign
  manifests into another.  Safe because cells are content-addressed and
  byte-deterministic: a cell sharded to another machine comes back as the
  exact bytes a local run would have produced, so merging is file copy plus
  an equality check.  An address whose bytes *differ* between the stores is
  a conflict (corrupt store or incompatible code versions) and the merge
  refuses with exit status 1 — all-or-nothing, the destination is left
  untouched.
* ``gc <store>`` — prune cell directories that no campaign manifest under
  ``sweeps/*.json`` references (orphans left behind by config-schema
  changes or edited campaign specs), and the ``*.tmp`` files a writer
  killed mid-write leaves under ``cells/`` and ``sweeps/``.  ``--dry-run``
  lists what would be removed without touching the store.
"""

from __future__ import annotations

import argparse
import sys

from repro.sweep.store import ResultStore
from repro.utils.cli import key_value_parser

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Inspect and maintain sweep result stores "
        "(query cells by axis value, merge across machines, prune orphans).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    query = sub.add_parser(
        "query",
        help="list manifest cells whose recorded axis overrides match every "
        "--where key=value pair exactly",
    )
    query.add_argument("store", help="store directory to query")
    query.add_argument("--where", dest="where", action="append", default=[],
                       type=key_value_parser("--where"), metavar="KEY=VALUE",
                       help="exact-match filter on recorded overrides (repeatable; "
                            "values parse as Python literals, e.g. --where tau=4)")
    query.add_argument("--campaign", default=None, metavar="NAME",
                       help="restrict to one campaign manifest (default: all)")

    merge = sub.add_parser(
        "merge",
        help="union SRC's completed cells and manifests into DST "
        "(refuses if any content address holds differing bytes)",
    )
    merge.add_argument("src", help="source store directory")
    merge.add_argument("dst", help="destination store directory")
    merge.add_argument("--dry-run", action="store_true",
                       help="report what would be copied without writing")

    gc = sub.add_parser(
        "gc",
        help="prune cells not referenced by any campaign manifest under sweeps/*.json, and orphaned *.tmp files",
    )
    gc.add_argument("store", help="store directory to collect")
    gc.add_argument("--dry-run", action="store_true",
                    help="list what would be removed without deleting")
    return parser


def _run_query(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    where = dict(args.where)
    try:
        hits = store.query(where, campaign=args.campaign)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 1
    for hit in hits:
        status = "done   " if hit.completed else "pending"
        print(f"[query] {status} {hit.campaign}  {hit.address}  {hit.label}")
    tag = ", ".join(f"{k}={v!r}" for k, v in where.items()) or "<all>"
    done = sum(hit.completed for hit in hits)
    print(f"[query] {store.root}: {len(hits)} cell(s) match {tag} "
          f"({done} done, {len(hits) - done} pending)")
    return 0


def _run_merge(args: argparse.Namespace) -> int:
    report = ResultStore(args.dst).merge_from(ResultStore(args.src), dry_run=args.dry_run)
    # A refused merge writes nothing, so pending copies are "would copy".
    prefix = "[merge:dry-run]" if (args.dry_run or not report.ok) else "[merge]"
    for address in report.copied:
        print(f"{prefix} copy      {address}")
    for address in report.identical:
        print(f"{prefix} identical {address}")
    for address in report.conflicts:
        print(f"{prefix} CONFLICT  {address}  (same address, differing bytes)")
    for name in report.manifests_copied:
        print(f"{prefix} manifest  {name}")
    for name in report.manifest_conflicts:
        print(f"{prefix} MANIFEST CONFLICT  {name}  (same campaign, differing bytes)")
    print(report.summary())
    if not report.ok:
        print(
            "error: refusing merge (nothing was written) — a content address maps "
            "to differing bytes; the stores were produced by incompatible code "
            "versions or one is corrupt",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_gc(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    pruned = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    for entry in pruned:
        print(f"[gc] {verb} {entry}")
    n_temps = sum(entry.endswith(".tmp") for entry in pruned)
    print(f"[gc] {store.root}: {len(pruned) - n_temps} orphan cell(s) {verb}, "
          f"{n_temps} temp file(s) {verb}, {len(store.referenced_addresses())} referenced")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "query":
        return _run_query(args)
    if args.verb == "merge":
        return _run_merge(args)
    return _run_gc(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
