"""Small helpers shared by the command-line entry points."""

from __future__ import annotations

import argparse
import ast

__all__ = ["key_value_parser"]


def key_value_parser(flag: str):
    """An argparse ``type=`` callable parsing ``key=value`` pairs.

    Values parse as Python literals with a plain-string fallback, so
    ``tau=4`` yields an int and ``delay=pareto`` a string — the one
    convention shared by ``--set`` (main CLI) and ``--where`` (sweep CLI).
    ``nan``, ``inf`` and ``-inf`` are floats, for a domain to refuse.
    ``flag`` only names the option in the error message.
    """

    def parse(pair: str) -> tuple[str, object]:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise argparse.ArgumentTypeError(f"{flag} expects key=value, got {pair!r}")
        try:
            value: object = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = float(raw) if raw in ("nan", "inf", "-inf") else raw
        return key, value

    return parse
