"""Numeric domains, shared by a component and the config field that feeds it.

``domain(name, value)`` raises a ``ValueError`` naming ``name`` when ``value``
lies outside: ``AT_LEAST_ONE("n_workers", 0)`` raises "n_workers must be >= 1,
got 0".  A component and its config field hold the same object, so a bound
is written once and worded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Interval", "POSITIVE", "NON_NEGATIVE", "AT_LEAST_ONE"]


@dataclass(frozen=True)
class Interval:
    """The numbers from ``lo`` to ``hi``, each end closed unless flagged open; NaN lies outside."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def __contains__(self, value) -> bool:
        above = self.lo < value if self.lo_open else self.lo <= value
        return above and (value < self.hi if self.hi_open else value <= self.hi)

    def __str__(self) -> str:
        if self.hi < math.inf:
            return f"in {'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}{')' if self.hi_open else ']'}"
        return "positive" if self.lo == 0 and self.lo_open else f"{'>' if self.lo_open else '>='} {self.lo:g}"

    def __call__(self, name: str, value) -> None:
        """Refuse ``value`` (a tuple: any of its items) outside the interval."""
        each = isinstance(value, tuple)
        if not (all(item in self for item in value) if each else value in self):
            raise ValueError(f"{name} must {'all ' if each else ''}be {self}, got {value}")


POSITIVE = Interval(0, lo_open=True)
NON_NEGATIVE = Interval(0)
AT_LEAST_ONE = Interval(1)
