"""Shared helpers for the benchmark targets.

Each bench regenerates one table or figure of the paper.  Because the
workloads are simulations rather than micro-kernels, every bench runs its
payload exactly once through ``benchmark.pedantic(..., rounds=1)`` — the
timing that pytest-benchmark reports is the real cost of regenerating that
artifact — and writes the regenerated table / data series both to stdout and
to ``benchmarks/output/<name>.txt`` so the numbers can be inspected after the
run and compared against the paper (README, "Mapping configs to the paper").
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def report(output_dir, request):
    """Return a callable that records a text artifact for the current bench."""

    def _report(text: str, name: str | None = None) -> str:
        stem = name or request.node.name
        path = output_dir / f"{stem}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return text

    return _report


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
