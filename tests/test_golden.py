"""Byte-compare current end-to-end trajectories against committed goldens.

The fixtures under ``tests/golden/`` are the canonical JSON payloads of
small seeded harness runs (see ``tests/regen_golden.py``).  These tests
re-run each workload in-process and demand the exact committed bytes, so any
refactor that silently changes a trajectory — one float, one RNG draw, one
config default — fails here with a diffable fixture name instead of passing
unnoticed.  Intentional changes regenerate with
``python -m tests.regen_golden`` and commit the diff.

The two ``trace_*.jsonl`` fixtures pin the other output of a run: the
deterministic projection of its telemetry (trace events without wall fields,
profile rows, metrics), so a change to ``repro.obs`` or to an emission site
is diffed against the committed bytes instead of by hand.  They hold with a
helper process running part of the lineup too: its emissions are replayed on
the parent in lineup order.
"""

from __future__ import annotations

import difflib
import json

import pytest

from tests.conftest import Placement
from tests.regen_golden import (
    GOLDEN_DIR,
    golden_configs,
    golden_payload,
    render_golden,
    render_trace_projection,
    trace_configs,
)

CONFIGS = golden_configs()
TRACE_CONFIGS = trace_configs()


def test_every_fixture_is_committed():
    committed = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))
    assert committed == sorted(CONFIGS), (
        "tests/golden/ out of sync with golden_configs(); run "
        "`python -m tests.regen_golden` and commit the result"
    )
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.jsonl")) == sorted(TRACE_CONFIGS)


def _payload_on(backend: str, name: str, expected: str) -> dict:
    """The fixture workload run on ``backend``, carrying the fixture's backend labels.

    The fixtures were generated on ``backend="auto"``.  A run on another
    backend differs from them in the two places that *name* the backend (the
    experiment config and each run's resolved ``config.backend``); those
    labels are copied from the committed fixture, so every trajectory byte
    is still compared.
    """
    if backend == "auto":
        return golden_payload(CONFIGS[name])
    payload = golden_payload(CONFIGS[name].with_overrides(backend=backend))
    committed = json.loads(expected)
    payload["config"]["backend"] = committed["config"]["backend"]
    for run, ref in zip(payload["runs"]["runs"], committed["runs"]["runs"]):
        assert run["config"]["backend"] == backend
        run["config"]["backend"] = ref["config"]["backend"]
    return payload


# "loop" pins the reference driver to the historical bytes themselves, not
# just to the banks: both run the same kernels, so agreeing with each other
# (the equivalence matrix) no longer says either kept its trajectory.
@pytest.mark.parametrize(
    ("name", "backend"),
    # The "auto" cells keep their historical ids (the fixture name alone).
    [pytest.param(name, "auto", id=name) for name in sorted(CONFIGS)]
    + [pytest.param(name, "loop", id=f"{name}-loop") for name in sorted(CONFIGS)],
)
def test_trajectory_matches_committed_bytes(name, backend):
    path = GOLDEN_DIR / f"{name}.json"
    assert path.is_file(), f"missing fixture {path}; run `python -m tests.regen_golden`"
    expected = path.read_text()
    actual = render_golden(_payload_on(backend, name, expected))
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(), actual.splitlines(),
                fromfile=f"golden/{name}.json", tofile="current run", lineterm="", n=2,
            )
        )
        pytest.fail(
            f"golden trajectory {name!r} (backend={backend}) diverged from the committed bytes.\n"
            f"If this change is intentional, run `python -m tests.regen_golden` "
            f"and commit the updated fixture.\nFirst differences:\n"
            + "\n".join(diff.splitlines()[:40])
        )


def _assert_projection(name: str) -> None:
    expected = (GOLDEN_DIR / f"{name}.jsonl").read_text().splitlines()
    actual = render_trace_projection(TRACE_CONFIGS[name]).splitlines()
    if actual != expected:
        diff = difflib.unified_diff(
            expected, actual, fromfile=f"golden/{name}.jsonl", tofile="current run",
            lineterm="", n=0,
        )
        pytest.fail(
            f"telemetry of {name!r} diverged from the committed projection "
            f"({len(expected)} lines committed, {len(actual)} now):\n"
            + "\n".join(line[:240] for line in list(diff)[:30])
        )


@pytest.mark.parametrize("name", sorted(TRACE_CONFIGS))
def test_telemetry_matches_committed_projection(name, monkeypatch):
    """What an instrumented run emits — events, profile rows, metrics — is pinned too."""
    _assert_projection(name)
    placement = Placement(monkeypatch)  # a helper runs the lineup's last method
    _assert_projection(name)
    assert placement.helper_claimed


def test_regeneration_is_deterministic():
    """Two in-process runs of the same workload produce identical bytes."""
    name = "smoke_mlp_sync_adacomm"
    first = render_golden(golden_payload(CONFIGS[name]))
    second = render_golden(golden_payload(CONFIGS[name]))
    assert first == second
