"""Output checks and failure accounting.

One *operation* is one method run (single-config workloads) or one cell
(campaign workloads).  An operation fails when

* the command exits non-zero (every operation of that run fails);
* its method / cell is missing from the saved store;
* its final loss is not finite (``--model vgg_lite_mlp`` at lr 0.4 diverges
  to NaN — which is why no workload uses it);
* a check on the run mismatches — the repeats of one workload disagree, a
  workload differs from the one it must equal byte for byte, or the seed-7
  statistics differ from ``expected.json`` — which fails every operation of
  that run;
* the run leaks a ``/dev/shm`` segment or leaves a child process behind (one
  failed operation; found by ``measure.run_child``).

Everything here reads the files the program wrote; nothing imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["RunOutputs", "read_single", "read_campaign", "failed_ops", "compare_expected"]

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
REL_TOL = 1e-9

# ``RunStore.save`` writes non-finite floats as these tagged strings.
_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _number(value) -> float:
    return _NON_FINITE[value] if isinstance(value, str) else float(value)


@dataclass
class RunOutputs:
    """What one run of a workload produced, reduced to what the checks need."""

    digest: str = ""
    # op label (method name or cell address) -> statistics of that op
    ops: dict[str, dict] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def total(self, key: str):
        return sum(op[key] for op in self.ops.values())


def _record_stats(record: dict) -> dict:
    points = record["points"]
    last = points[-1]
    return {
        # Every round adds tau >= 1 iterations, and the closing evaluation
        # repeats the last iteration count, so distinct counts are rounds.
        "rounds": len({p["iteration"] for p in points} - {0}),
        "iterations": int(last["iteration"]),
        "evals": sum(1 for p in points if not math.isnan(_number(p["test_accuracy"]))),
        "final_loss": _number(last["train_loss"]),
        "virtual_s": _number(last["wall_time"]),
    }


def _trajectory(records: list[dict]) -> str:
    """Canonical text of the trajectories alone (no config, no telemetry).

    Floats survive a JSON round trip exactly, so equal text means equal
    trajectories bit for bit; ``config`` is left out because it names the
    backend, which is what ``sharded_cnn`` and ``cnn_train`` differ in.
    """
    return json.dumps([[r["name"], r["points"]] for r in records], sort_keys=True)


def read_single(path: Path) -> RunOutputs:
    """Outputs of a single-config run from its ``--save`` file."""
    out = RunOutputs()
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        out.problems.append(f"cannot read saved store {path.name}: {err}")
        return out
    records = payload.get("runs", [])
    out.ops = {r["name"]: _record_stats(r) for r in records}
    out.digest = hashlib.sha256(_trajectory(records).encode()).hexdigest()
    return out


def read_campaign(store: Path) -> RunOutputs:
    """Outputs of a campaign from its result store (one op per cell)."""
    out = RunOutputs()
    digest = hashlib.sha256()
    for cell_dir in sorted((store / "cells").glob("*")):
        result = cell_dir / "result.json"
        if not result.is_file():
            continue
        raw = result.read_bytes()
        digest.update(cell_dir.name.encode() + b"\0" + hashlib.sha256(raw).digest())
        try:
            records = json.loads(raw).get("runs", [])
            stats = [_record_stats(r) for r in records]
        except (ValueError, KeyError, IndexError) as err:
            out.problems.append(f"cell {cell_dir.name}: unreadable result ({err})")
            continue
        out.ops[cell_dir.name] = {
            "rounds": sum(s["rounds"] for s in stats),
            "iterations": sum(s["iterations"] for s in stats),
            "evals": sum(s["evals"] for s in stats),
            # A cell fails if any of its methods ended non-finite.
            "final_loss": max((s["final_loss"] for s in stats), default=math.nan, key=_nan_high),
            "virtual_s": sum(s["virtual_s"] for s in stats),
        }
    out.digest = digest.hexdigest()
    return out


def _nan_high(value: float) -> float:
    return math.inf if math.isnan(value) else value


def failed_ops(workload, returncode: int, outputs: RunOutputs) -> tuple[int, list[str]]:
    """``(failed operation count, reasons)`` of one run, before cross-run checks."""
    expected = workload.ops_per_run
    if returncode != 0:
        return expected, [f"exit code {returncode}"]
    reasons = list(outputs.problems)
    if workload.kind == "single":
        missing = [m for m in workload.methods if m not in outputs.ops]
    else:
        missing = [f"cell #{i}" for i in range(len(outputs.ops), expected)]
    if missing:
        reasons.append(f"missing from the saved store: {', '.join(missing)}")
    non_finite = [label for label, op in outputs.ops.items() if not math.isfinite(op["final_loss"])]
    if non_finite:
        reasons.append(f"non-finite final loss: {', '.join(non_finite)}")
    return min(expected, len(missing) + len(non_finite)), reasons


def expected_entry(outputs: RunOutputs) -> dict:
    """The part of a run's outputs that ``expected.json`` pins."""
    return {
        "ops": len(outputs.ops),
        "rounds": outputs.total("rounds"),
        "iterations": outputs.total("iterations"),
        "evals": outputs.total("evals"),
        "virtual_s": outputs.total("virtual_s"),
        "final_loss": {label: op["final_loss"] for label, op in sorted(outputs.ops.items())},
    }


def compare_expected(name: str, outputs: RunOutputs, expected: dict) -> list[str]:
    """Mismatches between a seed-7 run and its ``expected.json`` entry.

    Integer statistics must match exactly; final losses and the simulated
    clock within ``REL_TOL`` (they are deterministic, but a BLAS build may
    differ in the last bits).
    """
    want = expected.get(name)
    if want is None:
        return [f"no expected.json entry for {name}"]
    got = expected_entry(outputs)
    problems = [
        f"{key}: got {got[key]}, expected {want[key]}"
        for key in ("ops", "rounds", "iterations", "evals")
        if got[key] != want[key]
    ]
    if not math.isclose(got["virtual_s"], want["virtual_s"], rel_tol=REL_TOL):
        problems.append(f"virtual_s: got {got['virtual_s']!r}, expected {want['virtual_s']!r}")
    for label, loss in want["final_loss"].items():
        have = got["final_loss"].get(label)
        if have is None or not math.isclose(have, loss, rel_tol=REL_TOL):
            problems.append(f"final_loss[{label}]: got {have!r}, expected {loss!r}")
    return problems


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
