"""Fresh-process measurement: run a workload's command, time it, check it.

Every number the benchmark reports end to end comes from ``run_child``: the
workload's command in a new interpreter, timed from ``Popen`` to ``wait4``
— import, config load, dataset build, training, evaluation, rendering,
``--save`` / store writes and pool teardown all inside the interval.

Hygiene kept here so every caller gets it:

* BLAS is pinned to one thread in the child's environment.  Shard and job
  processes are then the only parallelism and never exceed ``nproc`` = 2;
  with OpenBLAS left at its default the sharded backend measured 20.9 s
  against ~7 s pinned — the scheduler, not the program.
* Each run gets its own temp dir *inside the checkout* (``out/tmp-*``) for
  its store, trace and save files, and ``TMPDIR`` points there; the dir is
  removed when the run has been read.
* Each child is its own process group: anything still alive in the group
  after the command returns, and any new ``/dev/shm/psm_*`` segment, is a
  leak (one failed operation) and is cleaned up.
* ``PYTHONDONTWRITEBYTECODE`` is dropped from the child's environment: the
  program runs as users run it, with its bytecode cached by the warm-up run,
  so compile time (0.09 s of a 0.33 s import here) is not billed to every
  run and does not scale ``setup_s`` with the number of source lines.
* The box these numbers were frozen on is a shared 2-vCPU VM.  The same
  command takes +-13 % run to run, CPU time tracking wall time (the machine
  is slower, not the scheduler): its cores come back from idle 1.5x slower
  for up to 0.2 s, flip between a few speed levels within a second, and
  whole regimes 25-40 % slower last for minutes.  ``run_probe`` runs a fixed
  NumPy job (``probe.py``) around every measured pair of runs, so a sample
  can be scaled to a reference machine speed; ``run.py`` explains how.

Standard library only.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import Workload

__all__ = [
    "HERE", "ROOT", "OUT", "BLAS_PINS", "ChildResult", "Checked", "Rep", "TracedRun",
    "PROBE_REFERENCE_S", "run_child", "run_probe", "run_rep", "run_reference", "run_warm_up", "run_traced",
    "time_import", "calibrate", "environment", "temp_dir", "program_present",
]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The contract gives one invocation 180 s; no single child may eat it all.
CHILD_TIMEOUT_S = 120.0

# What ``probe.py`` takes on this box on a calm day; a sample whose probes
# read exactly this keeps its seconds as measured.
PROBE_REFERENCE_S = 0.32

_SHM = Path("/dev/shm")
_SWEEP_SUMMARY = re.compile(r"executed=(\d+) cached=(\d+) failed=(\d+)")


def program_present() -> bool:
    """The program under test is in this checkout (not just the benchmark)."""
    return (ROOT / "src" / "repro" / "__main__.py").is_file()


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float  # user + sys, reaped descendants included
    peak_rss_mb: float
    leaks: list[str]
    log: Path

    def log_tail(self, lines: int = 15) -> str:
        try:
            return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""


@contextmanager
def temp_dir(label: str):
    """A fresh per-run directory under ``out/`` (inside the checkout), removed on exit."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"tmp-{label}-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(BLAS_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def _shm_segments() -> set[str]:
    try:
        return {p.name for p in _SHM.iterdir() if p.name.startswith("psm_")}
    except OSError:
        return set()


def _group_survivors(pgid: int) -> list[int]:
    """Live (non-zombie) processes still in process group ``pgid``."""
    alive = []
    try:
        entries = list(Path("/proc").iterdir())
    except OSError:
        return alive
    for entry in entries:
        if not entry.name.isdigit():
            continue
        try:
            # pid (comm) state ppid pgrp ...; comm may contain spaces.
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry.name))
    return alive


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(cmd: list[str], tmp: Path, log_name: str = "stdout.log") -> ChildResult:
    """Run ``cmd`` in a fresh process group; time it from Popen to wait4."""
    log = tmp / log_name
    shm_before = _shm_segments()
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=tmp, env=_child_env(tmp), stdout=out, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, args=(proc.pid,))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)

    leaks = []
    survivors = _group_survivors(proc.pid)
    if survivors:
        # A descendant may be mid-exit; only what outlives a grace period
        # is a leak.  Either way nothing is left running.
        time.sleep(0.2)
        survivors = _group_survivors(proc.pid)
        if survivors:
            leaks.append(f"surviving child process(es): {survivors}")
            _kill_group(proc.pid)
            deadline = time.monotonic() + 5.0
            while _group_survivors(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
    leaked_shm = _shm_segments() - shm_before
    if leaked_shm:
        leaks.append(f"leaked /dev/shm segment(s): {sorted(leaked_shm)}")
        for name in leaked_shm:
            try:
                (_SHM / name).unlink()
            except OSError:
                pass
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        leaks=leaks,
        log=log,
    )


# -- workload commands ------------------------------------------------------

def _command(w: Workload, seed: int, tmp: Path, *, setup: bool = False,
             traced: bool = False) -> list[str]:
    if traced:
        head = [
            sys.executable, str(HERE / "traced_main.py"), "--workload", w.name,
            "--spans-out", str(OUT / f"{w.name}.spans.jsonl"),
            "--meta-out", str(tmp / "trace_meta.json"),
        ]
    elif w.kind == "campaign":
        head = [sys.executable, str(HERE / "campaign_shim.py")]
    else:
        head = [sys.executable, "-m", "repro"]
    if w.kind == "campaign":
        return [*head, "--bench-seed", str(seed), *w.argv, "--store", str(tmp / "store")]
    prefix = "setup_" if setup else ""
    cmd = [*head, *w.argv, "--seed", str(seed), "--save", str(tmp / f"{prefix}runs.json")]
    if w.obs:
        cmd += ["--trace", str(tmp / f"{prefix}trace.jsonl")]
    if setup:
        # Import -> dataset -> cluster/pool build -> initial eval -> one
        # round -> render: the cold-start cost with the work removed.
        cmd += ["--set", "wall_time_budget=1e-9"]
    return cmd


def _read_outputs(w: Workload, tmp: Path) -> checks.RunOutputs:
    if w.kind == "campaign":
        return checks.read_campaign(tmp / "store")
    return checks.read_single(tmp / "runs.json")


def _sweep_counts(result: ChildResult) -> "tuple[int, int] | None":
    """``(executed, cached)`` from the campaign's stable summary line."""
    try:
        found = _SWEEP_SUMMARY.findall(result.log.read_text(errors="replace"))
    except OSError:
        return None
    return (int(found[-1][0]), int(found[-1][1])) if found else None


@dataclass
class Checked:
    """A run with its outputs read and its failed operations counted."""

    child: ChildResult
    outputs: checks.RunOutputs
    failed: int
    reasons: list[str]
    cells: "tuple[int, int] | None"  # campaigns: (executed, cached)

    def fail_all(self, w: Workload, reason: str) -> None:
        self.failed = w.ops_per_run
        self.reasons.append(reason)


@dataclass
class Rep(Checked):
    """One measured repeat: the full run (``child``), then the set-up run."""

    setup: "ChildResult | None" = None
    probes: list[float] = field(default_factory=list)  # speed probes around the pair, if taken
    trace_events: int = 0
    trace_bytes: int = 0

    @property
    def wall_s(self) -> float:
        return self.child.wall_s

    @property
    def setup_s(self) -> float:
        return self.setup.wall_s


@dataclass
class TracedRun(Checked):
    spans_path: "Path | None" = None
    meta: dict = field(default_factory=dict)


def _checked_run(w: Workload, seed: int, tmp: Path, *, traced: bool = False) -> dict:
    """The full command, its outputs, and the per-run failure accounting."""
    child = run_child(_command(w, seed, tmp, traced=traced), tmp)
    outputs = _read_outputs(w, tmp)
    failed, reasons = checks.failed_ops(w, child.returncode, outputs)
    cells = _sweep_counts(child) if w.kind == "campaign" else None
    if w.kind == "campaign" and child.returncode == 0 and cells != (w.n_cells, 0):
        failed = w.ops_per_run
        reasons.append(f"executed/cached = {cells}, expected ({w.n_cells}, 0)")
    if child.leaks:
        failed = min(w.ops_per_run, failed + 1)
        reasons += child.leaks
    if child.returncode != 0:
        reasons.append("--- child output ---\n" + child.log_tail())
    return dict(child=child, outputs=outputs, failed=failed, reasons=reasons, cells=cells)


def run_probe() -> float:
    """Wall seconds of ``probe.py`` in a fresh pinned process, right now."""
    with temp_dir("probe") as tmp:
        result = run_child([sys.executable, str(HERE / "probe.py")], tmp)
        if result.returncode != 0:
            raise RuntimeError(f"speed probe failed:\n{result.log_tail()}")
        return result.wall_s


def run_rep(w: Workload, seed: int, label: str) -> Rep:
    """One (full run, set-up run) pair, checked."""
    with temp_dir(f"{w.name}-{label}") as tmp:
        rep = Rep(**_checked_run(w, seed, tmp))
        # Set-up run: single-config workloads redo the run with the budget
        # removed; campaigns re-run against the store just completed, which
        # executes no cell (spec expansion -> store reads -> render).
        setup = rep.setup = run_child(_command(w, seed, tmp, setup=True), tmp, "setup.log")
        if setup.returncode != 0:
            rep.fail_all(w, f"set-up run exit code {setup.returncode}\n{setup.log_tail()}")
        elif w.kind == "campaign" and _sweep_counts(setup) != (0, w.n_cells):
            rep.fail_all(w, f"set-up run executed/cached = {_sweep_counts(setup)}, "
                            f"expected (0, {w.n_cells})")
        if setup.leaks:
            rep.failed = min(w.ops_per_run, rep.failed + 1)
            rep.reasons += setup.leaks
        trace = tmp / "trace.jsonl"
        if w.obs and trace.is_file():
            rep.trace_bytes = trace.stat().st_size
            with open(trace, "rb") as fh:
                rep.trace_events = sum(1 for _ in fh)
    return rep


def run_reference(w: Workload, seed: int) -> checks.RunOutputs:
    """One untimed full run, for the outputs another workload must equal."""
    with temp_dir(f"{w.name}-ref") as tmp:
        return _checked_run(w, seed, tmp)["outputs"]


def run_warm_up(w: Workload, seed: int) -> ChildResult:
    """One discarded set-up-style invocation (first cold run: 2.4 s vs 0.8 s)."""
    with temp_dir(f"{w.name}-warm") as tmp:
        if w.kind == "campaign":
            # No complete store exists yet to re-run against; listing the
            # sweeps through the shim pays the same imports.
            cmd = [sys.executable, str(HERE / "campaign_shim.py"), "--list", "sweeps"]
        else:
            cmd = _command(w, seed, tmp, setup=True)
        return run_child(cmd, tmp)


def run_traced(w: Workload, seed: int) -> TracedRun:
    """The workload once more under ``traced_main.py`` (spans -> out/)."""
    with temp_dir(f"{w.name}-traced") as tmp:
        run = TracedRun(**_checked_run(w, seed, tmp, traced=True),
                        spans_path=OUT / f"{w.name}.spans.jsonl")
        try:
            run.meta = json.loads((tmp / "trace_meta.json").read_text())
        except (OSError, ValueError):
            run.fail_all(w, "traced run wrote no meta file")
        return run


# -- machine and environment ---------------------------------------------------

def time_import(repeats: int = 3) -> float:
    """Median wall time of a fresh ``python -c "import repro.experiments.cli"``."""
    with temp_dir("import") as tmp:
        cmd = [sys.executable, "-c", "import repro.experiments.cli"]
        return statistics.median(run_child(cmd, tmp).wall_s for _ in range(repeats))


def calibrate() -> dict:
    """``counts.py --calibrate`` in a pinned child: machine rates + NumPy/BLAS."""
    with temp_dir("calibrate") as tmp:
        result = run_child([sys.executable, str(HERE / "counts.py"), "--calibrate"], tmp)
        if result.returncode != 0:
            raise RuntimeError(f"calibration failed:\n{result.log_tail()}")
        return json.loads(result.log.read_text().splitlines()[-1])


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "blas_pins": dict(BLAS_PINS),
    }
