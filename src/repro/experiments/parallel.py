"""One process-parallel mechanism: a list of items on the parent plus forked helpers.

``run_experiment`` runs a lineup's methods through :func:`run_items`, and
``SweepRunner`` a campaign's cells.  The parent runs items from the front,
in-process; up to ``n_procs - 1`` helpers, forked before the parent's first
item, wait :data:`_HELPER_DELAY_S` and then take items from the back.  Both
call the same ``run(index)``, so an item is a pure function of the parent's
state at the fork; results come back in item order, so where an item ran
never shows in the output bytes.  Nor in the telemetry: a helper records
what an item emits to the ``repro.obs`` sinks the parent has on, and the
parent replays that log just before it yields the result.
``docs/backends.md`` ("One scheduler") has every rule and what it costs.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import signal
import tempfile
import time
from typing import Any, Callable, Iterator

import repro.distributed.host
from repro.distributed.host import _set_blas_threads, usable_cores
from repro.obs.emit import capture, replay

__all__ = ["run_items"]

#: Wall seconds a forked helper waits before its first claim, so a list the
#: parent finishes first never sees one.  A fork is running 1.7-2.3 ms after
#: ``start()`` (median of 15, 2-vCPU VM), and an idle helper costs ≈ 4 ms to
#: fork, terminate and join; the 3-method lineup of the benchmark's quick
#: suite runs 18 ms traced, so 0.1 s leaves it a 5× margin on the parent.
_HELPER_DELAY_S = 0.1

#: True while this process takes part in a scheduler spread over more than
#: one process: always in a helper, and on the parent while the scheduler runs.
_in_parallel_item = False


def _claim(claims: str, index: int) -> bool:
    """Take item ``index``: of all processes asking, exactly one gets it."""
    try:
        os.close(os.open(os.path.join(claims, str(index)), os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _helper(run: Callable[[int], Any], n_items: int, claims: str, share: int) -> None:
    """A helper: run unclaimed items from the back, one pickled ``(result, log)`` each.

    It may use ``share`` cores: its BLAS pool has that many threads, and
    :func:`~repro.distributed.host.usable_cores` reads it.

    ``log`` is what the item emitted to the obs sinks inherited from the
    parent.  An item that raises ends the helper and leaves no log: the
    parent reruns it live, so the error reaches the caller as in a serial run
    and nothing is emitted twice.  ``terminate()`` unwinds like
    Ctrl-C, so a sharded cell shuts its shards down and unlinks its segments.
    """
    global _in_parallel_item
    _in_parallel_item = True
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    _set_blas_threads(share)
    repro.distributed.host._core_share = share
    try:
        time.sleep(_HELPER_DELAY_S)
        for index in reversed(range(n_items)):
            if not _claim(claims, index):
                continue
            try:
                with capture() as log:
                    result = run(index)
            except Exception:  # noqa: BLE001 - the parent reruns it and raises it there
                return
            path = os.path.join(claims, f"{index}.pkl")
            with open(f"{path}.tmp", "wb") as fh:
                pickle.dump((result, log), fh)
            os.replace(f"{path}.tmp", path)
    except KeyboardInterrupt:
        pass


def _fork_helpers(n_helpers: int, args: tuple) -> list:
    """Fork up to ``n_helpers`` processes running ``_helper(*args)``; fewer if none can be spared."""
    procs: list = []
    for _ in range(n_helpers):
        proc = multiprocessing.get_context("fork").Process(target=_helper, args=args)
        try:
            proc.start()
        except OSError:  # no process to spare: the parent runs what is left
            break
        procs.append(proc)
    return procs


def run_items(n_items: int, run: Callable[[int], Any], n_procs: int) -> Iterator[Any]:
    """Yield ``run(index)`` for each index below ``n_items``, in order, from up to ``n_procs`` processes.

    This process and every helper, a fork of it, call the same ``run``; a
    helper pickles its result, and its telemetry is replayed here just
    before that result is yielded, so it lands where a serial run emits it.
    While helpers may run, this process may use its share of the cores, as
    each of them does: its BLAS pool shrinks to that share and
    :func:`~repro.distributed.host.usable_cores` reads it.  Every helper has
    exited or been terminated, and both are restored, when the iterator is
    exhausted or closed.
    Where the platform cannot fork, every item runs here.
    """
    global _in_parallel_item
    n_procs = min(n_procs, n_items)
    if n_procs < 2 or _in_parallel_item or "fork" not in multiprocessing.get_all_start_methods():
        for index in range(n_items):
            yield run(index)
        return
    claims = tempfile.mkdtemp(prefix="repro-items-")
    _claim(claims, 0)
    share = max(1, usable_cores() // n_procs)
    blas_threads = _set_blas_threads(share)
    outer_share = repro.distributed.host._core_share
    repro.distributed.host._core_share = share
    _in_parallel_item = True
    procs: list = []
    try:
        procs = _fork_helpers(n_procs - 1, (run, n_items, claims, share))
        first = 0  # claimed before the fork, so no helper can take it
        while first < n_items and (first == 0 or _claim(claims, first)):
            yield run(first)
            first += 1
        if first == n_items:
            return
        # The helpers hold the rest; what none of them finished (it died, or
        # its item raised) runs here.
        for proc in procs:
            proc.join()
        for index in range(first, n_items):
            path = os.path.join(claims, f"{index}.pkl")
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    result, log = pickle.load(fh)
                replay(log)
                yield result
            else:
                yield run(index)
    finally:
        _in_parallel_item = False
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        repro.distributed.host._core_share = outer_share
        if blas_threads is not None:
            _set_blas_threads(blas_threads)
        shutil.rmtree(claims, ignore_errors=True)
