"""What this process may use of the machine: cores, one core's L2, its BLAS pool, its threads.

Every layout decision reads these, so each is defined once here: the
scheduler's share of the cores (:mod:`repro.experiments.parallel`), a shard
process's BLAS pool (:mod:`repro.distributed.sharded_bank`), the rule that
says when work split in blocks pays a thread per block (:func:`block_threads`)
and the one pinned thread pool those blocks run on (:func:`run_pinned`):
the ``vectorized`` backend's chunk steps and its row-sequential mean
(:mod:`repro.distributed.worker_bank`), and the synchronized model's
evaluation (:mod:`repro.distributed.cluster`).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "usable_cores", "affinity", "l2_bytes", "pin_thread", "block_threads", "run_pinned", "spread", "close_pool",
]

#: What sizes a BLAS thread pool when NumPy loads; a user who exported one
#: keeps that size in every process (see :func:`_set_blas_threads`).
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The cores a scheduler granted this process, or ``None`` for its whole
#: affinity mask.  A ``run_items`` helper, and its parent while helpers run,
#: hold their share; a shard process holds 1.
_core_share: "int | None" = None

_CACHE_DIR = "/sys/devices/system/cpu/cpu0/cache"

#: The process's pinned thread pool and its size, started by the first
#: :func:`run_pinned` that needs it and joined by :func:`close_pool`.
_pool: "ThreadPoolExecutor | None" = None
_pool_size = 0


def usable_cores() -> int:
    """Cores this process may use: its share while it runs beside others it
    started or was started by, else its affinity mask (``taskset``, a cpuset
    container), not the host's ``os.cpu_count()``."""
    if _core_share is not None:
        return _core_share
    return len(affinity()) or os.cpu_count() or 1


def affinity() -> "list[int]":
    """The CPUs the calling thread may run on, ascending; empty without an affinity API (macOS, Windows)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def pin_thread(cpus: "set[int] | None") -> "set[int] | None":
    """Let the calling thread run on ``cpus`` only; the set it had, to pass back later.

    ``None`` in or out means nothing was pinned.  Why pin chunk threads:
    Linux wakes the thread the interpreter lock is handed to on its waker's
    core, so two chunk threads can share one core for a second or more while
    the other core idles.
    """
    if not cpus:
        return None
    try:
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no affinity API, or a CPU this process may no longer use
        return None
    return previous


@functools.cache
def l2_bytes() -> "int | None":
    """One core's level-2 cache in bytes, read once per process; ``None`` where sysfs does not say."""
    for index in sorted(glob.glob(os.path.join(_CACHE_DIR, "index*"))):
        try:
            with open(os.path.join(index, "level")) as fh:
                if fh.read().strip() != "2":
                    continue
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()  # e.g. "2048K"
            return int(size[:-1]) << {"K": 10, "M": 20}[size[-1]]
        except (OSError, ValueError, KeyError, IndexError):
            continue
    return None


@functools.cache
def _blas_pool() -> "tuple | None":
    """``(get, set)`` of NumPy's bundled scipy-openblas thread count, or ``None`` without one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    if len(libs) != 1:
        return None
    lib = ctypes.CDLL(libs[0])
    get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def _set_blas_threads(n_threads: int) -> "int | None":
    """Resize this process's loaded BLAS pool to ``n_threads``; the previous size, or ``None``.

    For a process whose BLAS is loaded already (a forked shard or helper,
    the parent beside them, chunk threads): ctypes on NumPy's bundled
    scipy-openblas.  Where there is none, or the user exported one of
    :data:`_BLAS_ENV`, it does nothing and returns ``None``.
    """
    pool = None if any(name in os.environ for name in _BLAS_ENV) else _blas_pool()
    if pool is None:
        return None
    get_threads, set_threads = pool
    previous = get_threads()
    set_threads(n_threads)
    return previous


def block_threads(n_blocks: int, block_bytes: int) -> int:
    """Threads worth running ``n_blocks`` blocks of ``block_bytes`` each on.

    The usable cores, capped at ``n_blocks``, when a block fills one core's
    L2, else 1 — and 1 where the L2 size cannot be read.  Below L2 a block's
    arrays are too small: NumPy holds the GIL for too much of each op for a
    second thread to pay (``docs/backends.md`` has the measurements).
    """
    threads = min(usable_cores(), n_blocks)
    l2 = l2_bytes()
    if threads < 2 or l2 is None or block_bytes < l2:
        return 1
    return threads


def run_pinned(shares: "Sequence[Sequence[Callable]]", *args) -> "list[tuple[list, Exception | None]]":
    """Run every call of ``shares[i]`` with ``args`` on thread i; per share, its results and its error.

    Share 0 runs on the calling thread, every other one on a thread of the
    process's pool, each thread pinned to its own CPU and the BLAS pool at
    one thread each meanwhile.  A share stops at its first failing call: its
    entry is the results before that call and the error (``None`` when all
    ran).  No call is running once this returns or raises (a Ctrl-C in the
    calling thread waits for the others), and every thread has its CPU set
    back.  The pool starts with the first call that needs it, grows to the
    largest share count asked for, and lives until :func:`close_pool`.
    """
    # Imported here: a run that never threads does not pay its import.
    from concurrent.futures import ThreadPoolExecutor, wait

    global _pool, _pool_size
    t = len(shares)
    if _pool_size < t - 1:
        close_pool()
        _pool, _pool_size = ThreadPoolExecutor(t - 1, thread_name_prefix="repro-pinned"), t - 1
    cpus = affinity()
    pins = [{cpus[i % len(cpus)]} if cpus else None for i in range(t)]
    blas = _set_blas_threads(1)
    futures = []
    try:
        futures = [_pool.submit(_run_calls, shares[i], args, pins[i]) for i in range(1, t)]
        return [_run_calls(shares[0], args, pins[0]), *(future.result() for future in futures)]
    finally:
        wait(futures)
        if blas is not None:
            _set_blas_threads(blas)


def spread(calls: "Sequence[Callable]", *args) -> list:
    """Every ``calls[i](*args)``, call i on pinned thread i (:func:`run_pinned`); the results in order.

    A lone call runs here, unpinned.  The first call that failed, in call
    order, raises once none is running.
    """
    if len(calls) == 1:
        return [calls[0](*args)]
    shares = run_pinned([[call] for call in calls], *args)
    for _, err in shares:
        if err is not None:
            raise err
    return [done[0] for done, _ in shares]


def close_pool() -> None:
    """Join the pinned pool's threads; the next :func:`run_pinned` that needs them starts a new pool."""
    global _pool, _pool_size
    if _pool is not None:
        _pool.shutdown()
    _pool, _pool_size = None, 0


def _forget_pool() -> None:
    """A fork has none of its parent's threads: drop the pool object it inherited."""
    global _pool, _pool_size
    _pool, _pool_size = None, 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_calls(calls: Sequence[Callable], args: tuple, cpus: "set[int] | None") -> "tuple[list, Exception | None]":
    """Run ``calls`` in order, pinned to ``cpus``, until one raises: the results before it, and its error.

    The thread's own CPU set is back in place when this returns.
    """
    done: list = []
    unpinned = pin_thread(cpus)
    try:
        for call in calls:
            try:
                done.append(call(*args))
            except Exception as err:  # noqa: BLE001 - the caller raises it, in its own order
                return done, err
        return done, None
    finally:
        pin_thread(unpinned)
