"""What this process may use of the machine: cores, one core's L2, its BLAS pool.

Every layout decision reads these, so each is defined once here: the
scheduler's share of the cores (:mod:`repro.experiments.parallel`), a shard
process's BLAS pool (:mod:`repro.distributed.sharded_bank`), and the chunk
count of the ``vectorized`` backend and the CPU each of its chunk threads
runs on (:mod:`repro.distributed.worker_bank`).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

__all__ = ["usable_cores", "affinity", "l2_bytes", "pin_thread"]

#: What sizes a BLAS thread pool when NumPy loads; a user who exported one
#: keeps that size in every process (see :func:`_set_blas_threads`).
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The cores a scheduler granted this process, or ``None`` for its whole
#: affinity mask.  A ``run_items`` helper, and its parent while helpers run,
#: hold their share; a shard process holds 1.
_core_share: "int | None" = None

_CACHE_DIR = "/sys/devices/system/cpu/cpu0/cache"


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
