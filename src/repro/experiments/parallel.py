"""One process-parallel mechanism: a list of items on the parent plus late-started helpers.

``run_experiment`` runs a lineup's methods through :func:`run_items`, and
``SweepRunner`` a campaign's cells.  The parent runs items from the front,
in-process; if an item is still unclaimed :data:`_HELPER_BOOT_S` later, up to
``n_procs - 1`` spawned helpers take items from the back.  Each item is a
pure function of its JSON payload and results come back in item order, so
where an item ran never shows in the output bytes.  ``docs/backends.md``
("One scheduler") has every rule and what it costs.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import signal
import sys
import tempfile
import threading
import types
from typing import Any, Callable, Iterator, Sequence

from repro.api.registries import all_registries
from repro.distributed.sharded_bank import _blas_cap
from repro.obs.emit import telemetry_on

__all__ = ["run_items"]

#: Wall seconds from ``Process.start()`` until a lineup helper can claim its
#: first method: spawn, import NumPy and ``repro``, rebuild the config and the
#: split.  Ten fresh starts on a 2-vCPU VM, BLAS pinned: 0.25-0.36 s, median
#: 0.29.  Helpers start once the parent has itself run this long.
_HELPER_BOOT_S = 0.29

#: True while this process takes part in a scheduler spread over more than
#: one process: always in a helper, and on the parent while the scheduler runs.
_in_parallel_item = False


def _registry_refs() -> dict:
    """``module:qualname`` of every registered component, keyed ``kind:name``."""
    return {
        f"{kind}:{name}": f"{getattr(entry, '__module__', None)}:{getattr(entry, '__qualname__', repr(entry))}"
        for kind, registry in all_registries().items() if kind != "sweeps"
        for name, entry in ((name, registry.get(name)) for name in registry.names())
    }


def _claim(claims: str, index: int) -> bool:
    """Take item ``index``: of all processes asking, exactly one gets it."""
    try:
        os.close(os.open(os.path.join(claims, str(index)), os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _helper(fn: Callable[[Any], Any], items: list, claims: str, registries: dict) -> None:
    """A helper: run unclaimed items from the back, one pickled result each.

    An item that raises ends the helper: the parent reruns it, so the error
    reaches the caller as in a serial run.  ``terminate()`` unwinds like
    Ctrl-C, so a sharded cell shuts its shards down and unlinks its segments.
    """
    global _in_parallel_item
    _in_parallel_item = True
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if _registry_refs() != registries:
        return
    try:
        for index in reversed(range(len(items))):
            if not _claim(claims, index):
                continue
            try:
                result = fn(items[index])
            except Exception:  # noqa: BLE001 - the parent reruns it and raises it there
                return
            path = os.path.join(claims, f"{index}.pkl")
            with open(f"{path}.tmp", "wb") as fh:
                pickle.dump(result, fh)
            os.replace(f"{path}.tmp", path)
    except KeyboardInterrupt:
        pass


def _spawn_later(n_helpers: int, args: tuple, procs: list) -> threading.Timer:
    """In :data:`_HELPER_BOOT_S`, spawn up to ``n_helpers`` helpers for the items still unclaimed."""
    _, items, claims, _ = args

    def spawn() -> None:
        n_spawn = min(n_helpers, len(items) - len(os.listdir(claims)))
        # spawn re-imports a parent ``__main__`` that has a file or a module
        # spec; a stand-in with neither keeps an unguarded script (or a
        # notebook cell) from running its top level again in every helper.
        main = sys.modules["__main__"]
        sys.modules["__main__"] = types.ModuleType("__main__")
        try:
            with _blas_cap(n_spawn + 1):
                for _ in range(n_spawn):
                    proc = multiprocessing.get_context("spawn").Process(target=_helper, args=args)
                    proc.start()
                    procs.append(proc)
        except OSError:  # no process to spare: the parent runs what is left
            pass
        finally:
            sys.modules["__main__"] = main

    timer = threading.Timer(_HELPER_BOOT_S, spawn)
    timer.start()
    return timer


def run_items(
    items: Sequence[Any], fn: Callable[[Any], Any], run_here: Callable[[int], Any], n_procs: int
) -> Iterator[Any]:
    """Yield the result of every item, in item order, from up to ``n_procs`` processes.

    ``run_here(index)`` runs item ``index`` on this process; a helper runs
    ``fn(items[index])`` instead, so ``fn`` must be picklable (module level)
    and the items JSON-like.  Every helper has exited or been terminated
    when the iterator is exhausted or closed.
    """
    global _in_parallel_item
    n_procs = min(n_procs, len(items))
    if n_procs < 2 or telemetry_on() or _in_parallel_item:
        for index in range(len(items)):
            yield run_here(index)
        return
    claims = tempfile.mkdtemp(prefix="repro-items-")
    procs: list = []
    timer = _spawn_later(n_procs - 1, (fn, list(items), claims, _registry_refs()), procs)
    _in_parallel_item = True
    try:
        first = 0
        while first < len(items) and _claim(claims, first):
            yield run_here(first)
            first += 1
        if first == len(items):
            return
        # The helpers hold the rest; what none of them finished (it died, or
        # its item raised) runs here.
        timer.join()
        for proc in procs:
            proc.join()
        for index in range(first, len(items)):
            path = os.path.join(claims, f"{index}.pkl")
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    yield pickle.load(fh)
            else:
                yield run_here(index)
    finally:
        _in_parallel_item = False
        timer.cancel()
        timer.join()
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        shutil.rmtree(claims, ignore_errors=True)
