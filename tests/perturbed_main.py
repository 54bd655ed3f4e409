"""``python -m repro`` in a hostile environment: reseeded global RNGs, a jittering clock.

Usage::

    PYTHONPATH=src python tests/perturbed_main.py SEED [repro CLI arguments...]

A seeded run is a pure function of its config, so nothing this wrapper
perturbs may reach a result.  It reseeds Python's ``random`` and NumPy's
legacy global RNG with ``SEED``, replaces ``time.time`` / ``perf_counter`` /
``monotonic`` (and their ``_ns`` forms) with a clock that jumps forward by
0 to 6,000 s on every read (so it is not even monotonic), and then runs the
``repro`` CLI.  ``PYTHONHASHSEED`` is set by the caller.  Not a test module:
``tests/test_topology_and_cli.py::test_results_ignore_global_rng_clock_and_hash_seed``
runs it beside a plain run and compares the bytes.
"""

from __future__ import annotations

import random
import runpy
import sys
import time

import numpy as np

seed = int(sys.argv[1])
random.seed(seed)
np.random.seed(seed)
_jitter = random.Random()

for _name in ("time", "perf_counter", "monotonic"):
    _real, _real_ns = getattr(time, _name), getattr(time, _name + "_ns")
    setattr(time, _name, lambda real=_real: real() + _jitter.uniform(0.0, 6e3))
    setattr(time, _name + "_ns", lambda real=_real_ns: real() + _jitter.randrange(6 * 10**12))

sys.argv = ["repro", *sys.argv[2:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
