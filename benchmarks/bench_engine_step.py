"""What one local step costs the autograd engine, against the same NumPy calls written flat.

Runs the ``bench_family`` campaign's ``pasgd-tau8`` cell (smoke MLP 16→16→10,
m = 6 workers, batch 16) and prints, per ``WorkerBank.local_step``:

* Python-level function calls (``cProfile``) and graph nodes created — exact
  counts, the numbers ``docs/engine.md`` and ``tests/test_engine_cost.py`` quote;
* microseconds for forward + backward through ``repro.nn``, beside a flat
  transcription of the step — the same NumPy calls in the same order with no
  ``Tensor``, closure or walk — timed in this process and checked to produce
  the same gradient bytes.  The gap is the engine's overhead; the flat figure
  is the floor any recorded-plan design could reach (ROADMAP item 9).

Standalone, nothing gated (seconds are never ratcheted in CI)::

    PYTHONPATH=src python benchmarks/bench_engine_step.py
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from pathlib import Path

# Allow running without PYTHONPATH=src.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.distributed.worker_bank import WorkerBank
from repro.experiments.harness import run_method
from repro.nn.tensor import Tensor
from repro.sweep.campaigns import method_family_sweep

METHOD = "pasgd-tau8"


def profiled_cell() -> "tuple[WorkerBank, float, float]":
    """Run the cell with a profiler on around every ``local_step``; return the
    bank it trained and (function calls, graph nodes) per step."""
    profiler = cProfile.Profile()
    banks: list[WorkerBank] = []
    counts = {"steps": 0, "makes": 0}
    local_step, make = WorkerBank.local_step, Tensor._make

    def counted_make(self, data, parents, backward):
        out = make(self, data, parents, backward)
        counts["makes"] += out._backward is not None  # evaluation forwards run outside the profiled steps
        return out

    def profiled_step(self):
        banks[:] = [self]
        counts["steps"] += 1
        profiler.enable()
        try:
            return local_step(self)
        finally:
            profiler.disable()

    WorkerBank.local_step, Tensor._make = profiled_step, counted_make
    try:
        run_method(method_family_sweep().base, METHOD)
    finally:
        WorkerBank.local_step, Tensor._make = local_step, make
    # Not the engine's: one wrapper frame per node made, one ``disable`` per step.
    calls = pstats.Stats(profiler).total_calls - counts["makes"] - counts["steps"]
    return banks[0], calls / counts["steps"], counts["makes"] / counts["steps"]


def flat_step(X, y, W1, b1, W2, b2, grads):
    """Forward + backward of the MLP bank step as bare NumPy: the calls the
    engine makes, in its order, gradients written into ``grads`` in place."""
    gW1, gb1, gW2, gb2 = grads
    m, batch = y.shape
    # forward: reshape, affine, relu, reshape, affine, fused cross-entropy, sum
    h = X @ W1
    np.add(h, b1.reshape(m, 1, -1), out=h, casting="safe")
    a = np.maximum(h, 0)
    z = a @ W2
    np.add(z, b2.reshape(m, 1, -1), out=z, casting="safe")
    shifted = np.subtract(z, z.max(axis=-1, keepdims=True))
    exp = np.exp(shifted)
    row_sum = exp.sum(axis=-1, keepdims=True)
    log_probs = np.subtract(shifted, np.log(row_sum))
    key = (np.arange(m)[:, None], np.arange(batch)[None, :], y)
    scale = np.asarray(1.0 / batch)
    losses = np.negative(log_probs[key].sum(axis=1) * scale)
    total = losses.sum(axis=None, keepdims=True)
    # backward, newest node first
    g = np.empty((m,), total.dtype)
    np.copyto(g, np.ones((), total.dtype).reshape(total.shape))
    full = np.zeros(z.shape, z.dtype)
    full[key] += (-g * scale).reshape(m, 1)
    gz = np.add(full, (-full).sum(axis=(2,), keepdims=True) / row_sum * exp, out=full)
    ga = gz @ W2.swapaxes(-1, -2)
    np.matmul(a.swapaxes(-1, -2), gz, out=gW2)
    np.copyto(gb2, gz.sum(axis=(1,), keepdims=True).reshape(gb2.shape))
    gh = ga * (h > 0)
    np.matmul(X.swapaxes(-1, -2), gh, out=gW1)
    np.copyto(gb1, gh.sum(axis=(1,), keepdims=True).reshape(gb1.shape))
    return losses


def best_us(fn, repeats: int = 9, number: int = 400) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / number * 1e6


def main() -> None:
    bank, calls, nodes = profiled_cell()
    X, y = bank.loader.next_batches()
    state = bank.bank.state()
    names = ("net.layer0.weight", "net.layer0.bias", "net.layer2.weight", "net.layer2.bias")
    params = [state[name] for name in names]

    def engine_step():
        bank.optimizer.zero_grad()
        losses = bank.model.bank_loss(Tensor(X), y, state)
        losses.sum().backward()
        return losses.data

    flat_grads = [np.full_like(p.grad_buffer, np.nan) for p in params]

    def flat():
        return flat_step(X, y, *(p.data for p in params), flat_grads)

    assert engine_step().tobytes() == flat().tobytes(), "flat transcription: losses differ"
    for name, p, flat_grad in zip(names, params, flat_grads):
        assert p.grad.tobytes() == flat_grad.tobytes(), f"flat transcription: {name} gradient differs"

    engine_us, flat_us = best_us(engine_step), best_us(flat)
    print(f"cell: bench_family / {METHOD} (m={bank.n_workers}, batch={bank.loader.batch_size}, smoke MLP)")
    print(f"python function calls per local_step : {calls:.1f}")
    print(f"graph nodes per local_step           : {nodes:.1f}")
    print(f"forward + backward, repro.nn         : {engine_us:.1f} us")
    print(f"forward + backward, flat NumPy       : {flat_us:.1f} us (same gradient bytes)")
    print(f"engine / flat                        : {engine_us / flat_us:.2f}x")


if __name__ == "__main__":
    main()
