"""First-principles counts and the machine calibration kernels.

The MLSYSIM stance (PAPERS.md): name the quantities, count FLOPs and bytes
from layer shapes, *then* compare with what was measured.  This module only
counts; the next issue divides measured by predicted.

* ``train_gflop`` — GEMM work of training (conv and linear layers, forward
  and backward) from the workload's model geometry and its local-step count.
  Element-wise work (ReLU, pooling, softmax, the optimizer) is not counted.
* ``average_gb`` — bytes the averaging collective moves: every communication
  round reads the ``(m, P)`` stack, and writes it back on the broadcast, plus
  the copy kept as the synchronized model — three passes over ``m * P``
  elements.  Computed, so cache effects are ignored.

``python counts.py --calibrate`` prints what this machine's one BLAS thread
and one memory stream sustain, as JSON, for the same cross-check.
"""

from __future__ import annotations

import json
import sys
import time

__all__ = ["param_count", "train_flop_per_sample", "train_gflop", "average_gb", "calibrate"]


def _layers(geometry) -> list[tuple[int, int, int]]:
    """``(positions, fan_in, fan_out)`` of each GEMM layer, per sample.

    An MLP layer is one position; a 3x3 same-padded conv stage has one
    position per pixel with fan-in ``C_in * 9``; a 2x2 pool follows each
    conv stage (``repro.models.cnn.SmallCNN``).
    """
    out = []
    if geometry.model == "mlp":
        prev = geometry.n_features
        for width in geometry.hidden:
            out.append((1, prev, width))
            prev = width
        out.append((1, prev, geometry.n_classes))
    elif geometry.model == "cnn":
        channels, size = 3, int(round((geometry.n_features / 3) ** 0.5))
        if 3 * size * size != geometry.n_features:
            raise ValueError(f"{geometry.n_features} features is not a 3-channel square image")
        for width in geometry.hidden:
            out.append((size * size, channels * 9, width))
            channels, size = width, size // 2
        out.append((1, channels * size * size, geometry.n_classes))
    else:
        raise ValueError(f"unknown model kind {geometry.model!r}")
    return out


def param_count(geometry) -> int:
    """Trainable parameters P (weights + biases)."""
    return sum(fan_in * fan_out + fan_out for _pos, fan_in, fan_out in _layers(geometry))


def train_flop_per_sample(geometry) -> int:
    """GEMM FLOPs of one sample's forward + backward pass.

    Forward is ``2 * positions * fan_in * fan_out`` per layer; backward does
    the weight-gradient GEMM for every layer and the input-gradient GEMM for
    every layer but the first (the data needs no gradient).
    """
    total = 0
    for index, (positions, fan_in, fan_out) in enumerate(_layers(geometry)):
        gemm = 2 * positions * fan_in * fan_out
        total += gemm * (2 if index == 0 else 3)
    return total


def train_gflop(geometry, local_steps: int) -> float:
    """GFLOP of ``local_steps`` local steps on every one of the m workers."""
    samples = local_steps * geometry.n_workers * geometry.batch_size
    return samples * train_flop_per_sample(geometry) / 1e9


def average_gb(geometry, rounds: int) -> float:
    """GB moved by ``rounds`` averaging collectives (3 passes over (m, P))."""
    return rounds * geometry.n_workers * param_count(geometry) * geometry.itemsize * 3 / 1e9


def calibrate() -> dict:
    """Single-thread GEMM rate and copy bandwidth of this machine, best of 5.

    The copy moves 64 MB per pass — several times this box's last-level
    cache — and counts read + write.
    """
    import numpy as np

    n = 384
    a = np.ones((n, n))
    b = np.ones((n, n))
    src = np.ones(8 * 1024 * 1024)
    dst = np.empty_like(src)
    gemm_s, copy_s = [], []
    for _ in range(5):
        t = time.perf_counter()
        a @ b
        gemm_s.append(time.perf_counter() - t)
        t = time.perf_counter()
        np.copyto(dst, src)
        copy_s.append(time.perf_counter() - t)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine.gemm_gflops": 2 * n**3 / min(gemm_s) / 1e9,
        "machine.copy_gbps": 2 * src.nbytes / min(copy_s) / 1e9,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--calibrate"]:
        sys.exit("usage: counts.py --calibrate")
    print(json.dumps(calibrate()))
