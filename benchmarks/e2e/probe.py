"""The machine-speed probe: a fixed quarter second of the workloads' kind of work.

Run as a fresh process before and after every measured run (``measure.py``
times it from outside).  It does what the workloads do — start an
interpreter, import NumPy, batched small GEMMs, a ReLU, a fancy-index
gather, small temporaries and dict churn, and a memory-bound pass over a
13 MB array — but shares no code with ``repro``, so a change to the program
cannot move it.  Its wall time says how fast this box is *right now*.
"""

import numpy as np

rng = np.random.default_rng(0)
a = rng.standard_normal((8, 64, 128))
b = rng.standard_normal((8, 128, 64))
x = rng.standard_normal((2400, 192))
idx = rng.integers(0, 2400, size=64)
big = np.ones((16, 104000))
total = 0.0
keep = []
for step in range(220):
    c = np.matmul(a, b)
    total += float(np.maximum(c, 0.0).sum())
    batch = x[idx].reshape(8, 8, 192)
    params = {f"p{j}": batch * 0.5 for j in range(6)}
    for value in params.values():
        value *= 0.99
    if step % 4 == 0:
        big -= 1e-3 * big.mean(axis=0)
    keep.append([step] * 16)
