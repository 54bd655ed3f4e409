"""Wall-clock speedup of the bank backends (vectorized + sharded) over the loop.

What ``speedup`` measures: a *batching* ratio.  Every backend runs the same
driver (``WorkerBank.local_step``: ``BankLoader`` → ``bank_loss`` → backward
→ fused ``BankSGD``); the loop runs it as m graphs of one worker, the
vectorized bank as one graph of m.  ``loop_seconds / vectorized_seconds`` is
therefore the per-step Python/dispatch overhead that stacking the worker
axis amortizes — no longer an implementation ratio against a second,
per-parameter driver (which is why the committed ratios fell when the loop
became m banks of one: the numerator got cheaper, the bank did not get
slower).

Times the same seeded PASGD workloads — a dense MLP and a small CNN on
synthetic data, the hot paths of the paper's large-m sweeps (Figs. 12–14) —
on all three execution backends at several cluster sizes, checks that the
backends produce the same trajectory and that ``backend="auto"`` resolves to
the bank for every family, and writes the results to ``BENCH_backend.json``
so the performance trajectory is tracked across PRs.  The sharded family
measures the multi-process pool (``--shards`` processes, spawn start method);
its timings include the per-round transport traffic, so it only wins once the
per-shard arithmetic dominates — exactly the large-m regime it exists for.

A second dimension compares the sharded pool's two data planes head to head —
Pipe pickling vs the zero-copy shared-memory state plane — at ``tau=1`` in
communication-bound sizings of the same two families
(:data:`TRANSPORT_FAMILIES`) across ``--transport-workers`` cluster sizes, and
records each transport's measured per-round pickled payload (via the
``bytes_over_pipe`` / ``bytes_via_shm`` obs counters) under ``"transport"``
in the JSON.  The pipe rows pin the pool's fallback plane by failing the
shared-memory allocation, as a full ``/dev/shm`` would (:func:`pinned_plane`).

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py
    PYTHONPATH=src python benchmarks/bench_backend_speedup.py --workers 2 --rounds 2 --models cnn
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

# Allow running without PYTHONPATH=src.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.data.synthetic import make_gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.reuse import BackendHandle
from repro.distributed.transport import ShmStatePlane
from repro.models.cnn import SmallCNN
from repro.models.mlp import MLP
from repro.runtime.distributions import ConstantDelay
from repro.runtime.network import NetworkModel
from repro.runtime.simulator import RuntimeSimulator

N_CLASSES = 10
LR = 0.05
MOMENTUM = 0.9
SEED = 11

#: The two model families of the paper's experiments: the dense stand-in and
#: the conv path (im2col + batched matmul on the bank backend).  Batch sizes
#: differ deliberately.  The bank backend's win comes from amortizing
#: per-layer Python/dispatch overhead across the m replicas; per-replica
#: GEMMs are already batched in the loop backend, so *raising* the CNN batch
#: shrinks the measured gap (measured: 2.8x at batch 8 vs 1.5x at batch 16
#: for m=8) rather than widening it.  The CNN therefore benchmarks at batch
#: 2 — the small-batch, many-replica regime of the paper's large-m sweeps,
#: and the regime the backend exists to accelerate.
FAMILIES = {
    "mlp": {
        "n_features": 32,
        "batch_size": 8,
        "model_fn": lambda: MLP(32, N_CLASSES, hidden_sizes=(64, 32), rng=42),
        "label": "mlp(64, 32)",
    },
    "cnn": {
        "n_features": 3 * 8 * 8,
        "batch_size": 2,
        "model_fn": lambda: SmallCNN(
            in_channels=3, image_size=8, channels=(8, 16), n_classes=N_CLASSES, rng=42
        ),
        "label": "cnn(8, 16) on 3x8x8",
    },
}


#: Communication-bound sizings of the same two families, used only for the
#: pipe-vs-shm transport comparison.  Transport cost scales with the state
#: plane (m × P) while per-step compute scales with the batch as well, so the
#: regime where the data plane matters — and the one the shm plane targets,
#: the paper's large-model runs — is wide layers at a small batch.  The main
#: FAMILIES sizings keep P small enough that fixed RPC latency (paid equally
#: by both transports) dominates, which would measure mostly noise.
TRANSPORT_FAMILIES = {
    "mlp": {
        "n_features": 32,
        "batch_size": 2,
        "model_fn": lambda: MLP(32, N_CLASSES, hidden_sizes=(512, 256), rng=42),
        "label": "mlp(512, 256)",
    },
    "cnn": {
        "n_features": 3 * 8 * 8,
        "batch_size": 2,
        "model_fn": lambda: SmallCNN(
            in_channels=3, image_size=8, channels=(32, 64), n_classes=N_CLASSES, rng=42
        ),
        "label": "cnn(32, 64) on 3x8x8",
    },
}


def pinned_plane(transport: str):
    """Build sharded pools on ``transport``: "shm" (the default plane) or "pipe".

    The pipe plane is the pool's fallback, so "pipe" fails the shared-memory
    allocation with ENOSPC while the pool is built.
    """
    if transport == "shm":
        return nullcontext()
    return mock.patch.object(
        ShmStatePlane, "create", side_effect=OSError(28, "No space left on device")
    )


@contextmanager
def build_cluster(
    backend: str,
    family: str,
    n_workers: int,
    n_shards: int = 2,
    transport: str = "shm",
    families: dict = FAMILIES,
):
    """A seeded cluster on the given process layout; pool and cluster close on exit."""
    spec = families[family]
    dataset = make_gaussian_blobs(
        n_samples=max(50 * n_workers, 800),
        n_features=spec["n_features"],
        n_classes=N_CLASSES,
        class_sep=1.0,
        rng=3,
    )
    runtime = RuntimeSimulator(
        ConstantDelay(1.0), NetworkModel(2.0, "constant"), n_workers=n_workers, rng=0
    )
    with pinned_plane(transport), BackendHandle(
        backend, n_shards=n_shards
    ) as handle, SimulatedCluster(
        model_fn=spec["model_fn"],
        dataset=dataset,
        runtime=runtime,
        n_workers=n_workers,
        batch_size=spec["batch_size"],
        lr=LR,
        momentum=MOMENTUM,
        weight_decay=1e-4,
        seed=SEED,
        backend=handle,
    ) as cluster:
        yield cluster


def time_backend(backend: str, family: str, n_workers: int, rounds: int, tau: int,
                 repeats: int, n_shards: int = 2, transport: str = "shm",
                 families: dict = FAMILIES):
    """Median-of-``repeats`` wall-clock time and the final loss (parity checks).

    Timing excludes cluster construction (the sharded backend's pool spawn is
    a one-off cost amortized over a whole run, not a per-round one).  One
    extra untimed warm-up run precedes the timed repeats so one-off costs —
    lazy imports, kernel plan-cache population, allocator growth — never land
    in a timed sample; the median then resists the scheduler noise that
    best-of hides on a loaded box and a mean would amplify.
    """
    samples: list[float] = []
    final_loss = float("nan")
    for attempt in range(repeats + 1):  # attempt 0 is the untimed warm-up
        with build_cluster(
            backend, family, n_workers, n_shards=n_shards,
            transport=transport, families=families,
        ) as cluster:
            start = time.perf_counter()
            for _ in range(rounds):
                final_loss = cluster.run_round(tau)
            elapsed = time.perf_counter() - start
        if attempt > 0:
            samples.append(elapsed)
    return float(np.median(samples)), final_loss


def round_transfer_bytes(family: str, n_workers: int, tau: int, n_shards: int,
                         transport: str) -> tuple[int, int]:
    """Per-round (pipe_payload_bytes, shm_payload_bytes) of one sharded round.

    Counted by the ``bytes_over_pipe`` / ``bytes_via_shm`` obs counters the
    backend emits at its transfer sites, so the JSON records the measured
    pickled-payload reduction, not a back-of-envelope estimate: under the
    shm plane the pipes carry only O(1) control tuples and the pipe counter
    reads zero.
    """
    from repro.obs.metrics import MetricsRegistry

    with build_cluster(
        "sharded", family, n_workers, n_shards=n_shards,
        transport=transport, families=TRANSPORT_FAMILIES,
    ) as cluster, MetricsRegistry() as metrics:
        cluster.run_round(tau)
    counters = metrics.snapshot()["counters"]
    return int(counters["bytes_over_pipe"]), int(counters["bytes_via_shm"])


def bench_transports(families: list[str], worker_counts: list[int], rounds: int,
                     tau: int, repeats: int, n_shards: int) -> list[dict]:
    """sharded-pipe vs sharded-shm rows, in the communication-bound regime.

    ``tau`` here is deliberately small (default 1): every local step then
    pays a gather + broadcast, which is the traffic the shm plane exists to
    take off the pipes.  Large-``tau`` runs amortize transport behind
    arithmetic and would measure mostly noise.  The rows use the
    :data:`TRANSPORT_FAMILIES` sizings (wide layers, small batch) for the
    same reason — see that table's comment.
    """
    results = []
    for family in families:
        print(f"transport comparison: {TRANSPORT_FAMILIES[family]['label']}, "
              f"batch {TRANSPORT_FAMILIES[family]['batch_size']}, "
              f"{rounds} rounds x tau={tau}, {n_shards} procs")
        print(f"{'m':>4} {'pipe (s)':>10} {'shm (s)':>10} {'shm speedup':>12} "
              f"{'pipe B/round':>13} {'shm pipe B/round':>17}")
        for m in worker_counts:
            pipe_s, pipe_loss = time_backend(
                "sharded", family, m, rounds, tau, repeats,
                n_shards=n_shards, transport="pipe", families=TRANSPORT_FAMILIES,
            )
            shm_s, shm_loss = time_backend(
                "sharded", family, m, rounds, tau, repeats,
                n_shards=n_shards, transport="shm", families=TRANSPORT_FAMILIES,
            )
            if shm_loss != pipe_loss:
                raise SystemExit(
                    f"transport mismatch for {family} at m={m}: shm loss {shm_loss} "
                    f"must be byte-identical to pipe {pipe_loss}"
                )
            pipe_bytes, _ = round_transfer_bytes(family, m, tau, n_shards, "pipe")
            shm_pipe_bytes, shm_bytes = round_transfer_bytes(family, m, tau, n_shards, "shm")
            speedup = pipe_s / shm_s
            results.append(
                {
                    "model": family,
                    "n_workers": m,
                    "pipe_seconds": round(pipe_s, 6),
                    "shm_seconds": round(shm_s, 6),
                    "shm_speedup": round(speedup, 3),
                    "pipe_payload_bytes_per_round": pipe_bytes,
                    "shm_pipe_payload_bytes_per_round": shm_pipe_bytes,
                    "shm_payload_bytes_per_round": shm_bytes,
                    "final_loss": round(float(shm_loss), 8),
                }
            )
            print(f"{m:>4} {pipe_s:>10.3f} {shm_s:>10.3f} {speedup:>11.2f}x "
                  f"{pipe_bytes:>13} {shm_pipe_bytes:>17}")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", default="4,8,16",
                        help="comma-separated cluster sizes to benchmark")
    parser.add_argument("--models", default="mlp,cnn",
                        help=f"comma-separated model families ({', '.join(FAMILIES)})")
    # 12 rounds keeps every timed sample long enough (hundreds of ms even for
    # the smallest loop config) that scheduler noise stays well inside the CI
    # ratchet's tolerance; the extra rounds cost little since pool spawns and
    # cluster construction — the bulk of the wall time — are untimed one-offs.
    parser.add_argument("--rounds", type=int, default=12, help="PASGD rounds per run")
    parser.add_argument("--tau", type=int, default=10, help="local steps per round")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats (median is reported; one untimed "
                             "warm-up run precedes them)")
    parser.add_argument("--shards", type=int, default=2,
                        help="process count for the sharded backend family")
    parser.add_argument("--transport-workers", default="4,8,16,32",
                        help="comma-separated cluster sizes for the sharded "
                             "pipe-vs-shm transport comparison ('' to skip it)")
    parser.add_argument("--transport-tau", type=int, default=1,
                        help="local steps per round for the transport rows; "
                             "tau=1 is the communication-bound regime the shm "
                             "plane targets")
    parser.add_argument("--out", default="BENCH_backend.json",
                        help="path of the JSON results file")
    args = parser.parse_args(argv)

    worker_counts = [int(m) for m in args.workers.split(",")]
    families = [f.strip() for f in args.models.split(",") if f.strip()]
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise SystemExit(f"unknown model families {unknown}; choose from {list(FAMILIES)}")

    # Every family must resolve auto -> the bank backend (the PR 4 contract).
    auto_backend = {}
    for family in families:
        with build_cluster("auto", family, worker_counts[0]) as cluster:
            auto_backend[family] = cluster.backend_name
        if auto_backend[family] != "vectorized":
            raise SystemExit(
                f"model family {family!r} resolved auto -> {auto_backend[family]!r}; "
                f"expected the vectorized bank backend"
            )

    results = []
    for family in families:
        print(f"backend speedup: {FAMILIES[family]['label']}, "
              f"batch {FAMILIES[family]['batch_size']}, "
              f"{args.rounds} rounds x tau={args.tau}  (auto -> {auto_backend[family]}, "
              f"sharded on {args.shards} procs)")
        print(f"{'m':>4} {'loop (s)':>10} {'vectorized (s)':>15} {'speedup':>8} "
              f"{'sharded (s)':>12} {'speedup':>8}")
        for m in worker_counts:
            loop_s, loop_loss = time_backend("loop", family, m, args.rounds, args.tau, args.repeats)
            vec_s, vec_loss = time_backend("vectorized", family, m, args.rounds, args.tau, args.repeats)
            sharded_s, sharded_loss = time_backend(
                "sharded", family, m, args.rounds, args.tau, args.repeats, n_shards=args.shards
            )
            if not np.isclose(loop_loss, vec_loss, atol=1e-6):
                raise SystemExit(
                    f"backend mismatch for {family} at m={m}: loop loss {loop_loss} "
                    f"vs vectorized {vec_loss}"
                )
            if sharded_loss != vec_loss:
                raise SystemExit(
                    f"backend mismatch for {family} at m={m}: sharded loss {sharded_loss} "
                    f"must be byte-identical to vectorized {vec_loss}"
                )
            speedup = loop_s / vec_s
            sharded_speedup = loop_s / sharded_s
            results.append(
                {
                    "model": family,
                    "n_workers": m,
                    "loop_seconds": round(loop_s, 6),
                    "vectorized_seconds": round(vec_s, 6),
                    "speedup": round(speedup, 3),
                    "sharded_seconds": round(sharded_s, 6),
                    "sharded_speedup": round(sharded_speedup, 3),
                    "final_loss": round(float(vec_loss), 8),
                }
            )
            print(f"{m:>4} {loop_s:>10.3f} {vec_s:>15.3f} {speedup:>7.1f}x "
                  f"{sharded_s:>12.3f} {sharded_speedup:>7.1f}x")

    transport_workers = [int(m) for m in args.transport_workers.split(",") if m.strip()]
    transport_results = (
        bench_transports(
            families, transport_workers, args.rounds, args.transport_tau,
            args.repeats, args.shards,
        )
        if transport_workers
        else []
    )

    payload = {
        "benchmark": "bench_backend_speedup",
        "models": {f: FAMILIES[f]["label"] for f in families},
        "auto_backend": auto_backend,
        "backends": ["loop", "vectorized", "sharded"],
        "batch_size": {f: FAMILIES[f]["batch_size"] for f in families},
        "rounds": args.rounds,
        "tau": args.tau,
        "repeats": args.repeats,
        "timing": {"aggregate": "median", "warmup_runs": 1},
        "shards": args.shards,
        "results": results,
        "transport": {
            "transports": ["pipe", "shm"],
            "tau": args.transport_tau,
            "models": {f: TRANSPORT_FAMILIES[f]["label"] for f in families},
            "batch_size": {f: TRANSPORT_FAMILIES[f]["batch_size"] for f in families},
            "results": transport_results,
        },
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
