"""The run-metrics registry: counters, gauges, histograms, one snapshot API.

Where the tracer answers *what happened when*, the metrics registry answers
*how much in total*: rounds run, bytes moved by the averaging collective,
how shard-RPC latencies distribute, how long workers wait for stragglers.
The registry is one of three sinks of :mod:`repro.obs.emit`: sites call
``count`` / ``gauge`` / ``observe`` there, and a ``span`` / ``instant``
whose event declares a ``counter`` or ``histogram`` in
:mod:`repro.obs.events` feeds that metric with no second call at the site.

:meth:`MetricsRegistry.snapshot` returns one JSON-compatible dict (sorted
keys all the way down) that :class:`~repro.utils.results.RunStore` and
:class:`~repro.sweep.store.ResultStore` persist alongside results.  Metric
values fall into two determinism classes: counts and virtual-time histograms
(``rounds_total``, ``straggler_wait_virtual_seconds``) are pure functions of
the seeded run, while wall-time histograms (``shard_rpc_seconds``) are not —
which is why sweep stores persist snapshots as a *sidecar* file outside the
byte-identity contract (see ``ResultStore.put_metrics``).

The kernel-plan cache is owned by :mod:`repro.nn.layers`; its counters are
bridged into every snapshot (``plan_cache_hits`` / ``plan_cache_misses``) so
one snapshot answers "did the im2col plans actually get reused?".  They read
the snapshotting process's cache only: the plans a lineup or sweep helper
process built never reach the parent's gauges.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.obs.emit import Sink

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "STANDARD_METRICS"]

#: Default histogram bucket upper bounds, in seconds: spans 10 µs to 100 s,
#: one decade per bucket, plus the implicit +inf overflow bucket.
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)

#: Metrics the execution stack emits, pre-registered so every snapshot has
#: the same schema whether or not a given run exercised the metric (every
#: counter and histogram an ``Event`` names must be listed here).
STANDARD_METRICS = (
    ("counter", "rounds_total"),
    ("counter", "comm_rounds_total"),
    ("counter", "local_steps_total"),
    ("counter", "evals_total"),
    ("counter", "bytes_averaged_total"),
    # Sharded-transport accounting: state-plane payload bytes that crossed a
    # pickling Pipe versus bytes moved through the zero-copy shm plane.  The
    # shm transport's pipes carry only O(1) control tuples, so a healthy shm
    # run keeps bytes_over_pipe at zero while bytes_via_shm counts the bank.
    ("counter", "bytes_over_pipe"),
    ("counter", "bytes_via_shm"),
    ("counter", "sweep_cells_executed_total"),
    ("counter", "sweep_cells_cached_total"),
    ("counter", "sweep_cells_failed_total"),
    # Async/decentralized method family: gossip collectives run, async server
    # folds applied, workers dropped by the elastic straggler process.
    ("counter", "gossip_rounds_total"),
    ("counter", "async_applies_total"),
    ("counter", "worker_dropouts_total"),
    ("gauge", "workers"),
    # Post-mix disagreement of the gossip network (0 under exact averaging).
    ("gauge", "consensus_distance"),
    ("histogram", "shard_rpc_seconds"),
    # Wall-clock time of state gathers (sync_states/get_states/mean_state),
    # the phase the shm plane exists to accelerate.
    ("histogram", "shard_gather_seconds"),
    ("histogram", "straggler_wait_virtual_seconds"),
    # Per-applied-update staleness under the async parameter server: how many
    # server versions elapsed between a worker's pull and its push (a count,
    # so the second-scale default buckets double as small-integer bins).
    ("histogram", "staleness_updates"),
)


#: Metric updates are read-modify-writes; emissions from several threads
#: (evaluation blocks, chunk steps) take this lock for each one.
_LOCK = threading.Lock()


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        with _LOCK:
            self.value += amount

    def to_dict(self) -> float:
        return self.value


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    Buckets are cumulative-style upper bounds (seconds by default); a sample
    lands in the first bucket whose bound is >= the value, overflowing into
    the implicit ``+inf`` bucket.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)  # +1: the +inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        # First bucket whose bound is >= value; past the last bound lands in
        # the +inf overflow slot (index len(buckets)).
        bucket = bisect_left(self.buckets, value)
        with _LOCK:
            self.counts[bucket] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def to_dict(self) -> dict:
        labels = [f"le_{b:g}" for b in self.buckets] + ["le_inf"]
        return {
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": dict(zip(labels, self.counts)),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry(Sink):
    """Named counters/gauges/histograms with one snapshot API.

    One registry receives emissions at a time (``enable()`` / ``with
    MetricsRegistry() as m:``; a per-cell registry nested inside an outer
    run registry gives the slot back on exit).  The standard metric set
    (:data:`STANDARD_METRICS`) is pre-registered so snapshots have a stable
    schema; emissions auto-register unseen names with the kind the helper
    implies, so third-party components can emit without ceremony.
    """

    _slot = 1

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, str] = {}
        for kind, name in STANDARD_METRICS:
            self._register(name, kind)

    # -- registration and access --------------------------------------------
    def _register(self, name: str, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            with _LOCK:  # two threads registering one name get one metric
                if name not in self._metrics:
                    self._metrics[name] = _KINDS[kind]()
                    self._kinds[name] = kind
                metric = self._metrics[name]
        if self._kinds[name] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {self._kinds[name]}, "
                f"not a {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._register(name, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._register(name, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._register(name, "histogram")

    # -- snapshot ------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-compatible snapshot of every metric, plus bridged gauges.

        The kernel-plan cache counters from
        :func:`repro.nn.layers.kernel_plan_cache_stats` are read at snapshot
        time so the one dict answers both "what did the run do" and "did the
        hot-path caches work".
        """
        from repro.nn.layers import kernel_plan_cache_stats

        counters, gauges, histograms = {}, {}, {}
        for name in sorted(self._metrics):
            kind = self._kinds[name]
            value = self._metrics[name].to_dict()
            {"counter": counters, "gauge": gauges, "histogram": histograms}[kind][name] = value
        plan_stats = kernel_plan_cache_stats()
        gauges["plan_cache_hits"] = float(plan_stats["hits"])
        gauges["plan_cache_misses"] = float(plan_stats["misses"])
        gauges["plan_cache_conv_plans"] = float(plan_stats["conv_plans"])
        gauges["plan_cache_pool_plans"] = float(plan_stats["pool_plans"])
        return {
            "version": 1,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry(metrics={len(self._metrics)})"
