"""The simulated cluster: workers + communication collective + virtual wall clock.

``SimulatedCluster`` implements the PASGD update rule (eq. 3): it asks every
worker to run τ local SGD steps, advances the virtual clock by the slowest
worker's compute time (the runtime simulator samples each worker's, the
cluster takes the max), then performs the model-averaging collective and
advances the clock by the sampled communication delay.  The cluster is the
one ledger of simulated time: :meth:`~SimulatedCluster.breakdown` keeps the
running totals of both, and the simulator keeps none.  What that
communication step does to the ``(m, P)`` states and to the clock is one
value — ``Exact | Gossip | AsyncFold``, see
:mod:`repro.distributed.collectives` — so the paper's method and its
decentralized and asynchronous extensions (Section 6) are the same two
phases, :meth:`~SimulatedCluster.run_local_period` then
:meth:`~SimulatedCluster.average_models`.

The cluster is deliberately policy-free: *when* to average and with what τ
and learning rate is decided by the trainer / communication schedule in
``repro.core``.  *How* the m replicas are executed is equally pluggable: a
worker-execution backend (see ``repro.distributed.backends``) runs the one
local step on one bank of m as stacked NumPy ops (``"vectorized"``), on m
banks of one in a Python loop (``"loop"``), or on one bank per shard in a
pool of processes (``"sharded"``).  ``"auto"`` picks the sharded pool at or
above its worker threshold, else the vectorized bank when the model and data
support it, else the loop.  The collective is the same arithmetic on every
backend — an operation on the stacked ``(m, P)`` states — and the straggler
clock advance is backend-independent.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.data.partition import PartitionedDataset, partition_dataset
from repro.data.synthetic import Dataset
from repro.distributed import host
from repro.distributed.averaging import weighted_average_states
from repro.distributed.backends import WorkerBackend
from repro.distributed.collectives import AsyncFold, Collective, Exact, Gossip
from repro.distributed.reuse import BackendHandle
from repro.distributed.topology import consensus_distance, mixing_matrix_for
from repro.distributed.worker_bank import shard_slices
from repro.nn.layers import Classifier, Module, evaluating
from repro.nn.losses import accuracy, bank_cross_entropy
from repro.nn.tensor import Tensor, Workspace, no_grad
from repro.obs.emit import count, gauge, instant, muted, observe, observe_many, span
from repro.optim.block_momentum import BlockMomentum
from repro.runtime.simulator import AsyncRoundTiming, RuntimeSimulator
from repro.utils.domains import AT_LEAST_ONE, POSITIVE
from repro.utils.seeding import SeedSequence
from repro.utils.timer import VirtualClock

__all__ = ["SimulatedCluster", "RowMetric"]


class RowMetric(NamedTuple):
    """The mean loss (``kind="loss"``) or the top-1 accuracy (``"accuracy"``) of a model on rows ``X``, labels ``y``.

    Called on a model it is the whole-data metric: ``model.loss(X, y)``, or
    the accuracy of ``model(X)``.  On a :class:`~repro.nn.layers.Classifier`
    it is a function of the ``(n, C)`` logits alone (:meth:`of_logits`), so
    :meth:`SimulatedCluster.evaluate_synchronized` may forward its rows in
    blocks.
    """

    kind: str
    X: np.ndarray
    y: np.ndarray

    def __call__(self, model: Module) -> float:
        if self.kind == "loss":
            return float(model.loss(self.X, self.y).item())
        return accuracy(model(self.X), self.y)

    def of_logits(self, logits: np.ndarray) -> float:
        """The metric of a classifier whose forward gave ``logits`` for all n rows."""
        if self.kind == "loss":
            return float(bank_cross_entropy(Tensor(logits[None]), self.y[None]).item())
        return accuracy(logits, self.y)


def _widest_row(model: Module, X: np.ndarray) -> int:
    """Bytes of the widest array one row of ``X`` makes in ``model``'s eval-mode forward, the row included.

    One row goes forward as the only tensor that records a tape, so the tape
    holds exactly the activations; the parameters are copied out of it.  The
    forward is muted: a layout reading is not evaluation work, and a profile
    must not depend on whether the rule was read.
    """
    params = {
        name: Tensor(value.data) if isinstance(value, Tensor) else value
        for name, value in model._bank_of_one().items()
    }
    was_training = model.training
    model.eval()
    try:
        with muted():
            out = model.bank_forward(Tensor(X[None, :1], requires_grad=True), params)
    finally:
        model.train(was_training)
    widest, stack, seen = 0, [out], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            widest = max(widest, node.data.nbytes)
            stack.extend(parent for parent in node._parents if parent.requires_grad)
    return widest


class SimulatedCluster:
    """m workers training replicas of one model with periodic averaging.

    Parameters
    ----------
    model_fn:
        Zero-argument factory returning a fresh model replica.  All replicas
        are forced to the same initial parameters (the paper requires all
        workers to start from the same ``x1``).
    dataset:
        Training dataset to shard across workers (or an existing
        :class:`PartitionedDataset`).  ``None`` is allowed for data-free
        objectives (e.g. the quadratic problems), in which case every worker
        gets ``shard=None``.
    runtime:
        The delay model driving the virtual wall clock.
    n_workers:
        Cluster size m; must match ``runtime.n_workers``.
    batch_size, lr, momentum, weight_decay:
        Local-optimizer settings applied to every worker.
    collective:
        What the communication step does to the worker states and to the
        clock — :class:`~repro.distributed.collectives.Exact` (default: the
        paper's all-node mean, optionally shard-size weighted, with block
        momentum, or folding only elastic survivors),
        :class:`~repro.distributed.collectives.Gossip` or
        :class:`~repro.distributed.collectives.AsyncFold`.  The value is
        pure; the state it implies (momentum buffer, dropout RNG stream,
        mixing matrix, server version counters) lives here.
    backend:
        Worker-execution backend name: ``"loop"`` (m banks of one worker,
        the independent check of the worker axis), ``"vectorized"`` (one
        stacked bank of m; above L2, k of them stepped on threads),
        ``"sharded"`` (the bank split over a persistent pool of worker
        processes), or ``"auto"`` (vectorized whenever the model and shards
        support it — all built-in models do — else loop).
        All backends consume the same RNG streams, so seeded runs produce
        byte-identical trajectories on any of them.  A name runs on the
        default process layout; any other (shard count, the
        ``"auto"`` escalation to the sharded pool) travels whole as a
        :class:`~repro.distributed.reuse.BackendHandle`, which also lets a
        sharded pool survive across cluster lifetimes.  Whoever builds a
        handle closes it: ``close()`` here keeps a caller's handle's pool.
    bank_dtype:
        Storage dtype of the bank backends (``"float64"``, the
        byte-identical default, or ``"float32"``, the opt-in
        reduced-precision mode — half the memory traffic, parity within
        tolerance rather than byte-equality).  The loop backend is the
        float64 check and ignores this knob.
    """

    def __init__(
        self,
        model_fn: Callable[[], Module],
        dataset: Dataset | PartitionedDataset | None,
        runtime: RuntimeSimulator,
        n_workers: int,
        batch_size: int = 32,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        collective: Collective = Exact(),
        partition_strategy: str = "iid",
        seed: int = 0,
        backend: "str | BackendHandle" = "loop",
        bank_dtype: str = "float64",
    ):
        AT_LEAST_ONE("n_workers", n_workers)
        if runtime.n_workers != n_workers:
            raise ValueError(
                f"runtime simulator is configured for {runtime.n_workers} workers, "
                f"cluster has {n_workers}"
            )
        if type(collective) not in self._COMBINE:
            raise TypeError(f"collective must be Exact, Gossip or AsyncFold, got {collective!r}")
        self.n_workers = n_workers
        self.runtime = runtime
        self.clock = VirtualClock()
        self._seeds = SeedSequence(seed)

        # Shard the data.
        if dataset is None:
            self._partition = None
            shards: list[Dataset | None] = [None] * n_workers
        elif isinstance(dataset, PartitionedDataset):
            if dataset.n_workers != n_workers:
                raise ValueError("partitioned dataset worker count does not match cluster size")
            self._partition = dataset
            shards = [dataset.shard(i) for i in range(n_workers)]
        else:
            self._partition = partition_dataset(
                dataset, n_workers, strategy=partition_strategy, rng=self._seeds.generator()
            )
            shards = [self._partition.shard(i) for i in range(n_workers)]

        # Samples one local step draws: each worker's batch, clipped to its shard.
        self._samples_per_step = sum(min(batch_size, len(shard)) for shard in shards if shard is not None)

        # Per-worker RNG streams, spawned in worker order (identical
        # consumption of the seed sequence on every backend).
        worker_rngs = [self._seeds.generator() for _ in range(n_workers)]
        build_kwargs = dict(
            model_fn=model_fn,
            shards=shards,
            batch_size=batch_size,
            lr=lr,
            momentum=momentum,
            weight_decay=weight_decay,
            rngs=worker_rngs,
            bank_dtype=bank_dtype,
        )
        # A caller's handle keeps the pool it resolves for the next run and
        # closes it; cluster.close() only closes a handle it built itself.
        self._owns_handle = not isinstance(backend, BackendHandle)
        self._handle = BackendHandle(backend) if self._owns_handle else backend
        self.backend_name, self._backend = self._handle.acquire(**build_kwargs)

        # Per-run state of the collective; the value itself stays pure.
        self.collective = collective
        self.block_momentum: "BlockMomentum | None" = None
        self._average_weights: "list[int] | None" = None
        # Elastic: the dropout stream and the survivor indices of the last
        # local period (None when the feature is off or no period has run).
        self._elastic_rng: "np.random.Generator | None" = None
        self._last_survivors: "np.ndarray | None" = None
        # Async: the timings of the period whose updates are still in flight.
        self._async_timing: "AsyncRoundTiming | None" = None
        if isinstance(collective, Exact):
            if collective.block_momentum > 0:
                self.block_momentum = BlockMomentum(collective.block_momentum)
            if collective.weighting == "shard_size":
                self._average_weights = self._backend.shard_sizes()
                if self._average_weights is None:
                    raise ValueError(
                        "weighting='shard_size' needs per-worker data shards; "
                        "data-free runs must use weighting='uniform'"
                    )
            if collective.elastic:
                # Spawned after the worker streams and only when elastic: the
                # default consumes the seed sequence as every earlier version
                # did (byte-identical trajectories).
                self._elastic_rng = self._seeds.generator()
        elif isinstance(collective, Gossip):
            self._mixing = mixing_matrix_for(collective.topology, n_workers)
        else:
            # AsyncFold: the server's version counter and the version each
            # worker last pulled (staleness = the difference).
            self._server_version = 0
            self._pulled_versions = np.zeros(n_workers, dtype=np.int64)

        self._synchronized_params = self._backend.initial_state()
        # See evaluate_synchronized: the calling thread's workspace, one per
        # further row block, the widest row per (row shape, dtype) and the
        # row blocks per (data shape, dtype).
        self._eval_workspace = Workspace()
        self._block_workspaces: list[Workspace] = []
        self._row_bytes: dict[tuple, int] = {}
        self._eval_bounds: dict[tuple, list] = {}
        # The ledger of simulated time: what breakdown() reports.
        self.total_local_iterations = 0
        self.communication_rounds = 0
        self.compute_time = 0.0
        self.communication_time = 0.0
        self.current_lr = lr
        gauge("workers", n_workers)

    @property
    def workers(self):
        """One :class:`~repro.distributed.backends.WorkerView` per worker, on every backend."""
        return self._backend.workers

    @property
    def backend(self) -> WorkerBackend:
        """The worker-execution backend instance."""
        return self._backend

    def close(self) -> None:
        """Release backend resources (a process pool, chunk threads).

        Idempotent; the experiment harness calls it after every run, and
        ``with SimulatedCluster(...)`` does so on exit.  A sharded pool
        acquired through a caller's
        :class:`~repro.distributed.reuse.BackendHandle` is the handle's — it
        stays alive here so the next run can reuse it.  The evaluation
        workspaces' buffers are dropped and the pinned pool's threads joined
        either way.
        """
        self._eval_workspace = Workspace()
        self._block_workspaces = []
        host.close_pool()
        self._handle.release(self._backend)
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "SimulatedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the two phases of a round ---------------------------------------------
    def run_local_period(self, tau: int) -> float:
        """All workers run τ local steps; the clock advances by the slowest worker.

        Under :class:`AsyncFold` there is no barrier: each worker advances its
        own virtual clock (τ steps plus one point-to-point push) and the global
        clock stands still until :meth:`average_models` folds the arrivals.

        Returns the mean local batch loss over the period (across workers and
        steps), which AdaComm may use as a cheap loss proxy.
        """
        AT_LEAST_ONE("tau", tau)
        # The span closes after the clock advance so its virtual duration is
        # the sampled straggler-bound compute time of the period.
        with span("local_steps", clock=self.clock, tau=tau, backend=self.backend_name):
            with span("cluster.local_period"):
                losses = self._backend.local_period(tau)
            if isinstance(self.collective, AsyncFold):
                self._async_timing = self.runtime.sample_async_period(tau)
                # No barrier: the ledger books the mean worker's compute time.
                duration = float(self._async_timing.per_worker_compute.mean())
            else:
                per_worker = self.runtime.sample_local_period(tau)
                waited = per_worker
                if self._elastic_rng is not None:
                    # The round only waits for the surviving workers.
                    self._last_survivors = self._sample_survivors(per_worker)
                    waited = per_worker[self._last_survivors]
                duration = float(waited.max())
                self.clock.advance(duration)
                # Straggler wait per worker: how long each replica idled for
                # the slowest one, in virtual seconds (a determinism-safe
                # histogram).
                observe_many(
                    "straggler_wait_virtual_seconds", np.maximum(duration - per_worker, 0.0)
                )
        count("local_steps_total", tau)
        self.total_local_iterations += tau
        self.compute_time += duration
        return float(np.mean(losses))

    def _sample_survivors(self, per_worker_compute: np.ndarray) -> np.ndarray:
        """Elastic straggler process: which workers report in time this round.

        A worker survives if its τ-step compute time beats the deadline (when
        configured) AND its seeded Bernoulli(1 − p) draw comes up alive.  The
        Bernoulli stream is consumed every round regardless of the deadline
        outcome, so trajectories depend only on the seed, never on timing.
        The fastest worker always survives — the server waits for at least
        one update, so a round can never be empty.
        """
        elastic = self.collective
        alive = np.ones(self.n_workers, dtype=bool)
        if elastic.dropout_prob > 0.0:
            draws = self._elastic_rng.random(self.n_workers)
            alive &= draws >= elastic.dropout_prob
        if elastic.dropout_deadline is not None:
            alive &= per_worker_compute <= elastic.dropout_deadline
        if not alive.any():
            alive[int(np.argmin(per_worker_compute))] = True
        return np.flatnonzero(alive)

    def average_models(self) -> np.ndarray:
        """Run the communication collective and advance the clock.

        The scaffold is the same for every collective — the ``communicate``
        span, the byte and round counters, the read-only snapshot, the ledger
        and the clock charge; what happens to the states is the variant's
        ``slab -> (synchronized, bytes moved)`` function.  Returns the new
        synchronized flat parameter vector: the mean every worker loaded
        (:class:`Exact`), the network average of workers that legitimately
        end the round disagreeing (:class:`Gossip`), or the server's state
        (:class:`AsyncFold`).  The returned array *is* the cluster's snapshot
        and is read-only; :attr:`synchronized_parameters` hands out the
        writable copy.
        """
        start = self.clock.now
        # "communicate" spans the whole collective (virtual duration = the
        # sampled network delay); the arithmetic inside it is free on the
        # virtual clock.
        with span("communicate", clock=self.clock, round=self.communication_rounds + 1):
            synchronized, bytes_moved = self._COMBINE[type(self.collective)](self)
            synchronized.flags.writeable = False
            self._synchronized_params = synchronized
            count("bytes_averaged_total", bytes_moved)
            timing, self._async_timing = self._async_timing, None
            if timing is None:
                # A barrier collective pays one sampled all-node delay per
                # mixing round.
                rounds = self.collective.rounds if isinstance(self.collective, Gossip) else 1
                duration = sum(self.runtime.sample_communication() for _ in range(rounds))
                self.clock.advance(duration)
            else:
                # The generation is over when the last update reaches the server.
                duration = float(timing.per_worker_push.mean())
                self.clock.advance(float(timing.arrival_times.max()) - start)
        self.communication_rounds += 1
        self.communication_time += duration
        return synchronized

    def _exact_average(self) -> tuple[np.ndarray, int]:
        """The paper's collective: every worker loads the mean of all states.

        With the elastic straggler process on, dropped workers contribute
        nothing this round; the broadcast still reaches them, which *is* the
        rejoin — next round they start from the survivors' average.
        """
        survivors, self._last_survivors = self._last_survivors, None
        partial = survivors is not None and len(survivors) < self.n_workers
        with span("average", clock=self.clock, n_workers=self.n_workers):
            if not partial and self._average_weights is None:
                # Uniform averaging goes through the backend's mean_state
                # hook, which is bit-identical to mean(axis=0) over the
                # gathered stack but lets the sharded backend overlap the
                # reduction with the gather (folding each shard's rows as
                # they arrive).
                averaged, gathered_bytes = self._backend.mean_state()
            else:
                states = self._backend.get_stacked_states()
                rows = survivors if partial else range(self.n_workers)
                weights = [
                    1.0 if self._average_weights is None else self._average_weights[i]
                    for i in rows
                ]
                averaged = weighted_average_states([states[i] for i in rows], weights)
                # Only the folded rows crossed the network this round.
                gathered_bytes = states.nbytes // self.n_workers * len(rows)
            if partial:
                dropped = self.n_workers - len(survivors)
                count("worker_dropouts_total", dropped)
                instant(
                    "worker_dropout",
                    clock=self.clock,
                    round=self.communication_rounds + 1,
                    dropped=dropped,
                    survivors=len(survivors),
                )
            if self.block_momentum is not None:
                averaged = self.block_momentum.apply(
                    self._synchronized_params, averaged, self.current_lr
                )
            self._backend.broadcast_state(averaged)
            if self.block_momentum is not None:
                self._backend.reset_momentum()
        return averaged, gathered_bytes

    def _gossip_mix(self) -> tuple[np.ndarray, int]:
        """Decentralized averaging: ``rounds`` mixings ``X ← W X``.

        Workers combine their neighbours' states per the topology's
        doubly-stochastic mixing matrix instead of computing an exact global
        mean; the synchronized model is the network average of the mixed
        states (what a decentralized deployment would evaluate).
        """
        gossip, W = self.collective, self._mixing
        with span("gossip_mix", clock=self.clock, topology=gossip.topology, rounds=gossip.rounds):
            states = mixed = self._backend.get_stacked_states()
            for _ in range(gossip.rounds):
                mixed = W @ mixed
            self._backend.set_stacked_states(mixed)
            averaged = mixed.mean(axis=0)
        gauge("consensus_distance", lambda: consensus_distance(list(mixed)))
        count("gossip_rounds_total", gossip.rounds)
        # Each gossip round ships one state row per directed edge of the graph
        # (off-diagonal nonzeros of W).  Bytes come from the gathered slab:
        # ``W @ slab`` is float64 whatever the bank stores.
        edges = int(np.count_nonzero(W)) - self.n_workers
        return averaged, states.nbytes // self.n_workers * max(edges, 0) * gossip.rounds

    def _async_fold(self) -> tuple[np.ndarray, int]:
        """The parameter server folds one generation in arrival order.

        Every worker pushes the state it reached from the parameters it last
        pulled; fast workers' updates land first (per-worker virtual clocks
        in the runtime simulator).  An update folds in with weight
        ``1 / (m · (1 + damping · staleness))`` and its worker pulls the
        server's latest state the moment the push lands.  Each worker has at
        most one outstanding period, so staleness is bounded by 2(m − 1):
        the folds after the worker's pull in the previous generation (up to
        m − 1, when it landed first) plus the folds before it in this one
        (up to m − 1, when it lands last).
        """
        timing, damping = self._async_timing, self.collective.damping
        if timing is None:
            raise RuntimeError("nothing to fold: run_local_period() must precede an async fold")
        with span("cluster.average"):
            states = self._backend.get_stacked_states()
            server = self._synchronized_params.copy()
            # Stable sort: simultaneous arrivals fold in worker order,
            # keeping the trajectory independent of sort internals.
            for worker in np.argsort(timing.arrival_times, kind="stable").tolist():
                staleness = self._server_version - int(self._pulled_versions[worker])
                weight = 1.0 / (self.n_workers * (1.0 + damping * staleness))
                server *= 1.0 - weight
                server += weight * states[worker]
                self._server_version += 1
                self._pulled_versions[worker] = self._server_version
                # The worker pulls the fresh server state with its push.
                states[worker] = server
                observe("staleness_updates", float(staleness))
                instant(
                    "async_apply",
                    clock=self.clock,
                    worker=worker,
                    staleness=staleness,
                    arrival=float(timing.arrival_times[worker]),
                )
            self._backend.set_stacked_states(states)
        return server, states.nbytes

    # What each collective does to the states: () -> (synchronized, bytes moved).
    _COMBINE = {Exact: _exact_average, Gossip: _gossip_mix, AsyncFold: _async_fold}

    def run_round(self, tau: int) -> float:
        """One full round: τ local steps at each worker, then the collective."""
        loss = self.run_local_period(tau)
        self.average_models()
        return loss

    # benchmarks/e2e (frozen for this PR) resolves this name in LAYER_TARGETS;
    # the benchmark PR that drops it there deletes the alias.
    run_async_round = run_round

    # -- hyper-parameter control ---------------------------------------------------
    def set_lr(self, lr: float) -> None:
        """Set the learning rate on every worker."""
        POSITIVE("learning rate", lr)
        self._backend.set_lr(lr)
        self.current_lr = float(lr)

    # -- state access -----------------------------------------------------------------
    @property
    def synchronized_parameters(self) -> np.ndarray:
        """Flat parameters of the most recent synchronized (averaged) model."""
        return self._synchronized_params.copy()

    def evaluate_synchronized(self, *metrics: Callable[[Module], float]) -> tuple[float, ...]:
        """Every ``metric(model)`` of the synchronized model, in order; workers unchanged.

        One load of the synchronized state into backend scratch (a bank
        template, so no worker changes), then one scope in eval mode with
        gradients off under the cluster's :class:`~repro.nn.tensor.Workspace`
        (every backend) for all the metrics: the next evaluation reuses its
        arrays, so a metric returns a number, not a tensor.

        Where a :class:`~repro.nn.layers.Classifier`'s :class:`RowMetric`
        values split (:meth:`_row_bounds`), they go forward first, in
        contiguous row blocks, one block per pinned thread
        (:func:`~repro.distributed.host.spread`), every further thread under
        its own workspace.  The logits are joined in row order and the loss
        or accuracy applied once, here.  A logit row is a function of its own
        input row alone, so the bytes are those of the one forward that every
        metric runs where none splits.
        """
        model = self._backend.materialize(self._synchronized_params)
        rows = [metric for metric in metrics if isinstance(metric, RowMetric)] if isinstance(model, Classifier) else []
        # Outside the scope: the rule's first reading records a one-row tape.
        bounds = [self._row_bounds(model, metric.X) for metric in rows]
        with evaluating(model, self._eval_workspace):
            if max(map(len, bounds), default=1) == 1:
                return tuple(metric(model) for metric in metrics)
            logits = iter(self._forward_rows(model, rows, bounds))
            return tuple(
                metric.of_logits(next(logits)) if isinstance(metric, RowMetric) else metric(model)
                for metric in metrics
            )

    def _row_bounds(self, model: Module, X: np.ndarray) -> "list[tuple[int, int]]":
        """The contiguous ``[lo, hi)`` row blocks ``X`` goes forward in, read once per data shape.

        One block per usable core where a block's rows times the widest row
        (:func:`_widest_row`) fill a core's L2
        (:func:`~repro.distributed.host.block_threads`), else one block.  A
        block has two rows or more: one row would be a GEMV, whose sums need
        not match the GEMM's row.  A cluster runs inside one scheduler item,
        so its share of the cores does not change while it lives.
        """
        key = (X.shape, X.dtype)
        if key not in self._eval_bounds:
            k = min(host.usable_cores(), len(X) // 2)
            if k >= 2:
                row = (X.shape[1:], X.dtype)
                if row not in self._row_bytes:
                    self._row_bytes[row] = _widest_row(model, X)
                k = host.block_threads(k, len(X) // k * self._row_bytes[row])
            self._eval_bounds[key] = shard_slices(len(X), max(k, 1))
        return self._eval_bounds[key]

    def _forward_rows(self, model: Module, metrics: list, bounds: list) -> "list[np.ndarray]":
        """Each metric's ``(n, C)`` logits, its rows forwarded in the blocks of ``bounds``.

        Thread i forwards block i of every metric cut in more than i blocks;
        thread 0 is this one, inside the caller's eval scope.
        """

        def forward(i: int) -> dict:
            out = {}
            for j, (metric, blocks) in enumerate(zip(metrics, bounds)):
                if i < len(blocks):
                    lo, hi = blocks[i]
                    out[j] = model(metric.X[lo:hi]).data
            return out

        def block(i: int) -> dict:
            with no_grad(workspace=self._block_workspaces[i - 1]), muted():
                return forward(i)

        t = max(map(len, bounds))
        while len(self._block_workspaces) < t - 1:
            self._block_workspaces.append(Workspace())
        outputs = host.spread([partial(forward, 0), *(partial(block, i) for i in range(1, t))])
        return [
            outputs[0][j] if len(blocks) == 1
            else np.concatenate([outputs[i][j] for i in range(len(blocks))])
            for j, blocks in enumerate(bounds)
        ]

    def model_discrepancy(self) -> float:
        """Mean L2 distance of local models from their average.

        This is the quantity ``‖X_k (I − J)‖`` that the convergence proof
        bounds; it grows within a local period and collapses to zero at every
        averaging step.
        """
        states = self._backend.get_stacked_states()
        avg = states.mean(axis=0)
        return float(np.mean(np.linalg.norm(states - avg, axis=1)))

    def breakdown(self) -> dict[str, float]:
        """Simulated compute / communication split so far (the Figure-8 quantity).

        Per-period durations live in the ``local_steps`` / ``communicate``
        trace spans; the cluster keeps only the running totals.
        """
        return {
            "compute_time": self.compute_time,
            "communication_time": self.communication_time,
            "total_time": self.compute_time + self.communication_time,
            "local_iterations": float(self.total_local_iterations),
            "communication_rounds": float(self.communication_rounds),
        }

    def epochs_completed(self) -> float:
        """Approximate number of passes over the global training set."""
        if self._partition is None:
            return 0.0
        total_samples = len(self._partition.dataset)
        samples_processed = self.total_local_iterations * self._samples_per_step
        return samples_processed / total_samples if total_samples else 0.0
