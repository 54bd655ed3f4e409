"""The simulated cluster: workers + averaging collective + virtual wall clock.

``SimulatedCluster`` implements the PASGD update rule (eq. 3): it asks every
worker to run τ local SGD steps, advances the virtual clock by the slowest
worker's compute time (sampled from the runtime model), then performs the
model-averaging collective and advances the clock by the sampled
communication delay.  Optionally a :class:`~repro.optim.block_momentum.BlockMomentum`
instance post-processes the average (Section 5.3.1).

The cluster is deliberately policy-free: *when* to average and with what τ
and learning rate is decided by the trainer / communication schedule in
``repro.core``.  *How* the m replicas are executed is equally pluggable: a
worker-execution backend (see ``repro.distributed.backends``) either steps m
:class:`Worker` objects in a Python loop (``"loop"``) or runs all replicas
as stacked NumPy ops (``"vectorized"``, the worker bank).  ``"auto"`` picks
the vectorized bank whenever the model and data support it.  The averaging
step is the same arithmetic either way — ``mean(axis=0)`` over the stacked
``(m, P)`` states — and the straggler clock advance is backend-independent.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.partition import PartitionedDataset, partition_dataset
from repro.data.synthetic import Dataset
from repro.distributed.averaging import weighted_average_states
from repro.distributed.backends import WorkerBackend
from repro.distributed.events import CommunicationEvent, EventLog, LocalPeriodEvent
from repro.distributed.reuse import BackendHandle, resolve_backend
from repro.distributed.topology import (
    TOPOLOGIES,
    consensus_distance,
    mix_states,
    mixing_matrix_for,
)
from repro.nn.layers import Module, evaluating
from repro.nn.tensor import Workspace
from repro.obs.metrics import counter_inc, gauge_set, observe, observe_many
from repro.obs.tracer import instant, span
from repro.optim.block_momentum import BlockMomentum
from repro.runtime.simulator import RuntimeSimulator
from repro.utils.seeding import SeedSequence
from repro.utils.timer import VirtualClock, profiled

__all__ = ["SimulatedCluster"]


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
    block_momentum:
        Optional global block-momentum post-processing of each average.
    backend:
        Worker-execution backend name: ``"loop"`` (one ``Worker`` per
        replica, the reference implementation), ``"vectorized"`` (stacked
        worker bank), ``"sharded"`` (the bank split over a persistent pool
        of worker processes), or ``"auto"`` (sharded at or above
        ``auto_shard_threshold`` workers, else vectorized whenever the model
        supports it — all built-in models do — else loop).  All backends
        consume the same RNG streams, so seeded runs produce byte-identical
        trajectories on any of them.  Alternatively a
        :class:`~repro.distributed.reuse.BackendHandle`, which resolves the
        backend through a reusable slot so a sharded pool survives across
        cluster lifetimes (the handle then owns the pool — ``close()`` here
        leaves it alive).
    n_shards:
        Process count for the sharded backend (clamped to ``n_workers``);
        ignored by the in-process backends.
    auto_shard_threshold:
        Cluster size at which ``backend="auto"`` escalates from the
        single-process bank to the sharded pool; ``None`` disables the
        escalation.  Because the backends are byte-identical, the threshold
        changes the process layout, never the trajectory.
    bank_dtype:
        Storage dtype of the bank backends (``"float64"``, the
        byte-identical default, or ``"float32"``, the opt-in
        reduced-precision mode — half the memory traffic, parity within
        tolerance rather than byte-equality).  The loop backend is the
        float64 reference and ignores this knob.
    shard_transport:
        Data plane of the sharded backend's pool: ``"auto"`` (the zero-copy
        shared-memory state plane where the platform supports it, else
        pipes), ``"shm"``, or ``"pipe"``.  Like the other process-layout
        knobs this can never change a trajectory; in-process backends
        ignore it.
    weighting:
        How the averaging collective weights worker states: ``"uniform"``
        (the paper's setting, eq. 3) or ``"shard_size"`` — FedAvg-style
        weighting by each worker's training-shard size, so unbalanced
        partitions (e.g. ``label_skew``) average correctly.  Both backends
        report their shard sizes, so the choice is backend-independent.
    topology:
        Communication graph of the averaging collective.  ``"complete"``
        (default) is the paper's exact all-node mean — bit-identical to
        every earlier version.  ``"ring"``, ``"star"``, and ``"mh"``
        (Metropolis-Hastings weights over a deterministic chordal-ring
        graph) route :meth:`average_models` through gossip mixing instead:
        each worker combines only its neighbours' states, so workers end the
        round *disagreeing* and the synchronized model becomes the network
        average (what a decentralized deployment would evaluate).
    gossip_rounds:
        Gossip iterations per communication step on a non-complete topology
        (each costs one sampled communication delay); ignored when
        ``topology="complete"``.
    dropout_prob:
        Elastic-straggler probability: each round every worker independently
        drops out with this probability (seeded; its own RNG stream so the
        default ``0.0`` leaves existing trajectories byte-identical).
        Averaging folds only the survivors and the clock waits only for
        them; dropped workers rejoin at the next round with the averaged
        model (the broadcast reaches everyone).
    dropout_deadline:
        Optional elastic deadline in virtual seconds: workers whose
        τ-step compute time exceeds it are dropped for the round
        (deterministic given the runtime samples).  Combines with
        ``dropout_prob``; the fastest worker always survives so a round can
        never lose every update.
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
        block_momentum: BlockMomentum | None = None,
        partition_strategy: str = "iid",
        seed: int = 0,
        backend: "str | BackendHandle" = "loop",
        weighting: str = "uniform",
        n_shards: int = 2,
        auto_shard_threshold: "int | None" = None,
        bank_dtype: str = "float64",
        shard_transport: str = "auto",
        topology: str = "complete",
        gossip_rounds: int = 1,
        dropout_prob: float = 0.0,
        dropout_deadline: "float | None" = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if weighting not in ("uniform", "shard_size"):
            raise ValueError(
                f"unknown weighting {weighting!r}; choose 'uniform' or 'shard_size'"
            )
        if runtime.n_workers != n_workers:
            raise ValueError(
                f"runtime simulator is configured for {runtime.n_workers} workers, "
                f"cluster has {n_workers}"
            )
        if topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {topology!r}; choose one of {TOPOLOGIES}")
        if gossip_rounds < 1:
            raise ValueError(f"gossip_rounds must be >= 1, got {gossip_rounds}")
        if not 0.0 <= dropout_prob < 1.0:
            raise ValueError(f"dropout_prob must be in [0, 1), got {dropout_prob}")
        if dropout_deadline is not None and dropout_deadline <= 0:
            raise ValueError(f"dropout_deadline must be positive, got {dropout_deadline}")
        elastic = dropout_prob > 0.0 or dropout_deadline is not None
        if topology != "complete":
            if block_momentum is not None:
                raise ValueError(
                    "block momentum post-processes a single global average and is "
                    "incompatible with decentralized gossip topologies"
                )
            if elastic:
                raise ValueError(
                    "elastic dropout assumes the exact collective; use "
                    "topology='complete' with dropout_prob/dropout_deadline"
                )
        self.n_workers = n_workers
        self.runtime = runtime
        self.block_momentum = block_momentum
        self.clock = VirtualClock()
        self.events = EventLog()
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

        # Per-worker RNG streams, spawned in worker order (identical
        # consumption of the seed sequence on every backend).
        worker_rngs = [self._seeds.generator() for _ in range(n_workers)]
        # The elastic dropout stream is spawned only when the feature is on:
        # a cluster with the default knobs consumes the seed sequence exactly
        # as every earlier version did (byte-identical trajectories).
        self.dropout_prob = float(dropout_prob)
        self.dropout_deadline = dropout_deadline
        self._elastic_rng = self._seeds.generator() if elastic else None
        self.topology = topology
        self.gossip_rounds = int(gossip_rounds)
        self._mixing = (
            None if topology == "complete" else mixing_matrix_for(topology, n_workers)
        )
        # Elastic state: survivor indices of the last local period (None when
        # the feature is off or no period has run yet).
        self._last_survivors: "np.ndarray | None" = None
        # Async parameter-server state: the server's version counter and the
        # version each worker last pulled (staleness = the difference).
        self._server_version = 0
        self._pulled_versions = np.zeros(n_workers, dtype=np.int64)
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
        if isinstance(backend, BackendHandle):
            # A handle-owned backend outlives this cluster (pool reuse across
            # runs); the handle closes it, cluster.close() must not.
            self._owns_backend = False
            self.backend_name, self._backend = backend.acquire(**build_kwargs)
        else:
            self._owns_backend = True
            self.backend_name, self._backend = resolve_backend(
                backend,
                n_shards=n_shards,
                auto_shard_threshold=auto_shard_threshold,
                shard_transport=shard_transport,
                **build_kwargs,
            )

        self.weighting = weighting
        self._average_weights: list[int] | None = None
        if weighting == "shard_size":
            sizes = self._backend.shard_sizes()
            if sizes is None:
                raise ValueError(
                    "weighting='shard_size' needs per-worker data shards; "
                    "data-free runs must use weighting='uniform'"
                )
            self._average_weights = sizes

        self._synchronized_params = self._backend.initial_state()
        self._eval_workspace = Workspace()  # see evaluate_synchronized
        self.total_local_iterations = 0
        self.communication_rounds = 0
        self.current_lr = lr
        gauge_set("workers", n_workers)

    @property
    def workers(self):
        """Per-worker handles: ``Worker`` objects (loop) or bank views (vectorized)."""
        return self._backend.workers

    @property
    def backend(self) -> WorkerBackend:
        """The worker-execution backend instance."""
        return self._backend

    def close(self) -> None:
        """Release backend resources (the sharded backend's process pool).

        Idempotent and a no-op for in-process backends; the experiment
        harness calls it after every run, and ``with SimulatedCluster(...)``
        does so on exit.  A backend acquired through a
        :class:`~repro.distributed.reuse.BackendHandle` is owned by the
        handle — it stays alive here so the next run can reuse its pool.
        The evaluation workspace's buffers are dropped either way.
        """
        self._eval_workspace = Workspace()
        if self._owns_backend:
            self._backend.close()

    def __enter__(self) -> "SimulatedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- core PASGD operations ------------------------------------------------
    def run_local_period(self, tau: int) -> float:
        """All workers run τ local steps; the clock advances by the slowest worker.

        Returns the mean local batch loss over the period (across workers and
        steps), which AdaComm may use as a cheap loss proxy.
        """
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        start = self.clock.now
        # The span closes after the clock advance so its virtual duration is
        # the sampled straggler-bound compute time of the period.
        with span("local_steps", clock=self.clock, tau=tau, backend=self.backend_name):
            with profiled("cluster.local_period"):
                losses = self._backend.local_period(tau)
            timing = self.runtime.sample_local_period(tau)
            if self._elastic_rng is None:
                compute_time = timing.compute_time
            else:
                survivors = self._sample_survivors(timing.per_worker_compute)
                self._last_survivors = survivors
                # The round only waits for the surviving workers.
                compute_time = float(timing.per_worker_compute[survivors].max())
            self.clock.advance(compute_time)
        counter_inc("local_steps_total", tau)
        # Straggler wait per worker: how long each replica idled for the
        # slowest one, in virtual seconds (a determinism-safe histogram).
        observe_many(
            "straggler_wait_virtual_seconds",
            np.maximum(compute_time - timing.per_worker_compute, 0.0),
        )
        self.total_local_iterations += tau
        mean_loss = float(np.mean(losses))
        self.events.append(
            LocalPeriodEvent(
                start_time=start,
                duration=compute_time,
                tau=tau,
                lr=self.current_lr,
                iteration_end=self.total_local_iterations,
                mean_local_loss=mean_loss,
            )
        )
        return mean_loss

    def _sample_survivors(self, per_worker_compute: np.ndarray) -> np.ndarray:
        """Elastic straggler process: which workers report in time this round.

        A worker survives if its τ-step compute time beats the deadline (when
        configured) AND its seeded Bernoulli(1 − p) draw comes up alive.  The
        Bernoulli stream is consumed every round regardless of the deadline
        outcome, so trajectories depend only on the seed, never on timing.
        The fastest worker always survives — the server waits for at least
        one update, so a round can never be empty.
        """
        alive = np.ones(self.n_workers, dtype=bool)
        if self.dropout_prob > 0.0:
            draws = self._elastic_rng.random(self.n_workers)
            alive &= draws >= self.dropout_prob
        if self.dropout_deadline is not None:
            alive &= per_worker_compute <= self.dropout_deadline
        if not alive.any():
            alive[int(np.argmin(per_worker_compute))] = True
        return np.flatnonzero(alive)

    def _average(self, states: np.ndarray) -> np.ndarray:
        """Combine stacked ``(m, P)`` states per the configured weighting.

        Uniform weighting keeps the exact ``mean(axis=0)`` arithmetic (and
        hence float-identical trajectories with earlier versions); shard-size
        weighting routes through :func:`weighted_average_states`.
        """
        if self._average_weights is None:
            return states.mean(axis=0)
        return weighted_average_states(list(states), self._average_weights)

    def average_models(self) -> np.ndarray:
        """Run the configured averaging collective and advance the clock.

        On the default complete topology this is the paper's exact collective:
        average all local models (folding only the elastic survivors when the
        straggler process is on), apply block momentum if configured, and
        broadcast the result.  On a gossip topology it is one decentralized
        mixing step instead (see :meth:`_gossip_mix`).  Returns the new
        synchronized flat parameter vector — the network average under
        gossip, where workers legitimately end the round disagreeing.  The
        returned array *is* the cluster's snapshot and is read-only;
        :attr:`synchronized_parameters` hands out the writable copy.
        """
        if self._mixing is not None:
            return self._gossip_mix()
        start = self.clock.now
        survivors = self._last_survivors
        self._last_survivors = None
        # "communicate" spans the whole collective (virtual duration = the
        # sampled network delay); "average" nests inside it and times just
        # the arithmetic, which is free on the virtual clock.
        with span("communicate", clock=self.clock, round=self.communication_rounds + 1):
            with span("average", clock=self.clock, n_workers=self.n_workers):
                with profiled("cluster.average"):
                    if survivors is not None and len(survivors) < self.n_workers:
                        averaged, gathered_bytes = self._average_survivors(survivors)
                    elif self._average_weights is None:
                        # Uniform averaging goes through the backend's
                        # mean_state hook, which is bit-identical to
                        # mean(axis=0) over the gathered stack but lets the
                        # sharded backend overlap the reduction with the
                        # gather (folding each shard's rows as they arrive).
                        averaged, gathered_bytes = self._backend.mean_state()
                    else:
                        states = self._backend.get_stacked_states()
                        gathered_bytes = states.nbytes
                        averaged = weighted_average_states(
                            list(states), self._average_weights
                        )
                    if self.block_momentum is not None:
                        averaged = self.block_momentum.apply(
                            self._synchronized_params, averaged, self.current_lr
                        )
                    self._backend.broadcast_state(averaged)
                    if self.block_momentum is not None:
                        self._backend.reset_momentum()
                    averaged.flags.writeable = False
                    self._synchronized_params = averaged
            counter_inc("bytes_averaged_total", gathered_bytes)

            duration = self.runtime.sample_communication()
            self.clock.advance(duration)
        counter_inc("comm_rounds_total")
        self.communication_rounds += 1
        self.events.append(
            CommunicationEvent(start_time=start, duration=duration, round_index=self.communication_rounds)
        )
        return averaged

    def _average_survivors(self, survivors: np.ndarray) -> tuple[np.ndarray, int]:
        """Elastic collective: fold only the surviving workers' states.

        Dropped workers contribute nothing this round; the broadcast still
        reaches them, which *is* the rejoin — next round they start from the
        survivors' average.  Weights are uniform (or shard-size) over the
        survivors, renormalized by :func:`weighted_average_states`.
        """
        states = self._backend.get_stacked_states()
        dropped = self.n_workers - len(survivors)
        if self._average_weights is None:
            weights = [1.0] * len(survivors)
        else:
            weights = [self._average_weights[i] for i in survivors]
        averaged = weighted_average_states(
            [states[i] for i in survivors], weights
        )
        counter_inc("worker_dropouts_total", dropped)
        instant(
            "worker_dropout",
            clock=self.clock,
            round=self.communication_rounds + 1,
            dropped=dropped,
            survivors=len(survivors),
        )
        # Only the survivors' rows crossed the network this round.
        row_bytes = states.nbytes // self.n_workers
        return averaged, row_bytes * len(survivors)

    def _gossip_mix(self) -> np.ndarray:
        """One decentralized averaging step: ``gossip_rounds`` mixings of W.

        Workers combine their neighbours' states per the topology's
        doubly-stochastic mixing matrix instead of computing an exact global
        mean; the synchronized model is the network average of the mixed
        states (what a decentralized deployment would evaluate), and the
        clock pays one sampled communication delay per gossip round — on a
        sparse topology each round moves only the edges' worth of bytes.
        """
        start = self.clock.now
        W = self._mixing
        with span("communicate", clock=self.clock, round=self.communication_rounds + 1):
            with span(
                "gossip_mix",
                clock=self.clock,
                topology=self.topology,
                rounds=self.gossip_rounds,
            ):
                with profiled("cluster.average"):
                    states = self._backend.get_stacked_states()
                    mixed = np.stack(
                        mix_states(list(states), W, rounds=self.gossip_rounds)
                    )
                    self._backend.set_stacked_states(mixed)
                    averaged = mixed.mean(axis=0)
                    averaged.flags.writeable = False
                    self._synchronized_params = averaged
                gauge_set(
                    "consensus_distance", consensus_distance(list(mixed))
                )
            # Bytes moved: each gossip round ships one state row per directed
            # edge of the communication graph (off-diagonal nonzeros of W).
            row_bytes = states.nbytes // self.n_workers
            edges = int(np.count_nonzero(W)) - self.n_workers
            counter_inc("bytes_averaged_total", row_bytes * max(edges, 0) * self.gossip_rounds)
            counter_inc("gossip_rounds_total", self.gossip_rounds)
            duration = 0.0
            for _ in range(self.gossip_rounds):
                duration += self.runtime.sample_communication()
            self.clock.advance(duration)
        counter_inc("comm_rounds_total")
        self.communication_rounds += 1
        self.events.append(
            CommunicationEvent(start_time=start, duration=duration, round_index=self.communication_rounds)
        )
        return averaged

    def run_round(self, tau: int) -> float:
        """One full PASGD round: τ local steps at each worker, then averaging."""
        loss = self.run_local_period(tau)
        self.average_models()
        return loss

    def run_async_round(self, tau: int, staleness_damping: float = 0.0) -> float:
        """One asynchronous generation: τ local steps per worker, no barrier.

        Bounded-staleness async local SGD: every worker runs τ steps from the
        parameters it last pulled, then pushes its state to the parameter
        server over a point-to-point link.  The server folds the updates in
        *arrival order* (per-worker virtual clocks in the runtime simulator —
        fast workers' updates land first) with weight
        ``1 / (m · (1 + damping · staleness))``, where staleness counts the
        server versions applied between the worker's pull and its push; each
        worker pulls the server's latest state the moment its own push lands.
        Each worker has at most one outstanding period, so staleness is
        bounded by m − 1 per generation.

        The global clock advances to the last arrival (the server has then
        seen every update of the generation); the mean local batch loss over
        the period is returned, as in :meth:`run_local_period`.
        """
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        if staleness_damping < 0:
            raise ValueError(
                f"staleness_damping must be non-negative, got {staleness_damping}"
            )
        start = self.clock.now
        with span("local_steps", clock=self.clock, tau=tau, backend=self.backend_name):
            with profiled("cluster.local_period"):
                losses = self._backend.local_period(tau)
            timing = self.runtime.sample_async_period(tau)
        counter_inc("local_steps_total", tau)
        self.total_local_iterations += tau

        with span("communicate", clock=self.clock, round=self.communication_rounds + 1):
            with profiled("cluster.average"):
                states = self._backend.get_stacked_states()
                server = self._synchronized_params.copy()
                # Stable sort: simultaneous arrivals fold in worker order,
                # keeping the trajectory independent of sort internals.
                order = np.argsort(timing.arrival_times, kind="stable")
                for i in order:
                    worker = int(i)
                    staleness = self._server_version - int(self._pulled_versions[worker])
                    weight = 1.0 / (
                        self.n_workers * (1.0 + staleness_damping * staleness)
                    )
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
                self._synchronized_params = server
            counter_inc("async_applies_total", self.n_workers)
            counter_inc("bytes_averaged_total", states.nbytes)
            # The generation is over when the last update reaches the server.
            self.clock.advance(float(timing.arrival_times.max()) - start)
        counter_inc("comm_rounds_total")
        self.communication_rounds += 1
        mean_loss = float(np.mean(losses))
        self.events.append(
            LocalPeriodEvent(
                start_time=start,
                duration=float(timing.per_worker_compute.mean()),
                tau=tau,
                lr=self.current_lr,
                iteration_end=self.total_local_iterations,
                mean_local_loss=mean_loss,
            )
        )
        self.events.append(
            CommunicationEvent(
                start_time=start,
                duration=float(timing.per_worker_push.mean()),
                round_index=self.communication_rounds,
            )
        )
        return mean_loss

    # -- hyper-parameter control ---------------------------------------------------
    def set_lr(self, lr: float) -> None:
        """Set the learning rate on every worker."""
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self._backend.set_lr(lr)
        self.current_lr = float(lr)

    # -- state access -----------------------------------------------------------------
    @property
    def synchronized_parameters(self) -> np.ndarray:
        """Flat parameters of the most recent synchronized (averaged) model."""
        return self._synchronized_params.copy()

    def averaged_parameters(self) -> np.ndarray:
        """Average of the *current* local models, without modifying any worker."""
        return self._average(self._backend.get_stacked_states())

    def synchronized_model(self) -> Module:
        """A model loaded with the synchronized parameters.

        The returned module aliases backend scratch state (worker 0's model
        on the loop backend, the bank's template on the vectorized backend);
        callers should treat it as read-only and must not take local steps
        while holding it.
        """
        return self._backend.materialize(self._synchronized_params)

    def evaluate_synchronized(
        self, X: np.ndarray, y: np.ndarray, metric: Callable[[Module, np.ndarray, np.ndarray], float]
    ) -> float:
        """Evaluate a metric of the synchronized model, leaving workers unchanged.

        ``metric`` runs in eval mode with gradients off as one forward under
        the cluster's :class:`~repro.nn.tensor.Workspace` (every backend): the
        next evaluation reuses its arrays, so return a number, not a tensor.
        """

        def run(model: Module) -> float:
            with evaluating(model, self._eval_workspace):
                return metric(model, X, y)

        return self._backend.evaluate_with_state(self._synchronized_params, run)

    def model_discrepancy(self) -> float:
        """Mean L2 distance of local models from their average.

        This is the quantity ``‖X_k (I − J)‖`` that the convergence proof
        bounds; it grows within a local period and collapses to zero at every
        averaging step.
        """
        states = self._backend.get_stacked_states()
        avg = states.mean(axis=0)
        return float(np.mean(np.linalg.norm(states - avg, axis=1)))

    def epochs_completed(self) -> float:
        """Approximate number of passes over the global training set."""
        if self._partition is None:
            return 0.0
        total_samples = len(self._partition.dataset)
        batch = self._backend.batch_size
        samples_processed = self.total_local_iterations * batch * self.n_workers
        return samples_processed / total_samples if total_samples else 0.0
