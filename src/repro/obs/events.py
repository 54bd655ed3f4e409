"""The event schema: every name an emission site may use, and who hears it.

Execution code says *what happened, once, by name* — ``span("shard_rpc",
op=...)``, ``instant("async_apply", ...)`` — and this table says which
consumers that reaches.  Per name, an :class:`Event` declares whether it is a
``trace.jsonl`` record (``timeline``), which ``--profile`` row its wall time
aggregates under (``profile``, formatted from the emission's fields), which
counter it bumps by one (``counter``) and which histogram observes its wall
duration (``histogram``).  A kernel scope such as ``im2col`` is simply an
entry that is profile-only.

Traces are only diffable (``python -m repro.obs diff``) and only safe to
build tooling on if the set of names is a *schema*, not a convention, so
:data:`EVENTS` is the single declaration: :func:`repro.obs.emit.span` /
``instant`` reject any other name at runtime, a walk in ``tests/test_obs.py``
checks every literal call site in ``src/`` against its keys, and
:data:`EVENT_NAMES` derives from it.  Adding an event type is one entry here
plus one call at the site.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["EVENTS", "EVENT_NAMES", "Event", "validate_event_name"]


class Event(NamedTuple):
    """Which consumers one event name reaches."""

    #: Recorded by the tracer as a ``trace.jsonl`` event.
    timeline: bool = True
    #: Profiler row the span's wall time aggregates under (nested by thread);
    #: ``{field}`` placeholders are filled from the emission's fields.
    profile: "str | None" = None
    #: Counter bumped by one per emission (span or instant).
    counter: "str | None" = None
    #: Histogram observing each span's wall duration.
    histogram: "str | None" = None


def _kernel(name: str) -> Event:
    """A profile-only scope: one ``--profile`` row, no trace record."""
    return Event(timeline=False, profile=name)


EVENTS: dict[str, Event] = {
    # One full ``run_experiment`` invocation (all methods on one workload).
    "experiment": Event(),
    # One method's complete training run within an experiment.
    "method": Event(),
    # One PASGD round: τ local steps plus the collective.
    "round": Event(counter="rounds_total"),
    # The compute phase of a round: τ local steps at every worker.
    "local_steps": Event(),
    # The communication phase of a round (virtual clock: the sampled delay).
    "communicate": Event(counter="comm_rounds_total"),
    # The exact-averaging arithmetic (wall clock; nested inside communicate).
    "average": Event(profile="cluster.average"),
    # One decentralized gossip-mixing collective (replaces average's exact mean).
    "gossip_mix": Event(profile="cluster.average"),
    # One staleness-weighted server-side fold of an arriving async update.
    "async_apply": Event(counter="async_applies_total"),
    # One elastic round in which at least one worker dropped out before averaging.
    "worker_dropout": Event(),
    # One evaluation of the synchronized model (free in virtual time).
    "eval": Event(counter="evals_total"),
    # One RPC round-trip to the sharded pool, as the parent sees it; the
    # drain-ack instants share the name and reach the timeline only.
    "shard_rpc": Event(profile="shard_rpc.{op}", histogram="shard_rpc_seconds"),
    # One sweep-campaign cell, tagged with its content address.
    "sweep_cell": Event(),
    # One aggregated profiler row, bridged into the trace at flush time.
    "profile_op": Event(),
    # State gathers of the sharded backend: the phase the shm plane accelerates.
    "shard_gather": Event(timeline=False, histogram="shard_gather_seconds"),
    # Kernel and phase scopes.
    "cluster.local_period": _kernel("cluster.local_period"),
    "cluster.average": _kernel("cluster.average"),
    "bank_sgd.step": _kernel("bank_sgd.step"),
    "conv2d.bank_forward": _kernel("conv2d.bank_forward"),
    "conv2d.bank_backward": _kernel("conv2d.bank_backward"),
    "im2col": _kernel("im2col"),
    "col2im": _kernel("col2im"),
    "pool.bank_forward": _kernel("pool.bank_forward"),
    "pool.bank_backward": _kernel("pool.bank_backward"),
}

#: Every registered name.  Frozen: tooling treats this as the trace schema.
EVENT_NAMES = frozenset(EVENTS)


def validate_event_name(name: str) -> str:
    """Return ``name`` if registered, else raise with the full registry."""
    if name not in EVENTS:
        raise ValueError(
            f"unknown trace event name {name!r}; registered names: "
            f"{sorted(EVENTS)} (add new event types to repro.obs.events)"
        )
    return name
