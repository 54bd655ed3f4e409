"""The emission surface: ``span`` / ``instant`` / ``count`` / ``gauge`` / ``observe``.

Every instrumented site in the execution stack calls one of these five
functions (plus :func:`observe_many`, the lazy bulk form) and nothing else.
Who hears an emission is decided here, from two things: the one switch
:data:`_active` — ``None`` while everything is off, else the triple
``(tracer, registry, profiler)`` of enabled consumers, each possibly ``None``
— and the per-name schema in :mod:`repro.obs.events`.  A span reads the wall
clock once on entry and once on exit, and the tracer's ``wall_dur``, the
registry's latency histogram and the profiler's row all receive that same
duration.

This module and the tracer's time origin are the only wall-clock reads under
``src/`` besides the scheduler's helper delay (``experiments/parallel.py``),
which decides where an item runs, never what it computes: emission sites in
simulation paths never touch a clock themselves, and a run under a jittering
fake clock saves the same bytes.

An item the scheduler hands to a helper process (a fork, so it has the
parent's sinks) runs under :func:`capture`, which fills exactly the occupied
slots with a recorder, and the parent replays the log (:func:`replay`) into
its own sinks where a serial run would have emitted it, so every consumer
sees the serial call sequence and sums its floats in serial order.

Zero overhead when disabled: with the switch off, :func:`span` returns one
shared null context manager and the other helpers are one global read and a
return, so emission sites stay in per-step hot paths unconditionally.

Threads: the three sinks take emissions from any thread.  A thread that
does a share of another thread's work (an evaluation block) runs it
:func:`muted`: its scopes reach no profile row, so the profile stays a
wall-time attribution, and equal, call for call, to the one-thread run's.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Iterator

from repro.obs.events import EVENTS, validate_event_name

__all__ = [
    "Sink", "capture", "count", "gauge", "instant", "muted", "observe", "observe_many", "replay", "span",
]

_OFF = (None, None, None)

#: The process-wide switch: ``None``, or ``(tracer, registry, profiler)``.
_active: "tuple | None" = None


class _Thread(threading.local):
    #: Whether this thread's scopes skip the profiler (see :func:`muted`).
    muted = False


_thread = _Thread()


class Sink:
    """A consumer of emissions, owning one slot of the switch while enabled.

    ``enable`` takes the slot of this sink's kind and remembers the slot's
    previous occupant; ``disable`` gives *that slot* back — never the whole
    switch — so nested sinks of one kind restore the outer one, and sinks of
    different kinds unwind in any order.
    """

    #: Index into :data:`_active`: 0 tracer, 1 registry, 2 profiler.
    _slot: int

    def _occupy(self, occupant: "Sink | None") -> None:
        global _active
        slots = list(_active or _OFF)
        slots[self._slot] = occupant
        _active = tuple(slots) if any(s is not None for s in slots) else None

    def enable(self):
        """Start receiving emissions; returns self."""
        self._prev = (_active or _OFF)[self._slot]
        self._occupy(self)
        return self

    def disable(self):
        """Stop receiving, restoring whichever sink held the slot before."""
        if (_active or _OFF)[self._slot] is self:
            self._occupy(self._prev)
        return self

    def __enter__(self):
        return self.enable()

    def __exit__(self, *exc) -> None:
        self.disable()


class _Span:
    """One ``span(...)`` scope: a single clock pair shared by every consumer.

    The consumers are bound when the scope is created, not when it exits.
    Entering the same scope object again continues that activation for the
    profiler: the time adds up and the call is counted once (a kernel that
    works in blocks).
    """

    __slots__ = ("_sinks", "_name", "_event", "_clock", "_fields", "_calls", "_v0", "_w0")

    def __init__(self, sinks: tuple, name: str, clock, fields: dict):
        self._sinks, self._name, self._clock, self._fields = sinks, name, clock, fields
        self._event = EVENTS[validate_event_name(name)]
        self._calls = 1

    def __enter__(self) -> "_Span":
        # Only an event that declares a row enters the thread's profile path:
        # a bare timeline span must not, or every row would gain an
        # ``experiment/method/round/...`` prefix.
        profile, profiler = self._event.profile, self._sinks[2]
        if profile and profiler is not None:
            profiler.push(profile.format_map(self._fields) if self._fields else profile)
        self._v0 = None if self._clock is None else self._clock.now
        self._w0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        w0 = self._w0
        wall_dur = time.perf_counter() - w0
        tracer, registry, profiler = self._sinks
        timeline, profile, counter, histogram = self._event
        if profile and profiler is not None:
            profiler.pop(self._calls, wall_dur)
            self._calls = 0
        if registry is not None:
            if counter:  # counted whether or not the body raised: the event happened
                registry.counter(counter).inc()
            if histogram:
                registry.histogram(histogram).observe(wall_dur)
        if timeline and tracer is not None:
            v0 = self._v0
            tracer.record(
                self._name, "span", v0, None if v0 is None else self._clock.now - v0,
                w0, wall_dur, self._fields,
            )


#: The one disabled-path scope: ``span`` returns this singleton instead of
#: constructing anything while the switch is off.
_NULL_SPAN = nullcontext()


def span(name: str, clock=None, **fields):
    """Scope one named event: timeline record, profile row, counter, latency.

    ``clock`` (a :class:`~repro.utils.timer.VirtualClock`) opts into virtual
    timestamps: ``v_start`` is the clock at entry and ``v_dur`` whatever the
    block advanced it by (0.0 for work that is free in simulated time).
    """
    sinks = _active
    if sinks is None:
        return _NULL_SPAN
    if sinks[2] is not None and _thread.muted:
        sinks = (sinks[0], sinks[1], None)
    return _Span(sinks, name, clock, fields)


@contextmanager
def muted() -> Iterator[None]:
    """Keep this thread's scopes out of the profile for the block.

    For a thread running a share of work another thread started and times:
    concurrent shares would add up to more than the wall time they took, and
    their call counts would depend on how many threads there were.
    """
    previous, _thread.muted = _thread.muted, True
    try:
        yield
    finally:
        _thread.muted = previous


def instant(name: str, clock=None, **fields) -> None:
    """Emit a zero-duration event: a timeline record and its counter."""
    sinks = _active
    if sinks is None:
        return
    event = EVENTS[validate_event_name(name)]
    tracer, registry, _ = sinks
    if tracer is not None and event.timeline:
        tracer.record(
            name, "instant", None if clock is None else clock.now, None,
            time.perf_counter(), None, fields,
        )
    if registry is not None and event.counter:
        registry.counter(event.counter).inc()


def count(name: str, n: float = 1.0) -> None:
    """Add ``n`` to counter ``name`` on the enabled registry, or do nothing."""
    sinks = _active
    if sinks is not None and sinks[1] is not None:
        sinks[1].counter(name).inc(n)


def gauge(name: str, value) -> None:
    """Set gauge ``name``; a zero-argument callable is evaluated only while a
    registry is enabled, so a costly reading is free with metrics off."""
    sinks = _active
    if sinks is not None and sinks[1] is not None:
        sinks[1].gauge(name).set(value() if callable(value) else value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` on the enabled registry."""
    sinks = _active
    if sinks is not None and sinks[1] is not None:
        sinks[1].histogram(name).observe(value)


def observe_many(name: str, values) -> None:
    """Record every value of an iterable into histogram ``name``.

    The iteration only happens while a registry is enabled, so hot paths can
    pass per-worker arrays without paying for them with metrics off.
    """
    sinks = _active
    if sinks is not None and sinks[1] is not None:
        histogram = sinks[1].histogram(name)
        for value in values:
            histogram.observe(value)


# -- capture in a helper, replay on the parent -------------------------------

class _Metric:
    """A registry metric in a recorder: every update is one log entry."""

    __slots__ = ("_log", "_kind", "_name")

    def __init__(self, log: list, kind: str, name: str):
        self._log, self._kind, self._name = log, kind, name

    def _update(self, value: float = 1.0) -> None:
        self._log.append((self._kind, self._name, value))

    inc = set = observe = _update


class _Recorder:
    """Stands in for every occupied slot and logs each consumer call, in order."""

    __slots__ = ("log",)

    def __init__(self, log: list):
        self.log = log

    def record(self, *args) -> None:
        self.log.append(("record", *args))

    def push(self, op: str) -> None:
        self.log.append(("push", op))

    def pop(self, calls: int, seconds: float) -> None:
        self.log.append(("pop", calls, seconds))

    def counter(self, name: str) -> _Metric:
        return _Metric(self.log, "counter", name)

    def gauge(self, name: str) -> _Metric:
        return _Metric(self.log, "gauge", name)

    def histogram(self, name: str) -> _Metric:
        return _Metric(self.log, "histogram", name)


#: The update method of each registry metric kind, for :func:`replay`.
_UPDATES = {"counter": "inc", "gauge": "set", "histogram": "observe"}


@contextmanager
def capture() -> Iterator[list]:
    """Record what this block emits to the occupied sink slots; yields the log.

    Only the slots holding a sink are filled, so exactly the emissions those
    sinks would hear are recorded — a gauge callable is evaluated, and a
    profile row pushed, only where its slot is on.  Sinks enabled inside the
    block take their slot over as usual.  Wall readings are raw ``perf_counter`` values, which are
    ``CLOCK_MONOTONIC`` and so on the parent's timeline as they are.
    """
    global _active
    log: list = []
    recorder = _Recorder(log)
    outer = _active
    _active = None if outer is None else tuple(recorder if sink is not None else None for sink in outer)
    try:
        yield log
    finally:
        _active = outer


def replay(log: list) -> None:
    """Re-issue a :func:`capture` log, in order, to this process's sinks."""
    tracer, registry, profiler = _active or _OFF
    for call, *args in log:
        if call == "record":
            tracer.record(*args)
        elif call == "push":
            profiler.push(*args)
        elif call == "pop":
            profiler.pop(*args)
        else:
            name, value = args
            getattr(getattr(registry, call)(name), _UPDATES[call])(value)
