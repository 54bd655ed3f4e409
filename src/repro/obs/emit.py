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
``src/``: emission sites in simulation paths never touch a clock themselves,
and a run under a jittering fake clock saves the same bytes.

Zero overhead when disabled: with the switch off, :func:`span` returns one
shared null context manager and the other helpers are one global read and a
return, so emission sites stay in per-step hot paths unconditionally.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.obs.events import EVENTS, validate_event_name

__all__ = ["Sink", "count", "gauge", "instant", "observe", "observe_many", "span"]

_OFF = (None, None, None)

#: The process-wide switch: ``None``, or ``(tracer, registry, profiler)``.
_active: "tuple | None" = None


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
    return _NULL_SPAN if sinks is None else _Span(sinks, name, clock, fields)


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
