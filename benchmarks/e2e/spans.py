"""Span recording and self-time arithmetic for the traced benchmark run.

A span is ``(name, start, end, parent)``: one call through a wrapped layer
boundary.  Spans stay in memory while the workload runs and are written out
once at the end, so recording costs two clock reads and a list append per
call.  A span's *self time* is its duration minus the part of that interval
its direct children cover; summed over every span the self times add up to
the root spans' durations, which is what lets the per-layer numbers be read
as shares of one end-to-end figure.

Standard library only: the traced child imports this next to ``repro``, and
the parent imports it to aggregate the written spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable

__all__ = ["SpanRecorder", "self_times", "aggregate", "write_spans", "read_spans"]


class SpanRecorder:
    """In-memory span buffer with one open-span stack per thread.

    ``spans`` holds ``[name, start, end, parent_index]`` rows (``parent_index``
    is ``-1`` for a root); times are ``time.perf_counter()`` seconds.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        A generator's work happens in its resumes, so for a generator
        function each resume is a span.
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        spans = self.spans
        get_stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            row = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                yield item

        return traced


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the interval its children cover.

    Children are clipped to their parent's interval and overlapping children
    (shards served on threads) are counted once, so a self time is never
    negative and never double-subtracts.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    return [
        (end - start) - _covered(children[index]) if index in children else end - start
        for index, (_name, start, end, _parent) in enumerate(spans)
    ]


def aggregate(
    spans: list[list], contexts: Iterable[str] = ()
) -> dict[str, dict[str, float]]:
    """Roll spans up by name: ``{name: {"self_s": ..., "calls": ...}}``.

    A span named ``a`` with an ancestor named ``c`` from ``contexts`` is also
    counted under ``"a<c"``, which is how a model forward under an evaluation
    is told apart from the same call under training without the wrappers
    knowing about each other.
    """
    contexts = frozenset(contexts)
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    above: list[frozenset] = []  # per span: the context names among its ancestors
    for index, (name, _start, _end, parent) in enumerate(spans):
        if parent < 0:
            ctx = frozenset()
        else:
            p_name = spans[parent][0]
            ctx = above[parent] | {p_name} if p_name in contexts else above[parent]
        above.append(ctx)
        for key in [name, *(f"{name}<{c}" for c in ctx)]:
            out[key]["self_s"] += selfs[index]
            out[key]["calls"] += 1
    return dict(out)


def write_spans(path: "str | Path", spans: Iterable[list], workload: str) -> None:
    """One JSON object per span: name, start, end, parent id, workload."""
    with open(path, "w", encoding="utf-8") as fh:
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": index, "name": name, "start": start, "end": end,
                     "parent": parent, "workload": workload}
                )
                + "\n"
            )


def read_spans(path: "str | Path") -> list[list]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            rows.append([rec["name"], rec["start"], rec["end"], rec["parent"]])
    return rows
