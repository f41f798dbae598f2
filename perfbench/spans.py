"""In-memory spans around the public entry points of each layer.

:meth:`SpanRecorder.wrap` replaces a function or method with a timing
wrapper.  Spans nest per thread: a span's self time is its duration
minus the time its wrapped children took, and it inherits the op id of
the span that encloses it.  Nothing is written until :meth:`dump`, so
the cost inside the run is two clock reads and a list append.

A missing entry point raises ``AttributeError`` at install time, and
:func:`call_counts` lets the caller fail when an installed wrapper saw
no call, so a refactor that moves a layer cannot silently zero its
numbers.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from time import perf_counter


class SpanRecorder:
    def __init__(self) -> None:
        #: ``(op, name, start, end, self_seconds)`` per finished span.
        self.spans: list[tuple] = []
        self.wrapped: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, *, root=None, op_after=None,
             pid=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``root(args)`` makes the span an op root and returns its id;
        ``op_after(args)`` sets the id once the call has returned (the
        client learns its connection only then).  With ``pid`` given,
        calls from any other process (forked workers inherit the
        wrapper) go straight through.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if pid is not None and os.getpid() != pid:
                return original(*args, **kwargs)
            stack = recorder._stack()
            if root is not None:
                op = root(args)
            else:
                op = stack[-1][0] if stack else None
            frame = [op, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                if op_after is not None:
                    frame[0] = op_after(args)
                recorder.spans.append(
                    (frame[0], name, start, end, end - start - frame[1])
                )

        setattr(owner, attr, wrapper)
        self.wrapped.append(name)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"wrapped": self.wrapped, "spans": self.spans, **extra}, handle
            )


def load(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    data["spans"] = [tuple(span) for span in data["spans"]]
    return data


def call_counts(wrapped, spans, ops) -> dict[str, int]:
    """Calls per wrapped name over the spans of ``ops``; a name that
    saw none maps to 0."""
    counts = dict.fromkeys(wrapped, 0)
    for op, name, *_ in spans:
        if op in ops:
            counts[name] += 1
    return counts


def self_times(spans, ops) -> dict[str, float]:
    """Summed self seconds per span name over the spans of ``ops``."""
    totals: dict[str, float] = {}
    for op, name, _start, _end, own in spans:
        if op in ops:
            totals[name] = totals.get(name, 0.0) + own
    return totals


def durations(spans, name: str) -> dict:
    """``op -> (start, end)`` for the spans called ``name``."""
    return {op: (start, end) for op, n, start, end, _ in spans if n == name}
