"""The span tracer: OTLP span records in memory, with context propagation.

A :class:`Tracer` records a tree of **spans** (named, timed scopes with
parent links) and the point events inside them — rewrite steps with
their rule and a capped subject summary, codegen rule firings, budget
exhaustions, fault-injection hits.  Installation follows the fault
registry's pattern: a module-global :data:`ACTIVE` that instrumented
code checks with one attribute load, so the disabled path costs a
``None`` test and nothing else.

:attr:`Tracer.spans` holds OTLP/JSON span records, the one trace
schema: 16-hex ``spanId``/``parentSpanId``, typed ``attributes``
sorted by key, whole-microsecond integer-nanosecond times (an open
span ends when it starts), and ``events``.  The worker reply, the
daemon's trace-return body, the exporter and ``repro trace`` carry the
records unchanged; :func:`repro.obs.otlp.to_otlp` only wraps them and
stamps a trace id.  Point events become span events of the innermost
open span: ``step`` (``rule``, ``subject``) per firing on the
interpreted backend, one ``firings`` (``rule``, ``count``) per rule
and evaluation on the codegen backend, whose generated functions count
firings in flat lists.  A point event with no open span is dropped.

Sampling: the ``sample`` knob (0.0–1.0) decides, deterministically by
running credit rather than by random draw, whether each **top-level**
span is recorded; an unrecorded span suppresses its entire subtree,
steps included.  ``sample=0.0`` records nothing; metrics counters are
unaffected by sampling (they are always on).

Distributed tracing: span scopes (the open-span stack, the mute depth,
the sampling credit) are **thread-local**, so one tracer serves every
request thread of the ``repro serve`` daemon with correct parent links.
A span id is a per-tracer random 64-bit base XOR a counter: unique in
the process and collision-free (p ~ 2^-64) against the ids another
process contributes to the same trace.  A :class:`TraceContext`
carries the W3C ``traceparent`` triple (``trace_id``/``span_id``/
``sampled``) across process boundaries — the client sends it, the
daemon honours its sampling decision, and shard workers ship their
span records home for :meth:`Tracer.merge_remote_spans` to graft into
the parent's tree.
"""

from __future__ import annotations

import os
import re
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import count
from time import time_ns
from typing import Optional

from repro.runtime.render import summarize_term

__all__ = [
    "ACTIVE",
    "TraceContext",
    "Tracer",
    "install",
    "maybe_span",
    "new_span_id_hex",
    "new_trace_id",
    "otlp_attributes",
    "rule_id",
    "tracing",
]

_SPAN_KIND_INTERNAL = 1


def rule_id(rule: object) -> str:
    """The canonical trace/metrics label for a rewrite rule: its full
    ``[label] lhs -> rhs`` rendering (unique per distinct rule)."""
    return str(rule)


def _attr_value(value) -> dict:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}  # OTLP/JSON encodes int64 as string
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def otlp_attributes(mapping: dict) -> list[dict]:
    """A mapping as an OTLP attribute list, sorted by key."""
    return [
        {"key": key, "value": _attr_value(value)}
        for key, value in sorted(mapping.items())
    ]


def _now() -> str:
    """The current epoch time as OTLP integer nanoseconds, whole
    microseconds."""
    return str(time_ns() // 1000 * 1000)


# ----------------------------------------------------------------------
# W3C trace context
# ----------------------------------------------------------------------

_TRACEPARENT = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def new_trace_id() -> str:
    """A fresh random 128-bit trace id (32 lowercase hex chars, nonzero)."""
    value = os.urandom(16).hex()
    return value if value != "0" * 32 else new_trace_id()


def new_span_id_hex() -> str:
    """A fresh random 64-bit span id (16 lowercase hex chars, nonzero)."""
    value = os.urandom(8).hex()
    return value if value != "0" * 16 else new_span_id_hex()


@dataclass(frozen=True)
class TraceContext:
    """One hop of W3C trace context: the ``traceparent`` header triple.

    ``trace_id`` identifies the whole distributed trace, ``span_id`` the
    caller's span (the remote parent of whatever the callee starts), and
    ``sampled`` carries the caller's recording decision — a callee must
    not record a trace the caller decided to drop, or sampling would
    re-roll at every hop and traces would arrive as fragments.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_traceparent(self) -> str:
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    @classmethod
    def parse_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` for a missing or
        malformed one (a bad header must not fail the request — the
        trace degrades to a fresh root, the evaluation proceeds)."""
        if not header:
            return None
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            return None
        trace_id, span_id, flags = match.groups()
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id, span_id, sampled=bool(int(flags, 16) & 0x01))

    @classmethod
    def generate(cls, sampled: bool = True) -> "TraceContext":
        return cls(new_trace_id(), new_span_id_hex(), sampled=sampled)


class _Scope(threading.local):
    """Per-thread span scope: the open span records, the mute depth for
    unsampled subtrees, and the deterministic sampling credit."""

    def __init__(self) -> None:
        self.stack: list[dict] = []
        self.mute = 0
        self.credit = 0.0


class Tracer:
    """Records OTLP span records in memory, in ``self.spans``.

    Parameters
    ----------
    sample:
        Fraction of top-level spans to record (see module docstring).
    trace_id:
        The 32-hex W3C trace id this tracer's spans belong to by
        default (requests that arrive with their own ``traceparent``
        override it per subtree).  Auto-generated when omitted.

    Thread-safety: span scopes are thread-local and appending to the
    buffer holds a lock, so one tracer instance serves concurrent
    request threads; a span's events are appended only by the thread
    that has it open.
    """

    def __init__(
        self,
        sample: float = 1.0,
        trace_id: Optional[str] = None,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.sample = sample
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.spans: list[dict] = []
        self._ids = count(1)
        self._scope = _Scope()
        self._emit_lock = threading.Lock()
        # Fast mute: thread-local reads cost ~2.5x a plain attribute,
        # which the per-firing ``step()`` hot path cannot afford when
        # tracing is effectively off.  A ``sample=0.0`` tracer keeps
        # this plain flag set except while a *forced* span (an incoming
        # sampled traceparent) is open, so instrumented code pays one
        # plain attribute test — the PR-5 disabled-overhead contract.
        self.never = sample == 0.0
        self._forced_open = 0
        self._hex_base = int.from_bytes(os.urandom(8), "big") or 1

    # -- plumbing ------------------------------------------------------
    def _emit(self, record: dict) -> None:
        with self._emit_lock:
            self.spans.append(record)

    def _sampled(self, forced: Optional[bool]) -> bool:
        if forced is not None:
            return forced
        scope = self._scope
        scope.credit += self.sample
        if scope.credit >= 1.0:
            scope.credit -= 1.0
            return True
        return False

    def _open_record(self) -> Optional[dict]:
        """The calling thread's innermost open span record, or None
        when its events would be dropped (muted, or no open span)."""
        if self.never:
            return None
        scope = self._scope
        if scope.mute or not scope.stack:
            return None
        return scope.stack[-1]

    @property
    def active_span(self) -> Optional[str]:
        stack = self._scope.stack
        return stack[-1]["spanId"] if stack else None

    def context(self, sampled: bool = True) -> TraceContext:
        """The outgoing :class:`TraceContext` for the calling thread:
        this tracer's trace id and the currently open span (or a fresh
        random span id when none is open)."""
        span = self.active_span
        return TraceContext(
            self.trace_id,
            span if span is not None else new_span_id_hex(),
            sampled=sampled,
        )

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        sampled: Optional[bool] = None,
        remote_parent: Optional[str] = None,
        **attrs,
    ):
        """A named, timed scope; yields its 16-hex span id, or None when
        it is not recorded.  Nested spans carry ``parentSpanId`` links —
        the propagated context that stitches an engine evaluation to the
        façade call to the oracle run that caused it.

        ``sampled`` overrides the credit-based sampling decision for a
        *top-level* span: ``True`` forces recording, ``False`` forces
        muting — the hook an incoming ``traceparent`` flag uses to make
        the caller's sampling decision stick across the process hop.
        ``remote_parent`` is that caller's 16-hex span id: a top-level
        span links to it and is marked ``repro.parent.remote``, so
        :func:`repro.obs.otlp.validate_otlp` knows the link leaves the
        document on purpose.
        """
        scope = self._scope
        if (self.never and sampled is not True) or (
            scope.mute
            or (not scope.stack and not self._sampled(sampled))
        ):
            scope.mute += 1
            try:
                yield None
            finally:
                scope.mute -= 1
            return
        span_id = f"{self._hex_base ^ next(self._ids):016x}"
        forced_on_never = self.sample == 0.0
        if forced_on_never:
            # A forced span on a never-sampling tracer: lift the fast
            # mute while it is open so nested spans and steps record.
            with self._emit_lock:
                self._forced_open += 1
                self.never = False
        start = _now()
        record = {
            "spanId": span_id,
            "name": name,
            "kind": _SPAN_KIND_INTERNAL,
            "startTimeUnixNano": start,
            "endTimeUnixNano": start,
        }
        if scope.stack:
            record["parentSpanId"] = scope.stack[-1]["spanId"]
        elif remote_parent:
            record["parentSpanId"] = remote_parent
            attrs["repro.parent.remote"] = True
        record["attributes"] = otlp_attributes(attrs)
        record["events"] = []
        self._emit(record)
        scope.stack.append(record)
        try:
            yield span_id
        finally:
            scope.stack.pop()
            record["endTimeUnixNano"] = _now()
            if forced_on_never:
                with self._emit_lock:
                    self._forced_open -= 1
                    if self._forced_open == 0:
                        self.never = True

    # -- point events --------------------------------------------------
    def step(self, rule: object, subject=None) -> None:
        """One rewrite step: the fired rule and a capped subject
        summary.  Emitted by the interpreted backend per firing."""
        record = self._open_record()
        if record is None:
            return
        attrs = [{"key": "rule", "value": {"stringValue": rule_id(rule)}}]
        if subject is not None:
            attrs.append(
                {
                    "key": "subject",
                    "value": {"stringValue": summarize_term(subject)},
                }
            )
        record["events"].append(
            {"name": "step", "timeUnixNano": _now(), "attributes": attrs}
        )

    def firings(self, counts: dict) -> None:
        """Aggregated per-rule firing deltas for one codegen
        evaluation (generated functions count in flat lists; per-step
        events would mean a Python call per firing on the hot path):
        one ``firings`` event per rule, its count a scalar attribute."""
        record = self._open_record()
        if record is None or not counts:
            return
        now = _now()
        record["events"].extend(
            {
                "name": "firings",
                "timeUnixNano": now,
                "attributes": otlp_attributes(
                    {"rule": rule_id(rule), "count": n}
                ),
            }
            for rule, n in counts.items()
        )

    def event(self, name: str, **fields) -> None:
        """A generic point event (``budget_exhausted``, ``fault``...)."""
        record = self._open_record()
        if record is None:
            return
        record["events"].append(
            {
                "name": name,
                "timeUnixNano": _now(),
                "attributes": otlp_attributes(fields),
            }
        )

    # -- cross-process stitching ---------------------------------------
    def merge_remote_spans(
        self,
        spans: list[dict],
        parent: Optional[str] = None,
        **root_attrs,
    ) -> None:
        """Graft span records recorded by another process into this
        tracer's tree.

        Ids are process-unique already, so records keep theirs.  A
        record whose parent is not in the batch — the remote *root* —
        is re-parented under ``parent`` and stamped with ``root_attrs``
        (the shard pool passes the worker pid).  Times ship as-is: both
        processes stamp epoch time, so the merged timeline is coherent
        on one machine.
        """
        ids = {record["spanId"] for record in spans}
        for record in spans:
            if record.get("parentSpanId") not in ids:
                record = dict(record)
                record.pop("parentSpanId", None)
                if parent is not None:
                    record["parentSpanId"] = parent
                if root_attrs:
                    attrs = record.get("attributes", [])
                    attrs = {a["key"]: a for a in attrs + otlp_attributes(root_attrs)}
                    record["attributes"] = [attrs[key] for key in sorted(attrs)]
            self._emit(record)

    def pop_subtree(self, root_span: str) -> list[dict]:
        """Remove and return every retained record in ``root_span``'s
        subtree (the span itself and every span under it, with their
        events).  The ``repro serve`` daemon calls this per finished
        request: the subtree becomes the request's exported trace, and
        the in-memory buffer stays bounded by the *in-flight* requests
        instead of growing for the daemon's lifetime."""
        members = {root_span}
        taken: list[dict] = []
        kept: list[dict] = []
        with self._emit_lock:
            for record in self.spans:
                if (
                    record["spanId"] in members
                    or record.get("parentSpanId") in members
                ):
                    members.add(record["spanId"])
                    taken.append(record)
                else:
                    kept.append(record)
            self.spans[:] = kept
        return taken


#: The installed tracer, or None (the fast path).  Instrumented code
#: reads this module attribute directly — ``if trace.ACTIVE is not
#: None`` — so installation is a plain assignment.
ACTIVE: Optional[Tracer] = None


def install(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` (or None to disable); returns the previous
    one so scopes nest correctly."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = tracer
    return previous


@contextmanager
def tracing(tracer: Tracer):
    """Install ``tracer`` for the duration of the block."""
    previous = install(tracer)
    try:
        yield tracer
    finally:
        install(previous)


def maybe_span(name: str, **attrs):
    """A span on the active tracer, or a no-op context when tracing is
    off — the one-liner for instrumenting non-hot call sites."""
    tracer = ACTIVE
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attrs)
