"""OTLP/JSON: the one form in which a ``repro`` trace leaves memory.

Converts the tracer's in-memory event buffer (span_start / span_end
pairs plus the point events inside them) into the OpenTelemetry
Protocol's JSON encoding — one ``{"resourceSpans": [...]}`` document
per trace — so any OTLP-speaking backend (Jaeger, Tempo, an
OpenTelemetry collector) can ingest ``repro`` traces without this repo
growing a dependency.  The analyses in :mod:`repro.obs.profile` read
the same span records, so the export keeps what they need: one
``firings`` span event per rule, with scalar ``rule`` and ``count``.

The tracer keeps span ids as small process-local ints; the OTLP form
needs 16-hex ids that stay unique when several processes contribute to
one distributed trace, so :func:`to_otlp` takes the originating
tracer's ``span_hex`` mapping (a random per-process base) and falls
back to zero-padded ints when none is given.

A span whose parent lives in *another* process (the daemon's
``serve.request`` under the client's span) carries the remote parent's
16-hex id in a ``remote_parent`` field on its ``span_start``; the
exported span keeps that ``parentSpanId`` and is stamped with a
``repro.parent.remote`` attribute so :func:`validate_otlp` knows the
dangling link is deliberate.

:class:`OTLPExporter` is the daemon's sink: one JSON document per line
to a file, or an HTTP POST per trace to an ``--otlp-endpoint`` (the
standard ``/v1/traces`` shape).  Export failures are recorded, never
raised — tracing must not take down serving.

Run ``python -m repro.obs.otlp FILE`` to check a trace file's
span-tree invariants.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from typing import Callable, Iterable, Optional

__all__ = [
    "OTLPExporter",
    "TraceFileError",
    "check_otlp_file",
    "read_otlp_file",
    "read_otlp_spans",
    "to_otlp",
    "validate_otlp",
]

_SPAN_KIND_INTERNAL = 1

#: span_start keys that are structural, not user attributes.
_RESERVED = {"ev", "span", "name", "ts", "parent", "remote_parent", "dur_us"}


def _attr_value(value) -> dict:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}  # OTLP/JSON encodes int64 as string
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _attrs(mapping: dict) -> list[dict]:
    return [
        {"key": key, "value": _attr_value(value)}
        for key, value in sorted(mapping.items())
    ]


def _nanos(ts: float) -> str:
    # The tracer stamps epoch seconds rounded to the microsecond; a
    # double near 1.8e18 ns is exact only to 256 ns, so scaling straight
    # to nanoseconds would smear every stamp off its microsecond.
    return str(round(ts * 1_000_000) * 1000)


def to_otlp(
    events: Iterable[dict],
    trace_id: str,
    span_hex: Optional[Callable[[int], str]] = None,
    resource: Optional[dict] = None,
) -> dict:
    """Build one OTLP/JSON trace document from a tracer's events.

    ``span_hex`` maps process-local int span ids to 16-hex OTLP ids
    (pass the tracer's own mapping; the default is zero-padded ints).
    Point events become span events on their enclosing span (an event
    outside every span has nowhere to go and is dropped); an unclosed
    span is exported with its start time as its end time.
    """
    if span_hex is None:
        span_hex = lambda sid: f"{sid:016x}"  # noqa: E731
    spans: dict[int, dict] = {}
    order: list[int] = []
    for event in events:
        kind = event.get("ev")
        sid = event.get("span")
        if kind == "span_start":
            record = {
                "traceId": trace_id,
                "spanId": span_hex(sid),
                "name": event.get("name", "span"),
                "kind": _SPAN_KIND_INTERNAL,
                "startTimeUnixNano": _nanos(event.get("ts", 0.0)),
                "endTimeUnixNano": _nanos(event.get("ts", 0.0)),
            }
            attrs = {
                key: value
                for key, value in event.items()
                if key not in _RESERVED
            }
            parent = event.get("parent")
            if parent is not None:
                record["parentSpanId"] = span_hex(parent)
            elif event.get("remote_parent"):
                record["parentSpanId"] = str(event["remote_parent"])
                attrs["repro.parent.remote"] = True
            record["attributes"] = _attrs(attrs)
            record["events"] = []
            spans[sid] = record
            order.append(sid)
        elif kind == "span_end":
            record = spans.get(sid)
            if record is not None:
                record["endTimeUnixNano"] = _nanos(event.get("ts", 0.0))
        elif kind is not None and sid in spans:
            if kind == "firings":
                # One span event per rule keeps the per-rule counts in
                # scalar attributes, as OTLP wants them.
                records = [
                    {"rule": rule, "count": n}
                    for rule, n in event["counts"].items()
                ]
            else:
                records = (
                    {
                        key: value
                        for key, value in event.items()
                        if key not in ("ev", "span", "ts")
                    },
                )
            time_nanos = _nanos(event.get("ts", 0.0))
            for fields in records:
                spans[sid]["events"].append(
                    {
                        "name": kind,
                        "timeUnixNano": time_nanos,
                        "attributes": _attrs(fields),
                    }
                )
    resource_attrs = {"service.name": "repro"}
    if resource:
        resource_attrs.update(resource)
    return {
        "resourceSpans": [
            {
                "resource": {"attributes": _attrs(resource_attrs)},
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.obs.trace", "version": "1"},
                        "spans": [spans[sid] for sid in order],
                    }
                ],
            }
        ]
    }


def read_otlp_spans(doc: dict) -> list[dict]:
    """Flatten an OTLP/JSON document to its span records."""
    spans: list[dict] = []
    for resource_spans in doc.get("resourceSpans", []):
        for scope_spans in resource_spans.get("scopeSpans", []):
            spans.extend(scope_spans.get("spans", []))
    return spans


def _has_attr(span: dict, key: str) -> bool:
    return any(attr.get("key") == key for attr in span.get("attributes", []))


def validate_otlp(doc: dict) -> list[str]:
    """Check the span-tree invariants CI enforces; returns the list of
    violations (empty means valid).

    * every span has a nonzero ``traceId``/``spanId``, and all spans in
      one document share the trace id;
    * every ``parentSpanId`` resolves to a span in the document, unless
      the span is explicitly marked ``repro.parent.remote`` (its parent
      lives in another process's export);
    * span and span-event times are integer nanoseconds, and spans
      end no earlier than they start;
    * when the document contains ``serve.request`` spans, every
      ``worker.*`` span must sit under one — worker evaluation that
      doesn't nest under a request means context propagation broke.
    """
    problems: list[str] = []
    spans = read_otlp_spans(doc)
    if not spans:
        return ["document contains no spans"]
    by_id = {span.get("spanId"): span for span in spans}
    trace_ids = {span.get("traceId") for span in spans}
    if len(trace_ids) != 1:
        problems.append(f"mixed trace ids in one document: {sorted(trace_ids)}")
    for span in spans:
        name = span.get("name", "?")
        sid = span.get("spanId", "")
        if not sid or set(sid) == {"0"}:
            problems.append(f"span {name!r}: missing or zero spanId")
        if not span.get("traceId") or set(span.get("traceId", "")) == {"0"}:
            problems.append(f"span {name!r}: missing or zero traceId")
        parent = span.get("parentSpanId")
        if (
            parent is not None
            and parent not in by_id
            and not _has_attr(span, "repro.parent.remote")
        ):
            problems.append(
                f"span {name!r} ({sid}): parent {parent} not in document"
            )
        times = [span.get("startTimeUnixNano"), span.get("endTimeUnixNano")]
        times += [e.get("timeUnixNano") for e in span.get("events", [])]
        if not all(str(time).isdecimal() for time in times):
            problems.append(
                f"span {name!r} ({sid}): a time is not integer nanoseconds"
            )
        elif int(times[1]) < int(times[0]):
            problems.append(f"span {name!r} ({sid}): ends before it starts")
    has_requests = any(
        span.get("name") == "serve.request" for span in spans
    )
    if has_requests:
        for span in spans:
            if not str(span.get("name", "")).startswith("worker."):
                continue
            seen = set()
            cursor = span
            under_request = False
            while cursor is not None and cursor.get("spanId") not in seen:
                seen.add(cursor.get("spanId"))
                if cursor.get("name") == "serve.request":
                    under_request = True
                    break
                cursor = by_id.get(cursor.get("parentSpanId"))
            if not under_request:
                problems.append(
                    f"span {span.get('name')!r} ({span.get('spanId')}): "
                    "worker span not nested under a serve.request span"
                )
    return problems


class OTLPExporter:
    """Ships OTLP/JSON trace documents to a file sink or HTTP endpoint.

    ``path`` appends one OTLP/JSON document per line, one per trace
    (the shape the CI artifact and :func:`read_otlp_file` read);
    ``endpoint`` POSTs each document to an OTLP/HTTP collector's
    ``/v1/traces``.  Both may be set.  Failures increment ``errors``
    and are otherwise swallowed: the exporter sits on the daemon's
    request path and must never fail a request.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        endpoint: Optional[str] = None,
        timeout: float = 2.0,
    ) -> None:
        if path is None and endpoint is None:
            raise ValueError("OTLPExporter needs a path or an endpoint")
        self.path = path
        self.endpoint = endpoint
        self.timeout = timeout
        self.exported = 0
        self.errors = 0
        self._lock = threading.Lock()

    def export(
        self,
        events: Iterable[dict],
        trace_id: str,
        span_hex: Optional[Callable[[int], str]] = None,
        resource: Optional[dict] = None,
    ) -> Optional[dict]:
        """Convert and ship one trace; returns the document (or None
        when there was nothing to export)."""
        doc = to_otlp(events, trace_id, span_hex=span_hex, resource=resource)
        if not read_otlp_spans(doc):
            return None
        payload = json.dumps(doc, separators=(",", ":"))
        with self._lock:
            try:
                if self.path is not None:
                    with open(self.path, "a", encoding="utf-8") as handle:
                        handle.write(payload + "\n")
                if self.endpoint is not None:
                    request = urllib.request.Request(
                        self.endpoint,
                        data=payload.encode("utf-8"),
                        headers={"Content-Type": "application/json"},
                        method="POST",
                    )
                    with urllib.request.urlopen(
                        request, timeout=self.timeout
                    ):
                        pass
                self.exported += 1
            except (OSError, urllib.error.URLError, ValueError):
                # fault-boundary: a full disk or unreachable collector
                # must cost a dropped trace, not a failed request.
                self.errors += 1
        return doc


class TraceFileError(ValueError):
    """A trace file that cannot be read as OTLP/JSON documents."""


def read_otlp_file(path: str) -> list[dict]:
    """Parse OTLP/JSON trace documents: one document (``repro trace
    --out``) or one per line (the exporter's append format).

    Raises :class:`TraceFileError` for a file that cannot be read, a
    line that is not JSON, or a document that is not nested
    ``resourceSpans``/``scopeSpans``/``spans`` objects.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFileError(f"{path}: cannot read ({exc})") from None
    try:
        docs = [json.loads(text)]
    except ValueError:
        docs = []
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                docs.append(json.loads(line))
            except ValueError as exc:
                raise TraceFileError(
                    f"{path}: line {number} is not JSON ({exc})"
                ) from None
    for index, doc in enumerate(docs):
        try:
            spans = read_otlp_spans(doc)
        except (AttributeError, TypeError):  # not nested objects and lists
            spans = None
        if spans is None or not all(isinstance(s, dict) for s in spans):
            raise TraceFileError(
                f"{path}: trace[{index}] is not an OTLP document "
                "(expected resourceSpans > scopeSpans > spans objects)"
            )
    return docs


def check_otlp_file(path: str) -> tuple[list[dict], list[str]]:
    """Read and validate a trace file: its documents, and every
    violation found, each prefixed with ``path`` (a file that does not
    parse yields no documents and one violation; a file with no
    documents is a violation)."""
    try:
        docs = read_otlp_file(path)
    except TraceFileError as exc:
        return [], [str(exc)]
    problems = [
        f"{path}: trace[{index}]: {problem}"
        for index, doc in enumerate(docs)
        for problem in validate_otlp(doc)
    ]
    if not docs:
        problems.append(f"{path}: no trace documents")
    return docs, problems


def main(argv=None) -> int:
    """Validate a trace file: ``python -m repro.obs.otlp FILE``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Validate an OTLP/JSON trace file's span-tree "
        "invariants; exits 1 on any violation."
    )
    parser.add_argument(
        "path", help="trace file: one OTLP/JSON document, or one per line"
    )
    args = parser.parse_args(argv)
    docs, problems = check_otlp_file(args.path)
    for problem in problems:
        print(problem)  # allow-print: CLI output
    total_spans = sum(len(read_otlp_spans(doc)) for doc in docs)
    print(  # allow-print: CLI output
        f"{len(docs)} trace(s), {total_spans} span(s), "
        f"{len(problems)} violation(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
