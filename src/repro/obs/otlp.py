"""OTLP/JSON: the one form in which a ``repro`` trace leaves memory.

The tracer buffers OTLP span records already (:mod:`repro.obs.trace`),
so :func:`to_otlp` only wraps them in the OpenTelemetry Protocol's JSON
document — one ``{"resourceSpans": [...]}`` per trace — and stamps the
trace id on each.  Any OTLP-speaking backend (Jaeger, Tempo, an
OpenTelemetry collector) can ingest ``repro`` traces without this repo
growing a dependency, and the analyses in :mod:`repro.obs.profile`
read the same records, live or from a file.

A span whose parent lives in *another* process (the daemon's
``serve.request`` under the client's span) keeps that parent's 16-hex
id and carries a ``repro.parent.remote`` attribute, so
:func:`validate_otlp` knows the dangling link is deliberate.

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
from typing import Optional, Sequence

from repro.obs.profile import attributes
from repro.obs.trace import otlp_attributes

__all__ = [
    "OTLPExporter",
    "TraceFileError",
    "check_otlp_file",
    "read_otlp_file",
    "read_otlp_spans",
    "span_problems",
    "to_otlp",
    "validate_otlp",
]


def to_otlp(
    spans: Sequence[dict],
    trace_id: str,
    resource: Optional[dict] = None,
) -> dict:
    """One OTLP/JSON trace document holding ``spans`` (a tracer's
    records), each stamped with ``trace_id``."""
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": otlp_attributes(
                        {"service.name": "repro", **(resource or {})}
                    )
                },
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.obs.trace", "version": "1"},
                        "spans": [
                            {"traceId": trace_id, **span} for span in spans
                        ],
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


def _is_id(value: object, digits: int) -> bool:
    """A nonzero id of ``digits`` lowercase hex digits."""
    return (
        type(value) is str
        and len(value) == digits
        and not value.strip("0123456789abcdef")
        and value != "0" * digits
    )


def _is_nanos(value: object) -> bool:
    return str(value).isdecimal()


#: The scalar OTLP attribute kinds, and what each holds.
_SCALARS = {
    "stringValue": lambda v: type(v) is str,
    "boolValue": lambda v: type(v) is bool,
    "intValue": lambda v: type(v) in (str, int) and str(v).lstrip("-").isdecimal(),
    "doubleValue": lambda v: type(v) in (int, float),
}


def _attribute_values(record: dict) -> Optional[dict]:
    """``record``'s attributes as ``{key: {kind: value}}``, or None when
    they are not a list of keys with one scalar OTLP value each."""
    attrs = record.get("attributes", [])
    if type(attrs) is not list:
        return None
    values = {}
    for attr in attrs:
        if type(attr) is not dict or type(attr.get("key")) is not str:
            return None
        value = attr.get("value")
        if type(value) is not dict or len(value) != 1:
            return None
        ((kind, item),) = value.items()
        if kind not in _SCALARS or not _SCALARS[kind](item):
            return None
        values[attr["key"]] = value
    return values


def _event_problem(event: object) -> Optional[str]:
    """Why ``event`` is not a span event the analyses can read, or None."""
    if type(event) is not dict or type(event.get("name")) is not str:
        return "an event is not a named object"
    name = event["name"]
    values = _attribute_values(event)
    if values is None:
        return f"event {name!r}: attributes are not scalar OTLP values"
    if not _is_nanos(event.get("timeUnixNano")):
        return f"event {name!r}: a time is not integer nanoseconds"
    if name in ("step", "firings") and "stringValue" not in values.get("rule", {}):
        return f"{name} event without a string rule"
    if name == "firings" and "intValue" not in values.get("count", {}):
        return "firings event without an integer count"
    return None


def span_problems(span: object) -> list[str]:
    """The violations of one span record, without its ``traceId`` (a
    tracer's records carry none until :func:`to_otlp` stamps it)."""
    if type(span) is not dict:
        return ["a span is not an object"]
    name, sid = span.get("name"), span.get("spanId")
    where = f"span {name!r} ({sid})"
    problems = []
    if type(name) is not str:
        problems.append(f"{where}: name is not a string")
    if not _is_id(sid, 16):
        problems.append(f"span {name!r}: missing or zero spanId")
    parent = span.get("parentSpanId")
    if parent is not None and not _is_id(parent, 16):
        problems.append(f"{where}: parentSpanId is not a span id")
    start, end = span.get("startTimeUnixNano"), span.get("endTimeUnixNano")
    if not (_is_nanos(start) and _is_nanos(end)):
        problems.append(f"{where}: a time is not integer nanoseconds")
    elif int(end) < int(start):
        problems.append(f"{where}: ends before it starts")
    if _attribute_values(span) is None:
        problems.append(f"{where}: attributes are not scalar OTLP values")
    events = span.get("events", [])
    if type(events) is not list:
        problems.append(f"{where}: events are not a list")
    else:
        problems.extend(
            f"{where}: {problem}"
            for problem in map(_event_problem, events)
            if problem is not None
        )
    return problems


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
    * attributes are scalar OTLP values; every ``step`` or ``firings``
      event has a string ``rule``, and every ``firings`` event an
      integer ``count``;
    * when the document contains ``serve.request`` spans, every
      ``worker.*`` span must sit under one — worker evaluation that
      doesn't nest under a request means context propagation broke.
    """
    spans = read_otlp_spans(doc)
    if not spans:
        return ["document contains no spans"]
    problems = [problem for span in spans for problem in span_problems(span)]
    if problems:
        return problems
    by_id = {span["spanId"]: span for span in spans}
    trace_ids = {str(span.get("traceId")) for span in spans}
    if len(trace_ids) != 1:
        problems.append(f"mixed trace ids in one document: {sorted(trace_ids)}")
    has_requests = any(span["name"] == "serve.request" for span in spans)
    for span in spans:
        name, sid, parent = span["name"], span["spanId"], span.get("parentSpanId")
        if not _is_id(span.get("traceId"), 32):
            problems.append(f"span {name!r}: missing or zero traceId")
        if not (
            parent is None
            or parent in by_id
            or attributes(span).get("repro.parent.remote")
        ):
            problems.append(f"span {name!r} ({sid}): parent {parent} not in document")
        if has_requests and name.startswith("worker."):
            cursor, seen = span, set()
            while cursor is not None and cursor["name"] != "serve.request":
                seen.add(cursor["spanId"])
                cursor = by_id.get(cursor.get("parentSpanId"))
                if cursor is not None and cursor["spanId"] in seen:
                    cursor = None
            if cursor is None:
                problems.append(
                    f"span {name!r} ({sid}): "
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
        spans: Sequence[dict],
        trace_id: str,
        resource: Optional[dict] = None,
    ) -> Optional[dict]:
        """Ship one trace's span records; returns the document (or None
        when there was nothing to export)."""
        if not spans:
            return None
        doc = to_otlp(spans, trace_id, resource=resource)
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
