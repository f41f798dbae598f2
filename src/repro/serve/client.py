"""Stdlib client for the ``repro serve`` daemon.

``http.client`` only — a persistent keep-alive connection (the daemon
speaks HTTP/1.1; reuse skips the per-request TCP handshake that used
to bound rps), a hard per-request ``timeout``, and *jittered retry* on
the shed statuses (429/503): the daemon's admission control turns
overload into fast structured refusals, and a well-behaved client
turns those refusals into a randomised backoff instead of a
synchronised stampede.  The jitter draws from a seeded
``random.Random`` so tests replay exactly.

A stale cached connection (the server timed it out, or an HTTP/1.0
peer closes after every response) is detected on use and replayed once
on a fresh connection before the error surfaces; ``keepalive=False``
restores the old connection-per-request behaviour.

Distributed tracing: when a tracer is installed
(:func:`repro.obs.trace.tracing`), every request runs inside a
``client.request`` span and carries a W3C ``traceparent`` header, so
the daemon's spans — and, transitively, its shard workers' — join the
client's trace.  ``trace_return=True`` additionally asks the daemon to
ship its span records back in the response, which the client checks
(:func:`repro.parallel.wire.decode_spans`; a malformed batch is a
:class:`ServeError`) and merges under the request span: one process
ends up holding the whole client → daemon → worker tree, ready for
OTLP export.

Terms cross in the :mod:`repro.parallel.wire` format.  A caller that
has the specification loaded (the normal case for tests and batch
drivers) passes real :class:`~repro.algebra.terms.Term` objects and
gets real :class:`~repro.runtime.Outcome` objects back; a caller that
has only text passes ``text=[...]`` strings and the server parses.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Optional, Sequence

from repro.obs import trace as _trace
from repro.parallel import wire
from repro.runtime import EvaluationBudget
from repro.runtime.outcome import Outcome

__all__ = ["ServeClient", "ServeError", "ServeUnavailable"]

#: Statuses worth retrying: the daemon shed the request, not judged it.
_RETRYABLE = frozenset({429, 503})


class ServeError(Exception):
    """A non-2xx the daemon judged final (4xx) — no retry."""

    def __init__(self, status: int, reason: str, detail: str = "") -> None:
        super().__init__(f"{status} {reason}: {detail}")
        self.status = status
        self.reason = reason
        self.detail = detail


class ServeUnavailable(ServeError):
    """Still shed (or unreachable) after every retry."""


class ServeClient:
    """Client for one daemon.

    ``host``/``port`` for TCP, or ``unix_socket=path``.  ``retries``
    counts *re*-attempts after the first; each shed response waits the
    server's ``Retry-After`` (or ``backoff``) scaled by a seeded jitter
    in ``[0.5, 1.5)``.

    Not thread-safe (the cached connection is shared state): give each
    driving thread its own client, as the load tools do.  Use as a
    context manager, or :meth:`close`, to drop the cached connection.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        unix_socket: Optional[str] = None,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.25,
        seed: int = 2026,
        keepalive: bool = True,
        trace_return: bool = False,
        tracer: Optional[_trace.Tracer] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.keepalive = keepalive
        self.trace_return = trace_return
        # An explicit tracer beats the global: in-process tests run
        # client and daemon in one interpreter, where installing the
        # client's tracer globally would hijack the daemon's own
        # instrumentation mid-request.
        self.tracer = tracer
        self._rng = random.Random(seed)
        self._conn: Optional[http.client.HTTPConnection] = None
        # Replies name the same few operations every time: resolve each
        # row once, not once per reply.
        self._table = wire.OperationTable(imports=True)

    # -- transport ------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self.unix_socket is not None:
            return _UnixConnection(self.unix_socket, timeout=self.timeout)
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        conn.connect()
        # Persistent connections + Nagle + the peer's delayed ACK can
        # stall small request writes ~40ms; requests here are one
        # logical write, so flush segments immediately.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _exchange(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        payload: Optional[str],
        headers: dict,
    ) -> http.client.HTTPResponse:
        conn.request(method, path, body=payload, headers=headers)
        return conn.getresponse()

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[dict] = None,
    ) -> tuple[int, dict, Optional[float]]:
        payload = None if body is None else json.dumps(body)
        send_headers = dict(headers or {})
        if payload is not None:
            send_headers.setdefault("Content-Type", "application/json")
        reused = self.keepalive and self._conn is not None
        conn = self._conn if reused else self._connection()
        self._conn = None
        try:
            try:
                response = self._exchange(
                    conn, method, path, payload, send_headers
                )
            except (
                ConnectionError,
                http.client.HTTPException,
                socket.timeout,
                OSError,
            ):
                conn.close()
                if not reused:
                    raise
                # The cached connection went stale between requests
                # (server idle-timeout, HTTP/1.0 peer): replay once on
                # a fresh connection before surfacing anything.
                conn = self._connection()
                response = self._exchange(
                    conn, method, path, payload, send_headers
                )
            raw = response.read()
            retry_after = response.getheader("Retry-After")
            try:
                decoded = json.loads(raw) if raw else {}
            except ValueError:
                decoded = {"raw": raw.decode(errors="replace")}
            if self.keepalive and not response.will_close:
                self._conn = conn
            else:
                conn.close()
            return (
                response.status,
                decoded,
                float(retry_after) if retry_after else None,
            )
        except BaseException:  # fault-boundary: close the socket, re-raise
            conn.close()
            raise

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> dict:
        tracer = self.tracer if self.tracer is not None else _trace.ACTIVE
        if tracer is None:
            return self._request_attempts(method, path, body, {})
        with tracer.span(
            "client.request", path=path, method=method
        ) as span:
            if span is not None:
                context = tracer.context()
            else:
                # Unsampled by the client's policy: still propagate the
                # context so the daemon honours the decision instead of
                # re-rolling its own.
                context = _trace.TraceContext.generate(sampled=False)
            headers = {"traceparent": context.to_traceparent()}
            if span is not None and self.trace_return:
                headers["x-repro-trace-return"] = "1"
            reply = self._request_attempts(method, path, body, headers)
            trace = reply.get("trace")
            if span is not None and isinstance(trace, dict):
                # The daemon shipped its span subtree home: graft it
                # under this request's span — the client now holds the
                # whole client → daemon → worker tree.
                try:
                    spans = wire.decode_spans(trace.get("spans"))
                except wire.WireError as exc:
                    raise ServeError(
                        200, "bad_trace", f"trace {trace.get('trace_id')}: {exc}"
                    ) from None
                tracer.merge_remote_spans(spans, parent=span)
            return reply

    def _request_attempts(
        self,
        method: str,
        path: str,
        body: Optional[dict],
        headers: dict,
    ) -> dict:
        last: Optional[ServeError] = None
        for attempt in range(self.retries + 1):
            try:
                status, decoded, retry_after = self._request_once(
                    method, path, body, headers
                )
            except (ConnectionError, socket.timeout, OSError) as exc:
                # Dropped connection or dead daemon: retryable the same
                # way a shed is — the next attempt may find it healed.
                last = ServeUnavailable(0, "unreachable", str(exc))
                status, retry_after = None, None
            else:
                if status is not None and status < 400:
                    return decoded
                error = decoded.get("error", {})
                reason = error.get("reason", "error")
                detail = error.get("detail", "")
                if status not in _RETRYABLE:
                    raise ServeError(status, reason, detail)
                last = ServeUnavailable(status, reason, detail)
            if attempt < self.retries:
                hint = retry_after if retry_after is not None else self.backoff
                time.sleep(hint * (0.5 + self._rng.random()))
        assert last is not None
        raise last

    # -- the API --------------------------------------------------------
    def normalize(
        self,
        terms: Optional[Sequence] = None,
        *,
        text: Optional[Sequence[str]] = None,
        spec: Optional[str] = None,
        budget: Optional[EvaluationBudget] = None,
    ) -> list[Outcome]:
        """Batch-normalize; one :class:`Outcome` per term, in order."""
        body: dict = {}
        if spec is not None:
            body["spec"] = spec
        if terms is not None:
            body["terms"] = wire.encode_terms(list(terms))
        elif text is not None:
            body["text"] = list(text)
        else:
            raise ValueError("pass terms or text")
        if budget is not None:
            body["budget"] = wire.encode_budget(budget)
        reply = self._request("POST", "/v1/normalize", body)
        return wire.decode_outcomes(reply["outcomes"], self._table)

    def check(self, spec: Optional[str] = None, **params: object) -> dict:
        body: dict = dict(params)
        if spec is not None:
            body["spec"] = spec
        return self._request("POST", "/v1/check", body)

    def prove(
        self,
        goals: Sequence[tuple],
        *,
        spec: Optional[str] = None,
        fuel: Optional[int] = None,
    ) -> list[dict]:
        """Prove ``lhs = rhs`` term pairs; variables are universally
        quantified (the server skolemises)."""
        terms: list = []
        indices: list[list[int]] = []
        for lhs, rhs in goals:
            indices.append([len(terms), len(terms) + 1])
            terms.extend((lhs, rhs))
        body: dict = {"terms": wire.encode_terms(terms), "goals": indices}
        if spec is not None:
            body["spec"] = spec
        if fuel is not None:
            body["fuel"] = fuel
        return self._request("POST", "/v1/prove", body)["results"]

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def readyz(self) -> dict:
        """Readiness, *without* retry: callers poll this to watch
        recovery happen, so a 503 comes back as data."""
        status, decoded, _ = self._request_once("GET", "/readyz")
        decoded["status"] = status
        return decoded

    def metrics(self) -> str:
        status, decoded, _ = self._request_once("GET", "/metrics")
        if "raw" in decoded and len(decoded) == 1:
            return decoded["raw"]
        # A metrics body that happens to parse as JSON (improbable but
        # cheap to honour) comes back re-serialised.
        return json.dumps(decoded)


class _UnixConnection(http.client.HTTPConnection):
    """``HTTPConnection`` over an ``AF_UNIX`` socket path."""

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(self.timeout)
        self.sock.connect(self._path)
