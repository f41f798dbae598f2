"""The ``repro serve`` daemon: warm engines behind a tiny HTTP surface.

Zero dependencies: ``http.server`` + ``socketserver`` from the stdlib,
JSON bodies, terms crossing in the :mod:`repro.parallel.wire` table
format (the same one chunks ride to shard workers).  The daemon loads
specifications once at boot — parse, signature, rule set, engine — and
every request after that pays only evaluation, which is the entire
point of serving: Guttag's specs are cheap to *run* and comparatively
expensive to *load*.

Surface:

``POST /v1/normalize``
    ``{"spec": name, "terms": <wire terms>, "budget": <wire budget>}``
    (or ``"text": [...]`` to let the server parse) → one wire-encoded
    :class:`~repro.runtime.Outcome` per term, in order.  Divergence,
    budget exhaustion and injected faults resolve *per item*; the
    process and its other requests keep serving.
``POST /v1/check``
    sufficient-completeness + consistency analysis of a loaded spec;
    ``sample_terms`` bounds the observations, and the reply says how
    many ground instances were checked and to which size they are
    complete.  ``seed`` and ``max_depth`` are refused (400).
``POST /v1/prove``
    closed equations over a loaded spec's axioms, via the equational
    prover (terms skolemise first, so variables mean "for all"; goals of
    one request share a variable's constant, and no two requests share
    anything, as each gets its own prover).
``GET /healthz`` / ``GET /readyz``
    liveness (the process answers) vs readiness (engines warm, shard
    pool alive — a broken pool heals through the supervisor and flips
    readiness back).  ``/readyz`` actively probes worker liveness, so
    recovery does not wait for client traffic.
``GET /metrics``
    the process-wide metrics snapshot in Prometheus text exposition
    format (admission, shedding, crashes, respawns, engine counters).

Threading: ``ThreadingHTTPServer`` gives each connection a thread;
engines are *not* thread-safe, so serial evaluation and proving hold a
per-session lock, while supervised pools take batches concurrently
(worker processes do the evaluating).  Admission
(:mod:`repro.serve.admission`) bounds how many requests evaluate at
once and sheds the rest with structured 429/503 — the daemon's answer
to overload is a fast "not now", never an unbounded queue.

The two ``serve.*`` fault sites (``serve.handle``, ``serve.respond``)
let the chaos suite inject slow handlers, handler crashes and dropped
connections; each is contained to its own request.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Sequence

from repro.analysis import lint_specification
from repro.analysis.classify import classify
from repro.obs import metrics as _metrics
from repro.obs import render_prometheus
from repro.obs import trace as _trace
from repro.obs.otlp import OTLPExporter
from repro.parallel import wire
from repro.parallel.pool import ShardPool
from repro.rewriting import RewriteEngine
from repro.runtime import faults as _faults
from repro.serve.admission import (
    AdmissionController,
    AdmissionDenied,
    ServeLimits,
    clamp_budget,
)
from repro.serve.supervisor import PoolSupervisor
from repro.spec.parser import parse_term
from repro.spec.specification import Specification
from repro.verify.prover import EquationalProver

__all__ = ["ReproServer", "ServeRequestError", "SpecSession"]


class ServeRequestError(Exception):
    """A request the server rejects deliberately (4xx): unknown spec,
    malformed wire payload, oversized batch."""

    def __init__(self, status: int, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.status = status
        self.reason = reason
        self.detail = detail


class SpecSession:
    """One loaded specification: warm engine, lock, optional pool.

    The engine answers serial requests under ``lock`` (engines are not
    thread-safe); when the server runs with workers, a
    :class:`PoolSupervisor` owns a shard pool for batch evaluation and
    the lock is not needed on that path — worker processes are the
    isolation.
    """

    def __init__(
        self,
        spec: Specification,
        *,
        backend: str = "codegen",
        workers: Optional[int] = None,
        supervisor_options: Optional[dict] = None,
        registry: Optional[_metrics.MetricsRegistry] = None,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self.engine = RewriteEngine.for_specification(spec, backend=backend)
        self.key = self.engine.rules.fingerprint()
        # What client terms decode against: the declared sorts and
        # operations (as the rules carry them), nothing else.
        signature = spec.full_signature()
        self.table = wire.OperationTable(
            [*wire.rule_operations(self.engine.rules), *signature.operations],
            signature.sorts,
        )
        self.lock = threading.Lock()
        self.classification = classify(spec)
        self.supervisor: Optional[PoolSupervisor] = None
        if workers is not None and workers > 1:
            rules, engine = self.engine.rules, self.engine

            def factory() -> ShardPool:
                return ShardPool(
                    rules, workers, backend=engine.backend, budget=engine.budget
                )

            self.supervisor = PoolSupervisor(
                factory, registry=registry, **(supervisor_options or {})
            )

    def normalize_outcomes(self, terms: list, budget) -> list:
        if self.supervisor is not None:
            return self.supervisor.normalize_many_outcomes(terms, budget)
        with self.lock:
            return self.engine.normalize_many_outcomes(terms, budget)

    def prover(self, fuel: int) -> EquationalProver:
        """A new prover, so one request's skolem constants and memos
        never outlive it."""
        cls = self.classification
        return EquationalProver(
            self.engine.rules,
            constructors={cls.type_of_interest: tuple(cls.constructors)},
            fuel=fuel,
        )

    def ready(self, probe: bool = True) -> bool:
        """Serial sessions are ready once built; supervised ones when
        the pool is healthy.  ``probe`` lets ``/readyz`` drive healing
        instead of waiting for the next batch to trip over the wreck."""
        if self.supervisor is None:
            return True
        if probe:
            return self.supervisor.heal()
        return self.supervisor.healthy

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.close()


class ReproServer:
    """The daemon: sessions + admission + the HTTP listener.

    Listens on TCP (``host``/``port``; port 0 picks an ephemeral one)
    or a unix socket (``unix_socket`` path).  ``start()`` serves on a
    background thread and returns; use as a context manager or call
    ``close()`` to shut down, which also tears the sessions' worker
    pools down.
    """

    def __init__(
        self,
        specs: Sequence[Specification],
        *,
        backend: str = "codegen",
        workers: Optional[int] = None,
        limits: Optional[ServeLimits] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: Optional[str] = None,
        registry: Optional[_metrics.MetricsRegistry] = None,
        supervisor_options: Optional[dict] = None,
        trace_sample: Optional[float] = None,
        otlp_path: Optional[str] = None,
        otlp_endpoint: Optional[str] = None,
        access_log: Optional[str] = None,
    ) -> None:
        if not specs:
            raise ValueError("repro serve needs at least one specification")
        self.limits = limits if limits is not None else ServeLimits()
        registry = registry if registry is not None else _metrics.GLOBAL
        # Hold the registry: the process-wide registry set is weak, and
        # /metrics must keep seeing serve.* after the caller's reference
        # goes away.
        self.registry = registry
        self.sessions: dict[str, SpecSession] = {}
        for spec in specs:
            self.sessions[spec.name] = SpecSession(
                spec,
                backend=backend,
                workers=workers,
                supervisor_options=supervisor_options,
                registry=registry,
            )
        self.default_session = next(iter(self.sessions.values()))
        self.admission = AdmissionController(self.limits, registry)
        self.c_requests = registry.family(
            "serve.requests", "requests handled, by endpoint"
        )
        self.c_errors = registry.counter(
            "serve.errors", "requests that hit the internal fault boundary"
        )
        self.c_items = registry.counter(
            "serve.items", "terms evaluated via the serving surface"
        )
        self.h_latency = registry.histogram(
            "serve.request_seconds",
            bounds=_metrics.EVAL_SECONDS_BUCKETS,
            help="request handling latency",
        )
        self._host, self._port = host, port
        self._unix_socket = unix_socket
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = time.monotonic()
        # -- distributed tracing -------------------------------------
        # The daemon traces requests when a trace surface is asked
        # for (an OTLP sink or an explicit sample rate).  Without one,
        # ``self.tracer`` stays None and the request path pays one
        # attribute test — the ≤1% disabled-overhead budget.
        self.exporter: Optional[OTLPExporter] = (
            OTLPExporter(path=otlp_path, endpoint=otlp_endpoint)
            if (otlp_path or otlp_endpoint)
            else None
        )
        self._previous_tracer: Optional[_trace.Tracer] = None
        self.tracer: Optional[_trace.Tracer] = (
            _trace.Tracer(sample=1.0 if trace_sample is None else trace_sample)
            if trace_sample is not None or self.exporter is not None
            else None
        )
        self._access_log_path = access_log
        self._access_log_handle = None
        self._access_log_lock = threading.Lock()

    # -- per-request telemetry sinks ------------------------------------
    def _write_access_log(self, record: dict) -> None:
        handle = self._access_log_handle
        if handle is None:
            return
        line = json.dumps(record, default=str)
        with self._access_log_lock:
            try:
                handle.write(line + "\n")
                handle.flush()
            except (OSError, ValueError):
                # fault-boundary: a full disk or closed handle must
                # cost a log line, not a request.
                pass

    def _export_trace(self, spans: list, trace_id: str) -> None:
        if self.exporter is not None:
            self.exporter.export(
                spans, trace_id, resource={"service.name": "repro-serve"}
            )

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ReproServer":
        if self._unix_socket is not None:
            if os.path.exists(self._unix_socket):
                os.unlink(self._unix_socket)
            self._httpd = _UnixHTTPServer(self._unix_socket, _Handler)
        else:
            self._httpd = ThreadingHTTPServer(
                (self._host, self._port), _Handler
            )
        self._httpd.daemon_threads = True
        self._httpd.app = self  # type: ignore[attr-defined]
        if self.tracer is not None:
            # Engines and shard pools read the module-global tracer;
            # the daemon's request spans must enclose their spans, so
            # the server's tracer becomes the process's for its
            # lifetime (restored on close).
            self._previous_tracer = _trace.install(self.tracer)
        if self._access_log_path is not None:
            self._access_log_handle = open(
                self._access_log_path, "a", encoding="utf-8"
            )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; for unix sockets ``(path, 0)``."""
        assert self._httpd is not None, "server not started"
        if self._unix_socket is not None:
            return (self._unix_socket, 0)
        return self._httpd.server_address[:2]

    def close(self) -> None:
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for session in self.sessions.values():
            session.close()
        if self.tracer is not None and _trace.ACTIVE is self.tracer:
            _trace.install(self._previous_tracer)
        handle, self._access_log_handle = self._access_log_handle, None
        if handle is not None:
            handle.close()
        if self._unix_socket is not None and os.path.exists(
            self._unix_socket
        ):
            os.unlink(self._unix_socket)

    def __enter__(self) -> "ReproServer":
        return self.start() if self._httpd is None else self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request helpers ------------------------------------------------
    def _session(self, request: dict) -> SpecSession:
        name = request.get("spec")
        if name is None:
            return self.default_session
        if not isinstance(name, str):
            raise ServeRequestError(
                400, "bad_field", f"'spec' must be a string, got {name!r}"
            )
        session = self.sessions.get(name)
        if session is None:
            raise ServeRequestError(
                404,
                "unknown_spec",
                f"no loaded specification named {name!r}; "
                f"loaded: {sorted(self.sessions)}",
            )
        return session

    def _terms(self, request: dict, session: SpecSession) -> list:
        payload = request.get("terms")
        if payload is not None:
            try:
                terms = wire.decode_terms(payload, session.table)
            except wire.WireError as exc:
                raise ServeRequestError(400, "bad_wire", str(exc))
        else:
            texts = request.get("text")
            if not isinstance(texts, list):
                raise ServeRequestError(
                    400, "missing_terms", "send 'terms' (wire) or 'text'"
                )
            try:
                terms = [parse_term(t, session.spec) for t in texts]
            except Exception as exc:  # fault-boundary: unparsable text -> 400
                raise ServeRequestError(400, "bad_term", str(exc))
        if len(terms) > self.limits.max_batch:
            raise ServeRequestError(
                413,
                "batch_too_large",
                f"{len(terms)} terms > max_batch={self.limits.max_batch}",
            )
        return terms

    @staticmethod
    def _int_field(request: dict, name: str, default: int) -> int:
        """An optional integer field of the request body: a JSON
        integer (not a bool, float or string), and not negative."""
        value = request.get(name, default)
        if type(value) is not int or value < 0:
            raise ServeRequestError(
                400,
                "bad_field",
                f"{name!r} must be an integer >= 0, got {value!r}",
            )
        return value

    def _budget(self, request: dict):
        try:
            budget = wire.decode_budget(request.get("budget"))
        except wire.WireError as exc:
            raise ServeRequestError(400, "bad_budget", str(exc))
        return clamp_budget(budget, self.limits)

    # -- endpoint bodies ------------------------------------------------
    def _h_normalize(self, request: dict) -> dict:
        session = self._session(request)
        terms = self._terms(request, session)
        budget = self._budget(request)
        with _trace.maybe_span(
            "serve.evaluate", spec=session.name, items=len(terms)
        ):
            outcomes = session.normalize_outcomes(terms, budget)
        self.c_items.inc(len(terms))
        return {
            "spec": session.name,
            "outcomes": wire.encode_outcomes(outcomes),
        }

    def _h_check(self, request: dict) -> dict:
        session = self._session(request)
        for name in ("seed", "max_depth"):
            # Checks enumerate the smallest instances: nothing to seed,
            # and the count alone bounds the cost.
            if name in request:
                raise ServeRequestError(
                    400, "bad_field", f"{name!r} is not a field of /v1/check"
                )
        sample_terms = min(self._int_field(request, "sample_terms", 60), 500)
        with session.lock:
            report = lint_specification(
                session.spec, with_coverage=False, sample_terms=sample_terms
            )
        completeness, consistency = report.completeness, report.consistency
        return {
            "spec": session.name,
            "sufficiently_complete": completeness.sufficiently_complete,
            "consistent": consistency.consistent,
            "missing": [str(m) for m in completeness.missing],
            "overlapping": [str(o) for o in completeness.overlapping],
            "non_decreasing": [str(n) for n in completeness.non_decreasing],
            "stuck": [str(s) for s in completeness.stuck],
            "sampled_observations": completeness.sampled_observations,
            "sampled_complete_to": completeness.sampled_complete_to,
            "sampled_undecided": completeness.sampled_undecided,
            "ground_instances_checked": consistency.ground_instances_checked,
            "ground_complete_to": consistency.ground_complete_to,
            "ground_undecided": consistency.ground_undecided,
        }

    def _h_prove(self, request: dict) -> dict:
        session = self._session(request)
        terms = self._terms(request, session)
        goals = request.get("goals")
        if not isinstance(goals, list) or not all(
            isinstance(g, list) and len(g) == 2 for g in goals
        ):
            raise ServeRequestError(
                400, "bad_goals", "'goals' must be a list of [lhs, rhs] "
                "index pairs into 'terms'/'text'"
            )
        for goal in goals:
            # Indices count from 0: a negative one would silently pick
            # a term from the end, and a bool is not an index.
            if not all(
                type(index) is int and 0 <= index < len(terms)
                for index in goal
            ):
                raise ServeRequestError(
                    400,
                    "bad_goals",
                    f"goal {goal!r}: indices must be integers in "
                    f"[0, {len(terms)})",
                )
        fuel = min(
            self._int_field(request, "fuel", self.limits.max_fuel),
            self.limits.max_fuel,
        )
        results = []
        with session.lock:
            prover = session.prover(fuel)
            for li, ri in goals:
                lhs, rhs, _ = prover.skolemize(terms[li], terms[ri])
                result = prover.prove(lhs, rhs)
                results.append(
                    {
                        "proved": result.proved,
                        "lhs": str(result.lhs),
                        "rhs": str(result.rhs),
                        "residual": (
                            [str(result.residual[0]), str(result.residual[1])]
                            if result.residual is not None
                            else None
                        ),
                    }
                )
        return {"spec": session.name, "results": results}

    # -- health surface -------------------------------------------------
    def _h_healthz(self) -> tuple[int, dict]:
        return 200, {
            "ok": True,
            "uptime_seconds": time.monotonic() - self._started,
        }

    def _h_readyz(self) -> tuple[int, dict]:
        specs = {}
        ready = True
        for name, session in self.sessions.items():
            session_ready = session.ready(probe=True)
            entry = {"ready": session_ready}
            if session.supervisor is not None:
                entry["circuit"] = session.supervisor.state
                entry["worker_pids"] = session.supervisor.worker_pids()
            entry["suggested_fuel_budget"] = self._suggest_fuel(session)
            specs[name] = entry
            ready = ready and session_ready
        return (200 if ready else 503), {"ready": ready, "specs": specs}

    @staticmethod
    def _suggest_fuel(session: SpecSession) -> Optional[int]:
        """A recommended per-spec fuel budget from the fuel actually
        spent serving this session — the parent engine's histogram
        merged with whatever the shard workers shipped home — so
        operators watching ``/readyz`` see circuit state *and* what to
        set ``max_fuel`` to, from the same probe."""
        snapshots = [
            {
                "histograms": {
                    "engine.fuel_per_eval": (
                        session.engine.stats.fuel_hist.snapshot()
                    )
                }
            }
        ]
        if session.supervisor is not None:
            snapshots.append(session.supervisor.pool_snapshot())
        merged = _metrics.merge_snapshots(snapshots)
        histogram = merged["histograms"].get("engine.fuel_per_eval")
        if histogram is None:
            return None
        return _metrics.suggest_fuel_budget(histogram)

    def _h_metrics(self) -> str:
        return render_prometheus(_metrics.aggregate_snapshot())


# ----------------------------------------------------------------------
# The HTTP layer
# ----------------------------------------------------------------------

_POST_ROUTES = {
    "/v1/normalize": "_h_normalize",
    "/v1/check": "_h_check",
    "/v1/prove": "_h_prove",
}


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    # HTTP/1.1: connections persist across requests (every response
    # carries an explicit Content-Length), so a client reusing its
    # connection skips the TCP handshake that used to bound rps.
    protocol_version = "HTTP/1.1"
    # Persistent connections make Nagle + delayed-ACK stalls real:
    # without TCP_NODELAY a pipelined response can sit a full delayed
    # ACK (~40ms) behind the kernel, costing keep-alive clients more
    # than the handshake they saved.  Set per-connection in setup() —
    # AF_UNIX sockets refuse the option.
    disable_nagle_algorithm = False

    def setup(self) -> None:
        self.disable_nagle_algorithm = (
            self.request.family != socket.AF_UNIX
        )
        super().setup()
    # Bound the time a connection may dribble its request in; a stuck
    # peer costs one thread for this long, not forever.
    timeout = 30.0

    @property
    def app(self) -> ReproServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr access log; telemetry goes
        through the tracer, metrics and the structured access log."""

    def _send_json(
        self,
        status: int,
        payload: dict,
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode()
        injector = _faults.ACTIVE
        if injector is not None:
            injector.visit("serve.respond")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        traceparent = getattr(self, "_traceparent", None)
        if traceparent is not None:
            self.send_header("traceparent", traceparent)
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        self.end_headers()
        self.wfile.write(body)

    def _error(
        self,
        status: int,
        reason: str,
        detail: str = "",
        retry_after: Optional[float] = None,
    ) -> None:
        payload = {
            "error": {"status": status, "reason": reason, "detail": detail}
        }
        if retry_after is not None:
            payload["error"]["retry_after"] = retry_after
        self._send_json(status, payload, retry_after=retry_after)

    # -- GET: health + metrics -----------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        app = self.app
        # Reset per request: with keep-alive one handler instance
        # serves many requests, and a stale traceparent must not leak.
        self._traceparent = None
        started = time.monotonic()
        status = 500
        try:
            if self.path == "/healthz":
                status, payload = app._h_healthz()
                self._send_json(status, payload)
            elif self.path == "/readyz":
                status, payload = app._h_readyz()
                self._send_json(status, payload)
            elif self.path == "/metrics":
                body = app._h_metrics().encode("utf-8")
                status = 200
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                status = 404
                self._error(404, "not_found", self.path)
            app.c_requests.inc(self.path)
        except (BrokenPipeError, ConnectionError, OSError):
            # fault-boundary: the peer (or an injected serve.respond
            # fault) dropped the connection; this request is done,
            # the daemon is not.
            self.close_connection = True
        finally:
            app._write_access_log(
                {
                    "ts": round(time.time(), 6),
                    "method": "GET",
                    "path": self.path,
                    "status": status,
                    "total_s": round(time.monotonic() - started, 6),
                }
            )

    # -- POST: the evaluation surface ----------------------------------
    def do_POST(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        app = self.app
        tracer = app.tracer
        self._traceparent = None  # see do_GET: keep-alive reuse
        started = time.monotonic()
        incoming = _trace.TraceContext.parse_traceparent(
            self.headers.get("traceparent")
        )
        trace_id = (
            incoming.trace_id
            if incoming is not None
            else (tracer.trace_id if tracer is not None else None)
        )
        req_span: Optional[str] = None
        outcome = {
            "status": 500,
            "reason": "internal",
            "payload": None,
            "retry_after": None,
            "queue_s": None,
            "eval_s": None,
        }
        if tracer is not None:
            # The caller's span becomes the remote parent: the span
            # keeps the dangling 16-hex link so the client's own trace
            # can claim this subtree.
            span_scope = tracer.span(
                "serve.request",
                sampled=incoming.sampled if incoming is not None else None,
                remote_parent=incoming.span_id if incoming is not None else None,
                path=self.path,
                method="POST",
            )
        else:
            span_scope = nullcontext()
        try:
            with span_scope as req_span:
                self._handle_post(outcome, req_span is not None)
            self._finish_post(outcome, tracer, incoming, trace_id, req_span)
        except (BrokenPipeError, ConnectionError, OSError):
            # fault-boundary: dropped connection (peer or injected
            # serve.respond fault) — contained to this request; the
            # recorded subtree still must not pile up in the tracer.
            self.close_connection = True
            if tracer is not None and req_span is not None:
                tracer.pop_subtree(req_span)
        finally:
            elapsed = time.monotonic() - started
            app.c_requests.inc(self.path)
            exemplar = None
            if trace_id is not None and req_span is not None:
                exemplar = {"trace_id": trace_id, "span_id": req_span}
            app.h_latency.observe(elapsed, exemplar=exemplar)
            record = {
                "ts": round(time.time(), 6),
                "method": "POST",
                "path": self.path,
                "status": outcome["status"],
                "reason": outcome["reason"],
                "queue_s": outcome["queue_s"],
                "eval_s": outcome["eval_s"],
                "total_s": round(elapsed, 6),
            }
            if trace_id is not None:
                record["trace_id"] = trace_id
                record["sampled"] = req_span is not None
            app._write_access_log(record)

    def _handle_post(self, outcome: dict, traced: bool) -> None:
        """Parse, admit and dispatch one POST; fills ``outcome`` with
        status/reason/payload/timings but sends nothing — the caller
        responds *after* the request span has closed, so a returned
        trace subtree is complete."""
        app = self.app
        tracer = app.tracer if traced else None

        def fail(status, reason, detail, retry_after=None):
            outcome["status"], outcome["reason"] = status, reason
            outcome["retry_after"] = retry_after
            error = {"status": status, "reason": reason, "detail": detail}
            if retry_after is not None:
                error["retry_after"] = retry_after
            outcome["payload"] = {"error": error}

        # Every early return below leaves the body unread, and unread
        # bytes would be parsed as the next request on a reused
        # connection, so each one closes it.
        method = _POST_ROUTES.get(self.path)
        if method is None:
            self.close_connection = True
            return fail(404, "not_found", self.path)
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        if not (raw_length.isascii() and raw_length.isdigit()):
            # Checked before any read: int() would raise on "abc" and
            # rfile.read(-1) would block until the peer hangs up.
            self.close_connection = True
            return fail(
                400,
                "bad_content_length",
                f"Content-Length must be a non-negative integer, "
                f"got {raw_length!r}",
            )
        length = int(raw_length)
        if length > app.limits.max_body_bytes:
            # Shed before reading or parsing: the hostile case costs a
            # header, not max_body_bytes of memory.
            self.close_connection = True
            app.admission._shed.inc("body_too_large")
            return fail(
                413,
                "body_too_large",
                f"{length} bytes > {app.limits.max_body_bytes}",
            )
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(request, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return fail(400, "bad_json", str(exc))
        queue_started = time.monotonic()
        try:
            with (
                tracer.span("serve.admission")
                if tracer is not None
                else nullcontext()
            ):
                slot = app.admission.admit()
        except AdmissionDenied as exc:
            outcome["queue_s"] = round(time.monotonic() - queue_started, 6)
            return fail(
                exc.status,
                exc.reason,
                "request shed; retry after the hinted backoff",
                retry_after=exc.retry_after,
            )
        outcome["queue_s"] = round(time.monotonic() - queue_started, 6)
        eval_started = time.monotonic()
        try:
            injector = _faults.ACTIVE
            if injector is not None:
                injector.visit("serve.handle")
            with (
                tracer.span("serve.dispatch", endpoint=self.path)
                if tracer is not None
                else nullcontext()
            ):
                payload = getattr(app, method)(request)
            outcome["status"], outcome["reason"] = 200, "ok"
            outcome["payload"] = payload
        except ServeRequestError as exc:
            fail(exc.status, exc.reason, exc.detail)
        except Exception as exc:  # fault-boundary: one request, not the daemon
            app.c_errors.inc()
            fail(500, "internal", f"{type(exc).__name__}: {exc}")
        finally:
            outcome["eval_s"] = round(time.monotonic() - eval_started, 6)
            slot.release()

    def _finish_post(
        self, outcome, tracer, incoming, trace_id, req_span
    ) -> None:
        """Export the request's trace subtree and send the response."""
        app = self.app
        if tracer is not None and req_span is not None:
            # The subtree leaves the tracer's buffer whether or not an
            # exporter is configured — the daemon's memory is bounded
            # by in-flight requests, not uptime.
            spans = tracer.pop_subtree(req_span)
            app._export_trace(spans, trace_id)
            self._traceparent = _trace.TraceContext(
                trace_id, req_span, sampled=True
            ).to_traceparent()
            if (
                self.headers.get("x-repro-trace-return") == "1"
                and isinstance(outcome["payload"], dict)
                and "error" not in outcome["payload"]
            ):
                outcome["payload"]["trace"] = {
                    "trace_id": trace_id,
                    "spans": spans,
                }
        elif trace_id is not None:
            # Tracing on but this request unsampled (or the caller
            # asked for no sampling): echo the context with the
            # sampled flag down so the caller's view agrees.
            self._traceparent = _trace.TraceContext(
                trace_id, _trace.new_span_id_hex(), sampled=False
            ).to_traceparent()
        self._send_json(
            outcome["status"],
            outcome["payload"]
            if outcome["payload"] is not None
            else {"error": {"status": 500, "reason": "internal"}},
            retry_after=outcome["retry_after"],
        )


class _UnixHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` over ``AF_UNIX``.

    ``http.server`` assumes a ``(host, port)`` socket name; a unix
    path needs both bind and name handling overridden.
    """

    address_family = socket.AF_UNIX

    def __init__(self, path: str, handler: type) -> None:
        super().__init__(path, handler, bind_and_activate=True)  # type: ignore[arg-type]

    def server_bind(self) -> None:
        self.socket.bind(self.server_address)
        self.server_name = str(self.server_address)
        self.server_port = 0

    def client_address_string(self) -> str:
        return "unix"
