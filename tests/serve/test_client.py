"""Tests for the client's retry discipline, against a scripted server.

A minimal stub HTTP server plays back a fixed sequence of responses, so
the tests pin exactly which statuses the client retries (the shed pair,
429/503, plus connection failures) and which it surfaces immediately.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.obs.profile import firing_counts
from repro.obs.trace import Tracer
from repro.parallel import wire
from repro.serve import ServeClient, ServeError, ServeUnavailable


class _ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        server = self.server
        server.seen.append(self.path)
        script = server.script
        status, payload = script.pop(0) if len(script) > 1 else script[0]
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status in (429, 503):
            self.send_header("Retry-After", "0")
        self.end_headers()
        self.wfile.write(body)


class _KeepAliveHandler(_ScriptedHandler):
    """The scripted server, speaking HTTP/1.1 with persistent
    connections; counts distinct connections for the reuse tests."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.connections += 1


class _SneakyCloseHandler(_KeepAliveHandler):
    """Advertises keep-alive but drops the socket after ``close_after``
    requests — the server-side idle-timeout the client must absorb."""

    def do_POST(self):
        super().do_POST()
        server = self.server
        if (
            server.close_after is not None
            and len(server.seen) >= server.close_after
        ):
            self.close_connection = True


def _shed(status: int, reason: str) -> tuple[int, dict]:
    return status, {"error": {"status": status, "reason": reason}}


def _ok() -> tuple[int, dict]:
    return 200, {"outcomes": wire.encode_outcomes([])}


def _stub(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.script = []
    server.seen = []
    server.connections = 0
    server.close_after = None
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


@pytest.fixture
def scripted():
    yield from _stub(_ScriptedHandler)


@pytest.fixture
def keepalive():
    yield from _stub(_KeepAliveHandler)


@pytest.fixture
def sneaky():
    yield from _stub(_SneakyCloseHandler)


def _client(server, **kwargs) -> ServeClient:
    host, port = server.server_address[:2]
    kwargs.setdefault("timeout", 5.0)
    kwargs.setdefault("backoff", 0.001)
    return ServeClient(host, port, **kwargs)


class TestRetries:
    def test_retries_through_shed_to_success(self, scripted):
        scripted.script = [
            _shed(503, "queue_timeout"),
            _shed(429, "queue_full"),
            (200, {"outcomes": wire.encode_outcomes([])}),
        ]
        client = _client(scripted, retries=3)
        assert client.normalize(text=["NEW"]) == []
        assert len(scripted.seen) == 3

    def test_exhausted_retries_raise_unavailable(self, scripted):
        scripted.script = [_shed(429, "queue_full")]
        client = _client(scripted, retries=2)
        with pytest.raises(ServeUnavailable) as exc:
            client.normalize(text=["NEW"])
        assert exc.value.status == 429
        assert exc.value.reason == "queue_full"
        assert len(scripted.seen) == 3  # first try + 2 retries

    def test_final_4xx_never_retried(self, scripted):
        scripted.script = [_shed(400, "bad_term")]
        client = _client(scripted, retries=3)
        with pytest.raises(ServeError) as exc:
            client.normalize(text=["FRONT(???"])
        assert not isinstance(exc.value, ServeUnavailable)
        assert exc.value.status == 400
        assert len(scripted.seen) == 1  # judged final: one attempt

    def test_dead_daemon_raises_unavailable(self):
        client = ServeClient(
            "127.0.0.1", 1, timeout=0.5, retries=1, backoff=0.001
        )
        with pytest.raises(ServeUnavailable) as exc:
            client.healthz()
        assert exc.value.reason == "unreachable"

    def test_jitter_is_seeded(self, scripted):
        # Two clients with the same seed draw identical jitter streams,
        # so retry schedules replay exactly in tests.
        a = _client(scripted, seed=7)._rng.random()
        b = _client(scripted, seed=7)._rng.random()
        assert a == b


class TestKeepAlive:
    def test_requests_reuse_one_connection(self, keepalive):
        keepalive.script = [_ok()]
        with _client(keepalive, retries=0) as client:
            for _ in range(3):
                assert client.normalize(text=["NEW"]) == []
        assert len(keepalive.seen) == 3
        assert keepalive.connections == 1

    def test_keepalive_false_reconnects_every_request(self, keepalive):
        keepalive.script = [_ok()]
        with _client(keepalive, retries=0, keepalive=False) as client:
            for _ in range(3):
                assert client.normalize(text=["NEW"]) == []
        assert keepalive.connections == 3

    def test_http10_server_is_never_cached(self, scripted):
        # An HTTP/1.0 peer closes after every response; the client must
        # notice (will_close) and fall back to connection-per-request
        # instead of replaying against dead sockets.
        scripted.script = [_ok()]
        with _client(scripted, retries=0) as client:
            for _ in range(2):
                assert client.normalize(text=["NEW"]) == []
            assert client._conn is None

    def test_stale_cached_connection_replays_once(self, sneaky):
        # The server silently drops the connection after each response
        # (no Connection: close header), exactly like an idle-timeout
        # firing between requests.  With retries=0, only the stale-
        # connection replay path can make the second request succeed.
        sneaky.script = [_ok()]
        sneaky.close_after = 1
        with _client(sneaky, retries=0) as client:
            assert client.normalize(text=["NEW"]) == []
            assert client.normalize(text=["NEW"]) == []
        assert len(sneaky.seen) == 2
        assert sneaky.connections == 2

    def test_fresh_connection_failure_still_surfaces(self, sneaky):
        # The replay is only for *reused* sockets: a failure on a fresh
        # connection propagates to the retry loop as usual.
        sneaky.script = [_shed(503, "queue_timeout")]
        sneaky.close_after = 0  # drop after every response
        with _client(sneaky, retries=1) as client:
            with pytest.raises(ServeUnavailable) as exc:
                client.normalize(text=["NEW"])
        assert exc.value.status == 503
        assert len(sneaky.seen) == 2  # first try + 1 retry


def _traced(spans: object) -> tuple[int, dict]:
    """A 200 whose body carries a returned trace with ``spans``."""
    return 200, {
        "outcomes": wire.encode_outcomes([]),
        "trace": {"trace_id": "ab" * 16, "spans": spans},
    }


def _daemon_spans() -> list[dict]:
    daemon = Tracer()
    with daemon.span("serve.request", remote_parent="cd" * 8, path="/x"):
        with daemon.span("serve.evaluate"):
            daemon.firings({"r1": 2})
    return daemon.spans


class TestTraceReturn:
    def test_returned_spans_merge_under_the_request_span(self, scripted):
        scripted.script = [_traced(_daemon_spans())]
        tracer = Tracer()
        client = _client(scripted, tracer=tracer, trace_return=True)
        assert client.normalize(text=["NEW"]) == []
        request, served, evaluated = tracer.spans
        assert request["name"] == "client.request"
        assert served["parentSpanId"] == request["spanId"]
        assert evaluated["parentSpanId"] == served["spanId"]
        assert firing_counts(tracer.spans) == {"r1": 2}

    @pytest.mark.parametrize(
        "spans",
        [
            [1],
            [{**_daemon_spans()[0], "parentSpanId": ["ab"]}],
            "spans",
            None,
        ],
        ids=["not-a-record", "list-parent", "a-string", "missing"],
    )
    def test_malformed_trace_is_a_serve_error(self, scripted, spans):
        scripted.script = [_traced(spans)]
        tracer = Tracer()
        client = _client(scripted, tracer=tracer, trace_return=True)
        with pytest.raises(ServeError) as exc:
            client.normalize(text=["NEW"])
        assert exc.value.reason == "bad_trace"
        assert "ab" * 16 in exc.value.detail  # names the bad trace
        assert [span["name"] for span in tracer.spans] == ["client.request"]
