"""Tests for :class:`repro.serve.ReproServer`: the HTTP surface.

Every test boots a real daemon on an ephemeral port (or a unix socket)
and talks to it with the stdlib client — the same path production
traffic takes.  Worker pools are off here (serial sessions); the
supervised path is covered by the chaos suite.
"""

from __future__ import annotations

import http.client
import json
import sys

import pytest

from repro.adt.queue import FRONT, QUEUE_SPEC, new, queue_term
from repro.algebra.terms import App, Var
from repro.obs import metrics as _metrics
from repro.parallel import wire
from repro.rewriting import RewriteEngine
from repro.runtime import EvaluationBudget
from repro.serve import (
    ReproServer,
    ServeClient,
    ServeError,
    ServeLimits,
    ServeUnavailable,
)


def _server(**kwargs) -> ReproServer:
    kwargs.setdefault("registry", _metrics.MetricsRegistry("server-test"))
    return ReproServer([QUEUE_SPEC], **kwargs)


@pytest.fixture(scope="module")
def served():
    with _server() as server:
        host, port = server.address
        yield server, ServeClient(host, port, timeout=10.0, retries=0)


class TestHealth:
    def test_healthz(self, served):
        _, client = served
        reply = client.healthz()
        assert reply["ok"] is True
        assert reply["uptime_seconds"] >= 0

    def test_readyz_serial_sessions_are_ready(self, served):
        _, client = served
        reply = client.readyz()
        assert reply["status"] == 200
        assert reply["ready"] is True
        entry = reply["specs"]["Queue"]
        assert entry["ready"] is True
        # Present on every session: None until fuel has been observed,
        # a suggestion (p99 bucket x margin) once requests have run.
        assert "suggested_fuel_budget" in entry

    def test_readyz_suggests_fuel_after_traffic(self, served):
        server, client = served
        client.normalize(text=["FRONT(ADD(NEW, 7))"], spec="Queue")
        reply = client.readyz()
        suggestion = reply["specs"]["Queue"]["suggested_fuel_budget"]
        assert isinstance(suggestion, int) and suggestion >= 1


class TestNormalize:
    def test_text_terms_parse_server_side(self, served):
        _, client = served
        outcomes = client.normalize(
            text=['FRONT(ADD(NEW, "a"))', "FRONT(NEW)"], spec="Queue"
        )
        assert len(outcomes) == 2
        assert outcomes[0].ok
        assert outcomes[1].status == "error_value"  # FRONT(NEW) = error

    def test_wire_terms_match_serial_engine(self, served):
        _, client = served
        subjects = [
            App(FRONT, (queue_term([f"x{i}", f"y{i}"]),)) for i in range(5)
        ]
        subjects.append(App(FRONT, (new(),)))
        expected = RewriteEngine.for_specification(
            QUEUE_SPEC
        ).normalize_many_outcomes(subjects)
        assert client.normalize(subjects) == expected

    def test_default_session_when_spec_omitted(self, served):
        _, client = served
        outcomes = client.normalize(text=['FRONT(ADD(NEW, "z"))'])
        assert outcomes[0].ok

    def test_budget_clamped_to_server_ceiling(self):
        # The server ceiling is tiny; a client asking for a huge fuel
        # grant still gets per-item truncation, not a long evaluation.
        with _server(
            limits=ServeLimits(max_fuel=10),
            registry=_metrics.MetricsRegistry("server-clamp-test"),
        ) as server:
            host, port = server.address
            client = ServeClient(host, port, timeout=10.0, retries=0)
            outcomes = client.normalize(
                [App(FRONT, (queue_term(range(100)),))],
                budget=EvaluationBudget(fuel=10**9),
            )
            assert outcomes[0].status == "truncated"

    def test_unknown_spec_is_404(self, served):
        _, client = served
        with pytest.raises(ServeError) as exc:
            client.normalize(text=["NEW"], spec="NoSuchSpec")
        assert exc.value.status == 404
        assert exc.value.reason == "unknown_spec"

    def test_unparsable_text_is_400(self, served):
        _, client = served
        with pytest.raises(ServeError) as exc:
            client.normalize(text=["FRONT(???"])
        assert exc.value.status == 400
        assert exc.value.reason == "bad_term"

    def test_oversized_batch_is_413(self):
        with _server(
            limits=ServeLimits(max_batch=2),
            registry=_metrics.MetricsRegistry("server-batch-test"),
        ) as server:
            host, port = server.address
            client = ServeClient(host, port, timeout=10.0, retries=0)
            with pytest.raises(ServeError) as exc:
                client.normalize(text=["NEW", "NEW", "NEW"])
            assert exc.value.status == 413
            assert exc.value.reason == "batch_too_large"


class TestRawRequests:
    """Cases the well-behaved client never sends."""

    def _post(self, server, path, body: bytes, headers=None):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10.0)
        try:
            conn.request(
                "POST",
                path,
                body=body,
                headers=headers or {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def test_bad_json_is_400(self, served):
        server, _ = served
        status, payload = self._post(server, "/v1/normalize", b"{not json")
        assert status == 400
        assert payload["error"]["reason"] == "bad_json"

    def test_oversized_body_shed_before_read(self):
        with _server(
            limits=ServeLimits(max_body_bytes=64),
            registry=_metrics.MetricsRegistry("server-body-test"),
        ) as server:
            status, payload = self._post(
                server, "/v1/normalize", b"x" * 1024
            )
            assert status == 413
            assert payload["error"]["reason"] == "body_too_large"

    def _post_with_length(
        self, server, length: str, body=b'{"text": []}', path="/v1/normalize"
    ):
        """POST with a hand-written ``Content-Length`` header; the
        short socket timeout turns a handler stuck reading the body
        into a test failure rather than a 30 s hang."""
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            conn.putrequest("POST", path)
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders(body)
            response = conn.getresponse()
            payload = json.loads(response.read() or b"{}")
            return response.status, response.getheader("Connection"), payload
        finally:
            conn.close()

    def test_non_numeric_content_length_is_400(self, served):
        server, _ = served
        status, connection, payload = self._post_with_length(server, "abc")
        assert status == 400
        assert payload["error"]["reason"] == "bad_content_length"
        # The body's extent is unknown, so the connection is not reused.
        assert connection == "close"

    def test_negative_content_length_is_400_without_reading(self, served):
        server, _ = served
        status, connection, payload = self._post_with_length(server, "-1")
        assert status == 400
        assert payload["error"]["reason"] == "bad_content_length"
        assert connection == "close"

    def test_rejections_before_the_read_close_the_connection(self):
        # The body stays unread, and on a reused connection it would be
        # parsed as the next request.
        with _server(
            limits=ServeLimits(max_body_bytes=64),
            registry=_metrics.MetricsRegistry("server-body-close-test"),
        ) as server:
            body = b"x" * 1024
            status, connection, _ = self._post_with_length(
                server, str(len(body)), body
            )
            assert (status, connection) == (413, "close")
            body = b'{"text": []}'
            status, connection, _ = self._post_with_length(
                server, str(len(body)), body, path="/v1/nonsense"
            )
            assert (status, connection) == (404, "close")

    def test_unknown_post_path_is_404(self, served):
        server, _ = served
        status, payload = self._post(server, "/v1/nonsense", b"{}")
        assert status == 404
        assert payload["error"]["reason"] == "not_found"


class TestCheckAndProve:
    def test_check_reports_queue_complete(self, served):
        _, client = served
        reply = client.check(spec="Queue", sample_terms=20)
        assert reply["sufficiently_complete"] is True
        assert reply["consistent"] is True
        # N and k: the smallest observations and axiom instances.
        assert (reply["sampled_observations"], reply["sampled_complete_to"]) == (
            18,
            6,
        )
        assert (
            reply["ground_instances_checked"],
            reply["ground_complete_to"],
        ) == (21, 5)
        # Nothing was left unrun or ran out of fuel.
        assert (reply["sampled_undecided"], reply["ground_undecided"]) == (0, 0)

    def test_prove_axiom_consequence(self, served):
        _, client = served
        add = QUEUE_SPEC.operation("ADD")
        item = Var("i", add.domain[1])
        goal = (App(FRONT, (App(add, (new(), item)),)), item)
        results = client.prove([goal], spec="Queue")
        assert len(results) == 1
        assert results[0]["proved"] is True
        assert results[0]["residual"] is None

    def test_prove_goals_of_one_request_share_constants(self, served):
        """A variable is one constant across the goals of a request (one
        prover per request), and no constant outlives its request."""
        _, client = served
        add = QUEUE_SPEC.operation("ADD")
        item = Var("i", add.domain[1])
        queue = Var("q", QUEUE_SPEC.type_of_interest)
        goals = [
            (App(FRONT, (App(add, (new(), item)),)), item),
            (App(FRONT, (App(add, (queue, item)),)), item),
        ]
        first = client.prove(goals, spec="Queue")
        second = client.prove(goals, spec="Queue")
        for results in (first, second):
            assert [r["proved"] for r in results] == [True, False]
            constant = results[0]["rhs"]
            assert constant.startswith("i$")
            assert results[1]["rhs"] == constant
            assert f", {constant})" in results[1]["lhs"]
        assert first[0]["rhs"] != second[0]["rhs"]
        assert first[1]["lhs"] != second[1]["lhs"]

    def test_prove_rejects_malformed_goals(self, served):
        _, client = served
        with pytest.raises(ServeError) as exc:
            client._request(
                "POST", "/v1/prove", {"text": ["NEW"], "goals": [[0, 99]]}
            )
        assert exc.value.status == 400
        assert exc.value.reason == "bad_goals"


#: A well-formed wire budget, for the malformed variants below.
_BUDGET = {"fuel": 10, "deadline": None, "max_intern_growth": None}


class TestRequestFields:
    """Numeric fields and goal indices are checked as sent: a bad one
    is the caller's 400, never a 500 that counts as a server error."""

    def _rejected(self, server, client, path, body, reason):
        errors = server.c_errors.value
        with pytest.raises(ServeError) as exc:
            client._request("POST", path, body)
        assert exc.value.status == 400
        assert exc.value.reason == reason
        assert server.c_errors.value == errors

    @pytest.mark.parametrize("field", ["sample_terms", "max_depth", "seed"])
    def test_non_integer_check_field_is_400(self, served, field):
        server, client = served
        self._rejected(
            server, client, "/v1/check", {field: "many"}, "bad_field"
        )

    @pytest.mark.parametrize("field", ["seed", "max_depth"])
    @pytest.mark.parametrize("value", [0, 2026, -1, None])
    def test_removed_check_field_is_400(self, served, field, value):
        """Checks enumerate the smallest instances: a sampling seed or a
        depth bound is refused whatever its value, and named."""
        server, client = served
        self._rejected(
            server, client, "/v1/check", {field: value}, "bad_field"
        )
        with pytest.raises(ServeError) as exc:
            client._request("POST", "/v1/check", {field: value})
        assert repr(field) in exc.value.detail

    def test_non_integer_fuel_is_400(self, served):
        server, client = served
        self._rejected(
            server,
            client,
            "/v1/prove",
            {"text": ["NEW"], "goals": [[0, 0]], "fuel": "x"},
            "bad_field",
        )

    @pytest.mark.parametrize(
        "budget",
        [
            *(
                {**_BUDGET, **change}
                for change in (
                    {"fuel": "abc"},
                    {"fuel": True},
                    {"fuel": -1},
                    {"fuel": 1.5},
                    {"deadline": "x"},
                    {"deadline": -0.5},
                    {"deadline": float("inf")},
                    {"deadline": False},
                    {"max_intern_growth": "abc"},
                    {"max_intern_growth": -1},
                    {"cache_size": 1},
                    {"extra": None},
                )
            ),
            {"fuel": 10},
            [10],
            "abc",
            10,
        ],
        ids=repr,
    )
    def test_bad_budget_is_400(self, served, budget):
        """A budget has exactly three fields of the documented types; a
        field the runtime does not know (the memo bound ``cache_size``
        is an engine option, not a budget field) is refused, not
        dropped."""
        server, client = served
        self._rejected(
            server,
            client,
            "/v1/normalize",
            {"spec": "Queue", "text": ["NEW"], "budget": budget},
            "bad_budget",
        )

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/normalize", {"text": ["NEW"]}),
            ("/v1/check", {}),
            ("/v1/prove", {"text": ["NEW"], "goals": [[0, 0]]}),
        ],
    )
    @pytest.mark.parametrize("spec", [["x"], {"name": "Queue"}, 7])
    def test_non_string_spec_is_400(self, served, path, body, spec):
        server, client = served
        self._rejected(server, client, path, {"spec": spec, **body}, "bad_field")

    @pytest.mark.parametrize(
        "goal",
        [[-1, -1], [0.0, 1], [True, 0]],
        ids=["negative", "non-integer", "bool"],
    )
    def test_bad_goal_index_is_400(self, served, goal):
        # Python indexing would read -1 as terms[-1] and True as terms[1].
        server, client = served
        self._rejected(
            server,
            client,
            "/v1/prove",
            {"text": ["NEW", "NEW"], "goals": [goal]},
            "bad_goals",
        )


#: Calls of :func:`_sentinel`; a request must never add one.
SENTINEL_CALLS: list = []


def _sentinel(*args):
    SENTINEL_CALLS.append(args)
    return "sentinel"


class TestClientTermsAreDeclared:
    """Client terms decode against the session's signature: an
    operation row must name a declared operation with its declared
    builtin, and no module a payload names is imported."""

    def _rejected(self, server, client, terms):
        errors = server.c_errors.value
        with pytest.raises(ServeError) as exc:
            client._request(
                "POST", "/v1/normalize", {"spec": "Queue", "terms": terms}
            )
        assert exc.value.status == 400
        assert exc.value.reason == "bad_wire"
        assert server.c_errors.value == errors

    @staticmethod
    def _peek(builtin: str) -> dict:
        # PEEK: Queue -> Queue, applied to the literal "HOME".
        return {
            "version": wire.WIRE_VERSION,
            "sorts": [["Queue", []]],
            "ops": [
                {"name": "PEEK", "domain": [0], "range": 0, "builtin": builtin}
            ],
            "nodes": [["l", "HOME", 0], ["a", 0, [0]]],
            "roots": [1],
        }

    def test_undeclared_operation_with_a_builtin_is_400(self, served):
        server, client = served
        self._rejected(server, client, self._peek(f"{__name__}:_sentinel"))
        self._rejected(server, client, self._peek("os:getenv"))
        assert SENTINEL_CALLS == []

    def test_declared_operation_with_another_builtin_is_400(self, served):
        server, client = served
        terms = wire.encode_terms([App(FRONT, (queue_term(["a"]),))])
        for row in terms["ops"]:
            if row["name"] == "FRONT":
                row["builtin"] = f"{__name__}:_sentinel"
        self._rejected(server, client, terms)
        assert SENTINEL_CALLS == []

    def test_no_module_named_in_a_payload_is_imported(
        self, served, tmp_path, monkeypatch
    ):
        server, client = served
        (tmp_path / "wire_sentinel_module.py").write_text(
            "def peek(value):\n    return value\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        self._rejected(server, client, self._peek("wire_sentinel_module:peek"))
        assert "wire_sentinel_module" not in sys.modules

    def test_undeclared_sort_is_400(self, served):
        server, client = served
        terms = wire.encode_terms([queue_term(["a"])])
        terms["sorts"].append(["Secret", []])
        terms["nodes"].append(["e", len(terms["sorts"]) - 1])
        terms["roots"].append(len(terms["nodes"]) - 1)
        self._rejected(server, client, terms)

    def test_declared_terms_decode_to_the_rules_operations(self, served):
        server, _ = served
        session = server.sessions["Queue"]
        rule_ops = {op.name: op for op in wire.rule_operations(session.engine.rules)}
        (term,) = wire.decode_terms(
            wire.encode_terms([App(FRONT, (queue_term(["a"]),))]), session.table
        )
        assert term.op is rule_ops["FRONT"]


class TestTransportsAndMetrics:
    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        with _server(
            unix_socket=path,
            registry=_metrics.MetricsRegistry("server-unix-test"),
        ) as server:
            assert server.address == (path, 0)
            client = ServeClient(unix_socket=path, timeout=10.0, retries=0)
            assert client.healthz()["ok"] is True
            outcomes = client.normalize(text=['FRONT(ADD(NEW, "u"))'])
            assert outcomes[0].ok

    def test_metrics_exposition(self, served):
        _, client = served
        client.normalize(text=["NEW"])
        text = client.metrics()
        assert "repro_serve_admitted_total" in text
        assert "repro_serve_requests_total" in text
        assert "# TYPE" in text

    def test_shutdown_frees_the_port(self):
        server = _server(
            registry=_metrics.MetricsRegistry("server-close-test")
        ).start()
        host, port = server.address
        server.close()
        with pytest.raises(ServeUnavailable):
            ServeClient(host, port, timeout=1.0, retries=0).healthz()
