"""Tests for the OTLP/JSON export: W3C context, document shape,
span-tree validation, the exporter sinks, the trace-file reader, and
the offline validator.

The export is consumed by tooling outside this repository, so these
tests pin the *wire* contract: attribute typing (OTLP wants intValue
as a string), hex ids, remote-parent links, and the validator
invariants the CI serve job runs against real daemon artifacts.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.otlp import (
    OTLPExporter,
    TraceFileError,
    read_otlp_file,
    read_otlp_spans,
    to_otlp,
    validate_otlp,
)
from repro.obs.otlp import main as otlp_main
from repro.obs.profile import attributes
from repro.obs.trace import TraceContext, Tracer


class TestTraceContext:
    def test_traceparent_round_trip(self):
        context = TraceContext.generate(sampled=True)
        header = context.to_traceparent()
        assert header.startswith("00-")
        parsed = TraceContext.parse_traceparent(header)
        assert parsed == context

    def test_sampled_flag_survives(self):
        down = TraceContext.generate(sampled=False)
        parsed = TraceContext.parse_traceparent(down.to_traceparent())
        assert parsed is not None and parsed.sampled is False
        assert down.to_traceparent().endswith("-00")

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # wrong version
            "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # zero trace id
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # zero span id
            "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
            "00-" + "A" * 32 + "-" + "b" * 16 + "-zz",  # bad flags
        ],
    )
    def test_malformed_headers_degrade_to_none(self, header):
        assert TraceContext.parse_traceparent(header) is None

    def test_uppercase_header_accepted(self):
        # The W3C spec mandates lowercase on emit but tolerant parsing.
        context = TraceContext.generate()
        parsed = TraceContext.parse_traceparent(
            context.to_traceparent().upper()
        )
        assert parsed is not None
        assert parsed.trace_id == context.trace_id


def _sample_spans() -> tuple[Tracer, list[dict]]:
    tracer = Tracer()
    with tracer.span("serve.request", path="/v1/normalize", retries=0):
        with tracer.span("serve.evaluate", items=3, ok=True):
            tracer.firings({"r1": 2, "r2": 5})
    return tracer, tracer.spans


class TestToOtlp:
    def test_resource_spans_shape(self):
        tracer, spans = _sample_spans()
        doc = to_otlp(
            spans, tracer.trace_id, resource={"service.name": "repro-test"}
        )
        resource = doc["resourceSpans"][0]
        attrs = {
            a["key"]: a["value"] for a in resource["resource"]["attributes"]
        }
        assert attrs["service.name"] == {"stringValue": "repro-test"}
        spans = resource["scopeSpans"][0]["spans"]
        assert [s["name"] for s in spans] == [
            "serve.request",
            "serve.evaluate",
        ]

    def test_ids_are_hex_and_parents_link(self):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        request, evaluate = read_otlp_spans(doc)
        for span in (request, evaluate):
            assert span["traceId"] == tracer.trace_id
            assert len(span["spanId"]) == 16
            int(span["spanId"], 16)  # valid hex
        assert evaluate["parentSpanId"] == request["spanId"]
        assert "parentSpanId" not in request

    def test_attribute_typing(self):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        request, evaluate = read_otlp_spans(doc)
        req_attrs = {
            a["key"]: a["value"] for a in request["attributes"]
        }
        eval_attrs = {
            a["key"]: a["value"] for a in evaluate["attributes"]
        }
        assert req_attrs["path"] == {"stringValue": "/v1/normalize"}
        # OTLP ints ride as strings; bools must not be swallowed by the
        # int branch (bool is an int subclass in Python).
        assert req_attrs["retries"] == {"intValue": "0"}
        assert eval_attrs["ok"] == {"boolValue": True}
        # The firings point event becomes one span event per rule, its
        # count a scalar attribute: the export loses no per-rule detail.
        per_rule = {}
        for firing_event in evaluate["events"]:
            assert firing_event["name"] == "firings"
            event_attrs = {
                a["key"]: a["value"] for a in firing_event["attributes"]
            }
            per_rule[event_attrs["rule"]["stringValue"]] = event_attrs[
                "count"
            ]
        assert per_rule == {
            "r1": {"intValue": "2"},
            "r2": {"intValue": "5"},
        }
        assert attributes(evaluate["events"][1]) == {"rule": "r2", "count": 5}

    def test_remote_parent_marks_cross_process_link(self):
        tracer = Tracer()
        remote = TraceContext.generate()
        with tracer.span("serve.request", remote_parent=remote.span_id):
            pass
        doc = to_otlp(tracer.spans, remote.trace_id)
        (span,) = read_otlp_spans(doc)
        assert span["parentSpanId"] == remote.span_id
        attrs = {a["key"]: a["value"] for a in span["attributes"]}
        assert attrs["repro.parent.remote"] == {"boolValue": True}

    def test_timestamps_are_ordered_nanos(self):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        for span in read_otlp_spans(doc):
            start = int(span["startTimeUnixNano"])
            end = int(span["endTimeUnixNano"])
            assert start > 10**18  # nanoseconds since the epoch
            assert end >= start

    def test_timestamps_keep_whole_microseconds(self):
        # The tracer stamps whole microseconds as integer nanoseconds,
        # spans and span events alike; the document keeps them as-is.
        tracer, spans = _sample_spans()
        for span in read_otlp_spans(to_otlp(spans, tracer.trace_id)):
            times = [span["startTimeUnixNano"], span["endTimeUnixNano"]]
            times += [event["timeUnixNano"] for event in span["events"]]
            for time_ns in times:
                assert time_ns.isdecimal() and int(time_ns) % 1000 == 0

    def test_document_carries_the_records_with_the_trace_id(self):
        tracer, spans = _sample_spans()
        exported = read_otlp_spans(to_otlp(spans, tracer.trace_id))
        assert exported == [
            {"traceId": tracer.trace_id, **span} for span in spans
        ]
        assert all("traceId" not in span for span in spans)


class TestValidate:
    def test_clean_document_validates(self):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        assert validate_otlp(doc) == []

    def test_dangling_parent_is_flagged(self):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        spans = read_otlp_spans(doc)
        spans[1]["parentSpanId"] = "deadbeefdeadbeef"
        problems = validate_otlp(doc)
        assert any("parent" in p for p in problems)

    def test_mixed_trace_ids_are_flagged(self):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        read_otlp_spans(doc)[1]["traceId"] = "ab" * 16
        problems = validate_otlp(doc)
        assert any("trace id" in p for p in problems)

    @pytest.mark.parametrize(
        "name, attrs, expected",
        [
            ("step", {"subject": "x"}, "step event without a string rule"),
            ("step", {"rule": 4}, "step event without a string rule"),
            ("firings", {"count": 2}, "firings event without a string rule"),
            ("firings", {"rule": "r"}, "firings event without an integer count"),
            ("firings", {"rule": "r", "count": "2"},
             "firings event without an integer count"),
        ],
    )
    def test_rule_events_name_their_rule_and_count(
        self, name, attrs, expected
    ):
        # profile.firing_counts reads ``rule`` (and ``count``) off these
        # events, so a file without them must not validate clean.
        tracer = Tracer()
        with tracer.span("engine.normalize"):
            tracer.event(name, **attrs)
        doc = to_otlp(tracer.spans, tracer.trace_id)
        assert any(expected in p for p in validate_otlp(doc))

    def test_malformed_attributes_are_flagged(self):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        read_otlp_spans(doc)[0]["attributes"] = [{"key": "k", "value": {}}]
        problems = validate_otlp(doc)
        assert any("attributes are not scalar" in p for p in problems)

    def test_orphan_worker_span_is_flagged(self):
        # The nesting rule only applies to request-bearing documents: a
        # worker span that is a *sibling* of serve.request means context
        # propagation broke somewhere between dispatch and the shard.
        tracer = Tracer()
        with tracer.span("serve.request"):
            pass
        with tracer.span("worker.chunk", pid=123):
            pass
        doc = to_otlp(tracer.spans, tracer.trace_id)
        problems = validate_otlp(doc)
        assert any("worker" in p for p in problems)

    def test_worker_under_request_is_clean(self):
        tracer = Tracer()
        with tracer.span("serve.request"):
            with tracer.span("parallel.batch"):
                with tracer.span("worker.chunk", pid=123):
                    pass
        doc = to_otlp(tracer.spans, tracer.trace_id)
        assert validate_otlp(doc) == []


class TestExporter:
    def test_file_sink_appends_one_document_per_export(self, tmp_path):
        path = tmp_path / "traces.otlp.jsonl"
        exporter = OTLPExporter(path=str(path))
        for _ in range(2):
            tracer, spans = _sample_spans()
            exporter.export(spans, tracer.trace_id)
        assert exporter.exported == 2 and exporter.errors == 0
        docs = read_otlp_file(str(path))
        assert len(docs) == 2
        for doc in docs:
            assert validate_otlp(doc) == []

    def test_unreachable_endpoint_counts_error_not_raise(self):
        exporter = OTLPExporter(
            endpoint="http://127.0.0.1:1/v1/traces", timeout=0.2
        )
        tracer, spans = _sample_spans()
        exporter.export(spans, tracer.trace_id)
        assert exporter.errors == 1 and exporter.exported == 0


class TestOfflineCli:
    def test_validates_the_cli_trace_document(self, tmp_path, capsys):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        path = tmp_path / "trace.otlp.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        assert otlp_main([str(path)]) == 0
        assert "1 trace(s), 2 span(s), 0 violation(s)" in (
            capsys.readouterr().out
        )

    def test_validate_passes_clean_and_fails_corrupt(self, tmp_path, capsys):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        clean = tmp_path / "clean.otlp.jsonl"
        clean.write_text(json.dumps(doc) + "\n")
        assert otlp_main([str(clean)]) == 0
        read_otlp_spans(doc)[1]["parentSpanId"] = "deadbeefdeadbeef"
        corrupt = tmp_path / "corrupt.otlp.jsonl"
        corrupt.write_text(json.dumps(doc) + "\n")
        assert otlp_main([str(corrupt)]) == 1
        assert "violation" in capsys.readouterr().out

    def _fails_with(self, path, capsys, expected: str) -> None:
        assert otlp_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert expected in out
        assert "violation(s)" in out

    def test_non_numeric_end_time_is_a_violation(self, tmp_path, capsys):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        read_otlp_spans(doc)[0]["endTimeUnixNano"] = "soon"
        path = tmp_path / "bad-time.json"
        path.write_text(json.dumps(doc))
        self._fails_with(path, capsys, "not integer nanoseconds")

    def test_step_event_without_rule_is_a_violation(self, tmp_path, capsys):
        tracer = Tracer()
        with tracer.span("engine.normalize"):
            tracer.event("step", subject="FRONT(NEW)")
        path = tmp_path / "no-rule.json"
        path.write_text(json.dumps(to_otlp(tracer.spans, tracer.trace_id)))
        self._fails_with(path, capsys, "step event without a string rule")

    def test_line_that_is_not_json_is_a_violation(self, tmp_path, capsys):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        path = tmp_path / "bad-line.otlp.jsonl"
        path.write_text(json.dumps(doc) + "\n{not json\n")
        self._fails_with(path, capsys, "line 2 is not JSON")

    def test_top_level_array_is_a_violation(self, tmp_path, capsys):
        tracer, spans = _sample_spans()
        doc = to_otlp(spans, tracer.trace_id)
        path = tmp_path / "array.json"
        path.write_text(json.dumps([doc]))
        self._fails_with(path, capsys, "not an OTLP document")
        with pytest.raises(TraceFileError):
            read_otlp_file(str(path))

    @pytest.mark.parametrize(
        "document",
        [
            {"resourceSpans": 5},
            {"resourceSpans": [{"scopeSpans": [{"spans": ["not a span"]}]}]},
        ],
        ids=["spans-not-a-list", "span-not-an-object"],
    )
    def test_misshapen_document_is_a_violation(
        self, tmp_path, capsys, document
    ):
        path = tmp_path / "misshapen.json"
        path.write_text(json.dumps(document))
        self._fails_with(path, capsys, "not an OTLP document")

    def test_empty_file_is_a_violation(self, tmp_path, capsys):
        path = tmp_path / "empty.otlp.jsonl"
        path.write_text("")
        self._fails_with(path, capsys, "no trace documents")
