"""Tests for the span tracer (:mod:`repro.obs.trace`) and the trace
analyses over OTLP span records (:mod:`repro.obs.profile`)."""

from __future__ import annotations

import json

import pytest

from repro.algebra.terms import app
from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term
from repro.obs import trace as trace_mod
from repro.obs.otlp import read_otlp_file, read_otlp_spans, to_otlp
from repro.obs.profile import attributes, firing_counts, profile_diff, rule_profile
from repro.obs.trace import (
    Tracer,
    install,
    maybe_span,
    otlp_attributes,
    rule_id,
    tracing,
)
from repro.report import format_rule_profile
from repro.rewriting import RewriteEngine
from repro.rewriting import engine as engine_mod
from repro.rewriting.engine import RewriteLimitError
from repro.runtime import EvaluationBudget


def _span(*events: tuple, end: float = None) -> list[dict]:
    """One span record, as the tracer records it, opened at 0 s and
    closed at ``end`` (open when None), holding ``(name, seconds,
    attrs)`` span events — the one input every trace analysis reads."""
    def nanos(seconds: float) -> str:
        return str(round(seconds * 1e9))

    return [
        {
            "spanId": "ab" * 8,
            "name": "s",
            "kind": 1,
            "startTimeUnixNano": nanos(0.0),
            "endTimeUnixNano": nanos(0.0 if end is None else end),
            "attributes": [],
            "events": [
                {
                    "name": name,
                    "timeUnixNano": nanos(seconds),
                    "attributes": otlp_attributes(attrs),
                }
                for name, seconds, attrs in events
            ],
        }
    ]


def _events(tracer: Tracer) -> list[dict]:
    """Every span event the tracer recorded, in span order."""
    return [event for span in tracer.spans for event in span["events"]]


class TestSpans:
    def test_span_record_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", backend="interpreted") as span_id:
            (open_record,) = tracer.spans
            assert open_record["endTimeUnixNano"] == (
                open_record["startTimeUnixNano"]
            )
        (record,) = tracer.spans
        assert record["spanId"] == span_id
        assert len(span_id) == 16
        int(span_id, 16)
        assert record["name"] == "outer"
        assert attributes(record) == {"backend": "interpreted"}
        assert "parentSpanId" not in record
        assert int(record["endTimeUnixNano"]) >= int(
            record["startTimeUnixNano"]
        )

    def test_nested_spans_carry_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer_id:
            with tracer.span("inner") as inner_id:
                pass
        inner = next(s for s in tracer.spans if s["name"] == "inner")
        assert inner["parentSpanId"] == outer_id
        assert inner["spanId"] == inner_id != outer_id

    def test_point_events_attach_to_the_open_span(self):
        tracer = Tracer()
        tracer.event("orphan")  # no open span: dropped
        with tracer.span("s"):
            tracer.event("fault", site="x")
        (record,) = tracer.spans
        (fault,) = record["events"]
        assert fault["name"] == "fault"
        assert attributes(fault) == {"site": "x"}


class TestSampling:
    def test_sample_zero_records_nothing(self):
        tracer = Tracer(sample=0.0)
        with tracer.span("top"):
            with tracer.span("nested"):
                tracer.event("fault")
        assert tracer.spans == []

    def test_sample_half_records_alternate_top_level_spans(self):
        tracer = Tracer(sample=0.5)
        for _ in range(4):
            with tracer.span("top"):
                tracer.event("tick")
        records = [
            (span["name"], [e["name"] for e in span["events"]])
            for span in tracer.spans
        ]
        # Credit accumulation: spans 2 and 4 are recorded.
        assert records == [("top", ["tick"])] * 2

    def test_unsampled_span_mutes_its_subtree_only(self):
        tracer = Tracer(sample=0.5)
        with tracer.span("first"):  # credit 0.5: unsampled
            tracer.event("hidden")
        with tracer.span("second"):  # credit 1.0: recorded
            tracer.event("visible")
        events = [e for e in _events(tracer) if e["name"] == "visible"]
        assert len(events) == 1
        assert not any(e["name"] == "hidden" for e in _events(tracer))

    def test_invalid_sample_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample=1.5)
        with pytest.raises(ValueError):
            Tracer(sample=-0.1)


class TestInstallation:
    def test_tracing_scope_restores_previous(self):
        outer, inner = Tracer(), Tracer()
        assert trace_mod.ACTIVE is None
        previous = install(outer)
        try:
            assert previous is None
            with tracing(inner):
                assert trace_mod.ACTIVE is inner
            assert trace_mod.ACTIVE is outer
        finally:
            install(None)
        assert trace_mod.ACTIVE is None

    def test_maybe_span_is_noop_without_tracer(self):
        assert trace_mod.ACTIVE is None
        with maybe_span("anything", attr=1) as span_id:
            assert span_id is None

    def test_maybe_span_uses_active_tracer(self):
        tracer = Tracer()
        with tracing(tracer):
            with maybe_span("scoped"):
                pass
        assert [s["name"] for s in tracer.spans] == ["scoped"]


class TestFiringEvents:
    def test_firing_counts_folds_steps_and_aggregates(self):
        spans = _span(
            ("step", 0.0, {"rule": "r1"}),
            ("step", 0.1, {"rule": "r1"}),
            ("firings", 0.2, {"rule": "r1", "count": 3}),
            ("firings", 0.2, {"rule": "r2", "count": 5}),
            end=0.3,
        )
        assert firing_counts(spans) == {"r1": 5, "r2": 5}

    def test_firings_are_one_event_per_rule(self):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.firings({"r1": 3, "r2": 5})
        assert [attributes(e) for e in _events(tracer)] == [
            {"rule": "r1", "count": 3},
            {"rule": "r2", "count": 5},
        ]

    def test_empty_firings_not_emitted(self):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.firings({})
        assert _events(tracer) == []

    def test_trace_file_reads_back_the_live_analyses(self, tmp_path):
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        tracer = Tracer()
        with tracing(tracer):
            engine.normalize(app(FRONT, queue_term(range(5))))
        live = to_otlp(tracer.spans, tracer.trace_id)
        path = tmp_path / "trace.otlp.json"
        path.write_text(json.dumps(live))
        (read_back,) = read_otlp_file(str(path))
        spans = read_otlp_spans(read_back)
        assert firing_counts(spans) == firing_counts(tracer.spans)
        assert rule_profile(spans) == rule_profile(tracer.spans)


class TestEngineIntegration:
    def test_interpreted_steps_match_registry_family(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        tracer = Tracer()
        with tracing(tracer):
            engine.normalize(app(FRONT, queue_term(range(5))))
        traced = firing_counts(tracer.spans)
        registry = {
            rule_id(rule): count
            for rule, count in engine.stats.firings.counts.items()
        }
        assert traced == registry
        assert sum(traced.values()) == engine.stats.rule_firings
        (span,) = tracer.spans
        step = next(e for e in span["events"] if e["name"] == "step")
        assert "subject" in attributes(step)

    def test_compiled_firings_match_registry_family(self):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend="codegen"
        )
        tracer = Tracer()
        with tracing(tracer):
            engine.normalize(app(FRONT, queue_term(range(5))))
        traced = firing_counts(tracer.spans)
        registry = {
            rule_id(rule): count
            for rule, count in engine.stats.firings.counts.items()
        }
        assert traced == registry
        (span,) = tracer.spans
        assert {e["name"] for e in span["events"]} == {"firings"}
        assert len(span["events"]) == len(registry)
        assert attributes(span)["backend"] == "codegen"

    @pytest.mark.parametrize("backend", ["interpreted", "codegen"])
    def test_muted_tracer_costs_no_subject_rendering(
        self, backend, monkeypatch
    ):
        # A sample=0.0 tracer drops every span, so the engine must not
        # render span attributes for it either: no events, and not one
        # summarize_term call on either backend (both open their span in
        # the engine module).
        calls = []
        real = trace_mod.summarize_term

        def counting(term, *args, **kwargs):
            calls.append(term)
            return real(term, *args, **kwargs)

        monkeypatch.setattr(trace_mod, "summarize_term", counting)
        monkeypatch.setattr(engine_mod, "summarize_term", counting)
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
        tracer = Tracer(sample=0.0)
        with tracing(tracer):
            for size in range(1, 21):
                engine.normalize(app(FRONT, queue_term(range(size))))
        assert tracer.spans == []
        assert calls == []

    def test_budget_exhaustion_emits_trace_event(self):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, budget=EvaluationBudget(fuel=2)
        )
        tracer = Tracer()
        with tracing(tracer):
            with pytest.raises(RewriteLimitError):
                engine.normalize(app(FRONT, queue_term(range(8))))
        exhaustion = [
            attributes(e)
            for e in _events(tracer)
            if e["name"] == "budget_exhausted"
        ]
        assert len(exhaustion) == 1
        assert exhaustion[0]["reason"] == "fuel"
        assert exhaustion[0]["subject"]


class TestRuleProfile:
    def test_exact_attribution_from_step_timestamps(self):
        spans = _span(
            ("step", 1.0, {"rule": "fast"}),
            ("step", 2.0, {"rule": "slow"}),
            end=5.0,
        )
        rows = rule_profile(spans)
        by_rule = {row["rule"]: row for row in rows}
        assert by_rule["fast"]["self_s"] == pytest.approx(1.0)
        assert by_rule["slow"]["self_s"] == pytest.approx(3.0)
        assert by_rule["slow"]["share"] == pytest.approx(0.75)
        assert not by_rule["slow"]["estimated"]
        assert rows[0]["rule"] == "slow"  # sorted by self time

    def test_proportional_attribution_is_flagged_estimated(self):
        spans = _span(
            ("firings", 0.5, {"rule": "a", "count": 3}),
            ("firings", 0.5, {"rule": "b", "count": 1}),
            end=4.0,
        )
        by_rule = {row["rule"]: row for row in rule_profile(spans)}
        assert by_rule["a"]["self_s"] == pytest.approx(3.0)
        assert by_rule["b"]["self_s"] == pytest.approx(1.0)
        assert by_rule["a"]["estimated"] and by_rule["b"]["estimated"]

    def test_firings_events_share_their_span_once(self):
        # Several evaluations under one span (a shard worker's chunk)
        # split the span's duration between them; they do not each
        # claim all of it.
        spans = _span(
            ("firings", 1.0, {"rule": "a", "count": 3}),
            ("firings", 2.0, {"rule": "a", "count": 1}),
            ("firings", 2.0, {"rule": "b", "count": 4}),
            end=4.0,
        )
        by_rule = {row["rule"]: row for row in rule_profile(spans)}
        assert by_rule["a"]["firings"] == 4
        assert by_rule["a"]["self_s"] == pytest.approx(2.0)
        assert by_rule["b"]["self_s"] == pytest.approx(2.0)

    def test_unclosed_span_charges_no_interval(self):
        (row,) = rule_profile(_span(("step", 1.0, {"rule": "r"})))
        assert row["firings"] == 1
        assert row["self_s"] == 0.0

    def test_every_rule_gets_a_row_and_the_table_limits_them(self):
        spans = _span(
            *[("firings", 0.5, {"rule": f"r{i}", "count": i + 1})
              for i in range(5)],
            end=1.0,
        )
        rows = rule_profile(spans)
        assert [row["rule"] for row in rows] == ["r4", "r3", "r2", "r1", "r0"]
        table = format_rule_profile(rows, limit=3)
        assert "r2" in table and "r1" not in table


class TestProfileDiff:
    @staticmethod
    def _trace(steps):
        """The span records of one span with a step per (rule, ts)
        pair, closed at ts 10."""
        return _span(
            *[("step", ts, {"rule": rule}) for rule, ts in steps], end=10.0
        )

    def test_deltas_are_b_minus_a(self):
        a = self._trace([("r", 0.0), ("r", 2.0)])
        b = self._trace([("r", 0.0), ("r", 2.0), ("r", 4.0)])
        (row,) = profile_diff(a, b)
        assert row["rule"] == "r"
        assert (row["firings_a"], row["firings_b"]) == (2, 3)
        assert row["firings_delta"] == 1
        assert row["self_s_delta"] == pytest.approx(
            row["self_s_b"] - row["self_s_a"]
        )

    def test_one_sided_rules_get_zeros(self):
        a = self._trace([("only-a", 0.0)])
        b = self._trace([("only-b", 0.0)])
        by_rule = {row["rule"]: row for row in profile_diff(a, b)}
        assert by_rule["only-a"]["firings_b"] == 0
        assert by_rule["only-a"]["firings_delta"] == -1
        assert by_rule["only-b"]["firings_a"] == 0
        assert by_rule["only-b"]["firings_delta"] == 1

    def test_sorted_by_biggest_self_time_movement(self):
        a = self._trace([("stable", 0.0), ("mover", 8.0)])
        b = self._trace([("mover", 0.0), ("stable", 8.0)])
        rows = profile_diff(a, b)
        assert rows[0]["rule"] == "mover"

    def test_identical_traces_diff_to_zero(self):
        a = self._trace([("r", 0.0), ("s", 5.0)])
        for row in profile_diff(a, a):
            assert row["firings_delta"] == 0
            assert row["self_s_delta"] == 0.0
