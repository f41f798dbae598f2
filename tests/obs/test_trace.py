"""Tests for the span tracer (:mod:`repro.obs.trace`) and the trace
analyses over OTLP span records (:mod:`repro.obs.profile`)."""

from __future__ import annotations

import json

import pytest

from repro.algebra.terms import app
from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term
from repro.obs import trace as trace_mod
from repro.obs.otlp import read_otlp_file, read_otlp_spans, to_otlp
from repro.obs.profile import firing_counts, profile_diff, rule_profile
from repro.obs.trace import (
    Tracer,
    install,
    maybe_span,
    rule_id,
    tracing,
)
from repro.report import format_rule_profile
from repro.rewriting import RewriteEngine
from repro.rewriting import engine as engine_mod
from repro.rewriting.engine import RewriteLimitError
from repro.runtime import EvaluationBudget


def _spans(events: list[dict]) -> list[dict]:
    """The OTLP span records of a tracer's events — the one input
    every trace analysis reads."""
    return read_otlp_spans(to_otlp(events, "ab" * 16))


class TestSpans:
    def test_span_start_end_pairing_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", backend="interpreted") as span_id:
            assert span_id == 1
        start, end = tracer.events
        assert start["ev"] == "span_start"
        assert start["name"] == "outer"
        assert start["backend"] == "interpreted"
        assert "parent" not in start
        assert end["ev"] == "span_end"
        assert end["span"] == start["span"] == span_id
        assert end["dur_us"] >= 0

    def test_nested_spans_carry_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer_id:
            with tracer.span("inner") as inner_id:
                pass
        inner_start = next(
            e
            for e in tracer.events
            if e["ev"] == "span_start" and e["name"] == "inner"
        )
        assert inner_start["parent"] == outer_id
        assert inner_start["span"] == inner_id != outer_id

    def test_point_events_attach_to_the_open_span(self):
        tracer = Tracer()
        tracer.event("orphan")
        with tracer.span("s") as span_id:
            tracer.event("fault", site="x")
        orphan, _, fault, _ = tracer.events
        assert "span" not in orphan
        assert fault["span"] == span_id
        assert fault["site"] == "x"


class TestSampling:
    def test_sample_zero_records_nothing(self):
        tracer = Tracer(sample=0.0)
        with tracer.span("top"):
            with tracer.span("nested"):
                tracer.event("fault")
        assert tracer.events == []

    def test_sample_half_records_alternate_top_level_spans(self):
        tracer = Tracer(sample=0.5)
        for _ in range(4):
            with tracer.span("top"):
                tracer.event("tick")
        names = [e["ev"] for e in tracer.events]
        # Credit accumulation: spans 2 and 4 are recorded.
        assert names == ["span_start", "tick", "span_end"] * 2

    def test_unsampled_span_mutes_its_subtree_only(self):
        tracer = Tracer(sample=0.5)
        with tracer.span("first"):  # credit 0.5: unsampled
            tracer.event("hidden")
        with tracer.span("second"):  # credit 1.0: recorded
            tracer.event("visible")
        events = [e for e in tracer.events if e["ev"] == "visible"]
        assert len(events) == 1
        assert not any(e["ev"] == "hidden" for e in tracer.events)

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
        assert [e["ev"] for e in tracer.events] == ["span_start", "span_end"]


class TestFiringEvents:
    def test_firing_counts_folds_steps_and_aggregates(self):
        events = [
            {"ev": "span_start", "span": 1, "name": "s", "ts": 0.0},
            {"ev": "step", "span": 1, "rule": "r1", "ts": 0.0},
            {"ev": "step", "span": 1, "rule": "r1", "ts": 0.1},
            {"ev": "firings", "span": 1, "counts": {"r1": 3, "r2": 5},
             "ts": 0.2},
            {"ev": "span_end", "span": 1, "ts": 0.3},
        ]
        assert firing_counts(_spans(events)) == {"r1": 5, "r2": 5}

    def test_empty_firings_not_emitted(self):
        tracer = Tracer()
        tracer.firings({})
        assert tracer.events == []

    def test_trace_file_reads_back_the_live_analyses(self, tmp_path):
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        tracer = Tracer()
        with tracing(tracer):
            engine.normalize(app(FRONT, queue_term(range(5))))
        live = to_otlp(tracer.events, tracer.trace_id, tracer.span_hex)
        path = tmp_path / "trace.otlp.json"
        path.write_text(json.dumps(live))
        (read_back,) = read_otlp_file(str(path))
        spans = read_otlp_spans(read_back)
        assert firing_counts(spans) == firing_counts(read_otlp_spans(live))
        assert rule_profile(spans) == rule_profile(read_otlp_spans(live))


class TestEngineIntegration:
    def test_interpreted_steps_match_registry_family(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        tracer = Tracer()
        with tracing(tracer):
            engine.normalize(app(FRONT, queue_term(range(5))))
        traced = firing_counts(_spans(tracer.events))
        registry = {
            rule_id(rule): count
            for rule, count in engine.stats.firings.counts.items()
        }
        assert traced == registry
        assert sum(traced.values()) == engine.stats.rule_firings
        step = next(e for e in tracer.events if e["ev"] == "step")
        assert "subject" in step and "span" in step

    def test_compiled_firings_match_registry_family(self):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend="codegen"
        )
        tracer = Tracer()
        with tracing(tracer):
            engine.normalize(app(FRONT, queue_term(range(5))))
        traced = firing_counts(_spans(tracer.events))
        registry = {
            rule_id(rule): count
            for rule, count in engine.stats.firings.counts.items()
        }
        assert traced == registry
        kinds = [e["ev"] for e in tracer.events]
        assert kinds == ["span_start", "firings", "span_end"]
        assert tracer.events[0]["backend"] == "codegen"

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
        assert tracer.events == []
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
            e for e in tracer.events if e["ev"] == "budget_exhausted"
        ]
        assert len(exhaustion) == 1
        assert exhaustion[0]["reason"] == "fuel"
        assert exhaustion[0]["subject"]


class TestRuleProfile:
    def test_exact_attribution_from_step_timestamps(self):
        events = [
            {"ev": "span_start", "span": 1, "name": "s", "ts": 0.0},
            {"ev": "step", "span": 1, "rule": "fast", "ts": 1.0},
            {"ev": "step", "span": 1, "rule": "slow", "ts": 2.0},
            {"ev": "span_end", "span": 1, "name": "s", "ts": 5.0,
             "dur_us": 5e6},
        ]
        rows = rule_profile(_spans(events))
        by_rule = {row["rule"]: row for row in rows}
        assert by_rule["fast"]["self_s"] == pytest.approx(1.0)
        assert by_rule["slow"]["self_s"] == pytest.approx(3.0)
        assert by_rule["slow"]["share"] == pytest.approx(0.75)
        assert not by_rule["slow"]["estimated"]
        assert rows[0]["rule"] == "slow"  # sorted by self time

    def test_proportional_attribution_is_flagged_estimated(self):
        events = [
            {"ev": "span_start", "span": 1, "name": "s", "ts": 0.0},
            {"ev": "firings", "span": 1, "counts": {"a": 3, "b": 1},
             "ts": 0.5},
            {"ev": "span_end", "span": 1, "name": "s", "ts": 4.0,
             "dur_us": 4e6},
        ]
        by_rule = {row["rule"]: row for row in rule_profile(_spans(events))}
        assert by_rule["a"]["self_s"] == pytest.approx(3.0)
        assert by_rule["b"]["self_s"] == pytest.approx(1.0)
        assert by_rule["a"]["estimated"] and by_rule["b"]["estimated"]

    def test_firings_events_share_their_span_once(self):
        # Several evaluations under one span (a shard worker's chunk)
        # split the span's duration between them; they do not each
        # claim all of it.
        events = [
            {"ev": "span_start", "span": 1, "name": "s", "ts": 0.0},
            {"ev": "firings", "span": 1, "counts": {"a": 3}, "ts": 1.0},
            {"ev": "firings", "span": 1, "counts": {"a": 1, "b": 4},
             "ts": 2.0},
            {"ev": "span_end", "span": 1, "name": "s", "ts": 4.0},
        ]
        by_rule = {row["rule"]: row for row in rule_profile(_spans(events))}
        assert by_rule["a"]["firings"] == 4
        assert by_rule["a"]["self_s"] == pytest.approx(2.0)
        assert by_rule["b"]["self_s"] == pytest.approx(2.0)

    def test_unclosed_span_charges_no_interval(self):
        events = [
            {"ev": "span_start", "span": 1, "name": "s", "ts": 0.0},
            {"ev": "step", "span": 1, "rule": "r", "ts": 1.0},
        ]
        (row,) = rule_profile(_spans(events))
        assert row["firings"] == 1
        assert row["self_s"] == 0.0

    def test_every_rule_gets_a_row_and_the_table_limits_them(self):
        events = [
            {"ev": "span_start", "span": 1, "name": "s", "ts": 0.0},
            {"ev": "firings", "span": 1,
             "counts": {f"r{i}": i + 1 for i in range(5)}, "ts": 0.5},
            {"ev": "span_end", "span": 1, "name": "s", "ts": 1.0,
             "dur_us": 1e6},
        ]
        rows = rule_profile(_spans(events))
        assert [row["rule"] for row in rows] == ["r4", "r3", "r2", "r1", "r0"]
        table = format_rule_profile(rows, limit=3)
        assert "r2" in table and "r1" not in table


class TestProfileDiff:
    @staticmethod
    def _trace(steps):
        """The span records of one span with a step per (rule, ts)
        pair, closed at ts 10."""
        events = [{"ev": "span_start", "span": 1, "name": "s", "ts": 0.0}]
        events.extend(
            {"ev": "step", "span": 1, "rule": rule, "ts": ts}
            for rule, ts in steps
        )
        events.append(
            {"ev": "span_end", "span": 1, "name": "s", "ts": 10.0,
             "dur_us": 10e6}
        )
        return _spans(events)

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
