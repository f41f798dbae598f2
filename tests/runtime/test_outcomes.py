"""Tests for structured outcomes and the resilient evaluation APIs.

Covers the :class:`~repro.runtime.Outcome` value itself, then the
engine-level ``normalize_outcome`` / ``normalize_many_outcomes`` on both
backends: normal forms, the algebra's ``error`` as a *defined* result,
fuel truncation vs diagnosed divergence, and fault isolation in batches.
"""

from __future__ import annotations

import pytest

from repro.adt.queue import ADD, FRONT, QUEUE_SPEC, new, queue_term
from repro.algebra.terms import App, Err, Lit
from repro.rewriting import RewriteEngine
from repro.rewriting.engine import RewriteLimitError
from repro.runtime import (
    DIVERGED,
    ERROR_VALUE,
    NORMALIZED,
    TRUNCATED,
    EvaluationBudget,
    Outcome,
)
from repro.spec.parser import parse_specification
from repro.spec.prelude import item

#: A specification whose rewrite relation cycles: PING and PONG rewrite
#: to each other forever, so normalisation can never terminate and the
#: divergence diagnosis has a genuine period-2 cycle to find.
CYCLE_SPEC_TEXT = """
type P

operations
  MKP:  -> P
  PING: P -> P
  PONG: P -> P

vars
  p: P

axioms
  (C1) PING(p) = PONG(p)
  (C2) PONG(p) = PING(p)
"""

CYCLE_SPEC = parse_specification(CYCLE_SPEC_TEXT)

BACKENDS = ("interpreted", "codegen")


def _cycling_term():
    mkp = App(CYCLE_SPEC.operation("MKP"), ())
    return App(CYCLE_SPEC.operation("PING"), (mkp,))


class TestOutcomeValue:
    def test_normal_form_classifies_as_normalized(self):
        term = Lit("a", QUEUE_SPEC.operation("FRONT").range)
        outcome = Outcome.of_normal_form(term)
        assert outcome.status == NORMALIZED
        assert outcome.ok
        assert outcome.value() is term

    def test_error_term_classifies_as_error_value(self):
        err = Err(QUEUE_SPEC.type_of_interest)
        outcome = Outcome.of_normal_form(err)
        assert outcome.status == ERROR_VALUE
        assert outcome.ok  # a *defined* result in the paper's semantics
        assert outcome.value() is err

    def test_from_limit_maps_cycles_to_diverged(self):
        ping = _cycling_term()
        exc = RewriteLimitError(ping, 100, reason="cycle", trace=(ping,))
        outcome = Outcome.from_limit(exc)
        assert outcome.status == DIVERGED
        assert outcome.reason == "cycle"
        assert outcome.trace == (ping,)
        assert not outcome.ok

    def test_from_limit_maps_fuel_to_truncated(self):
        exc = RewriteLimitError(_cycling_term(), 100, reason="fuel")
        outcome = Outcome.from_limit(exc)
        assert outcome.status == TRUNCATED
        assert outcome.reason == "fuel"

    def test_value_raises_for_non_ok(self):
        outcome = Outcome.of_fault(None, RuntimeError("boom"))
        assert outcome.status == TRUNCATED
        assert outcome.reason == "fault"
        assert "boom" in outcome.detail
        with pytest.raises(ValueError):
            outcome.value()


@pytest.mark.parametrize("backend", BACKENDS)
class TestEngineOutcomes:
    def test_normal_form(self, backend):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
        outcome = engine.normalize_outcome(
            App(FRONT, (queue_term(["a", "b"]),))
        )
        assert outcome.status == NORMALIZED
        assert outcome.value() == item("a")

    def test_error_value_is_ok(self, backend):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
        outcome = engine.normalize_outcome(App(FRONT, (new(),)))
        assert outcome.status == ERROR_VALUE
        assert isinstance(outcome.term, Err)
        assert outcome.ok

    def test_fuel_exhaustion_truncates(self, backend):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend=backend, budget=EvaluationBudget(fuel=20)
        )
        outcome = engine.normalize_outcome(
            App(FRONT, (queue_term(range(200)),))
        )
        assert outcome.status == TRUNCATED
        assert outcome.reason == "fuel"

    def test_cycle_diagnosed_as_diverged_with_trace(self, backend):
        engine = RewriteEngine.for_specification(
            CYCLE_SPEC, backend=backend, budget=EvaluationBudget(fuel=2_000)
        )
        outcome = engine.normalize_outcome(_cycling_term())
        assert outcome.status == DIVERGED
        assert outcome.reason == "cycle"
        assert 1 <= len(outcome.trace) <= 2
        heads = {t.op.name for t in outcome.trace}
        assert heads <= {"PING", "PONG"}

    def test_cycle_raises_with_reason_through_strict_api(self, backend):
        engine = RewriteEngine.for_specification(
            CYCLE_SPEC, backend=backend, budget=EvaluationBudget(fuel=2_000)
        )
        with pytest.raises(RewriteLimitError) as excinfo:
            engine.normalize(_cycling_term())
        assert excinfo.value.reason == "cycle"
        assert excinfo.value.trace
        assert "diverges" in str(excinfo.value)

    def test_batch_isolates_pathological_terms(self, backend):
        engine = RewriteEngine.for_specification(
            CYCLE_SPEC, backend=backend, budget=EvaluationBudget(fuel=2_000)
        )
        mkp = App(CYCLE_SPEC.operation("MKP"), ())
        outcomes = engine.normalize_many_outcomes(
            [mkp, _cycling_term(), mkp]
        )
        assert [o.status for o in outcomes] == [
            NORMALIZED,
            DIVERGED,
            NORMALIZED,
        ]
        assert outcomes[0].value() is mkp

    def test_per_call_budget_overrides_engine_default(self, backend):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
        term = App(FRONT, (queue_term(range(50)),))
        tight = engine.normalize_outcome(term, EvaluationBudget(fuel=5))
        assert tight.status == TRUNCATED
        roomy = engine.normalize_outcome(term)
        assert roomy.status == NORMALIZED
