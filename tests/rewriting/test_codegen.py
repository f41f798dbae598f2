"""Tests for the codegen backend's compiled rules as a ``RewriteEngine``
runs them.

These pin the engine-facing contract of the compiled rules from the
codegen side: they are built on first use and rebuilt when a rule set
grows by a ground rule, the engine's ``fuel`` bounds them exactly as it
bounds the interpreted backend, a deep ``FRONT`` spine lands on the
interpreted fallback, and their counters flow into ``engine.stats``.
Agreement with the interpreted engine, the generated module and the
memo bound are tested in ``test_compile.py``.
"""

import pytest

from repro.algebra.terms import app
from repro.spec.prelude import item, true_term
from repro.rewriting import (
    CodegenRules,
    RewriteEngine,
    RewriteLimitError,
    RewriteRule,
    RuleSet,
)
from repro.adt.queue import FRONT, IS_EMPTY, NEW, QUEUE_SPEC, queue_term
from repro.runtime import EvaluationBudget

QUEUE_RULES = RuleSet.from_specification(QUEUE_SPEC)


class TestBackendSelection:
    def test_delegate_built_lazily_and_reused(self):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend="codegen"
        )
        assert engine._compiled is None
        engine.normalize(app(FRONT, queue_term(["a"])))
        delegate = engine._compiled
        assert isinstance(delegate, CodegenRules)
        engine.normalize(app(FRONT, queue_term(["b"])))
        assert engine._compiled is delegate

    def test_delegate_rebuilt_when_rules_grow(self):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend="codegen"
        )
        engine.normalize(app(FRONT, queue_term(["a"])))
        stale = engine._compiled
        engine.rules.add(
            RewriteRule(
                app(IS_EMPTY, app(NEW)), true_term(), "redundant-extra"
            )
        )
        engine.normalize(app(FRONT, queue_term(["b"])))
        assert engine._compiled is not stale


class TestDriverParity:
    def test_fuel_exhaustion_raises_like_other_backends(self):
        for backend in ("interpreted", "codegen"):
            engine = RewriteEngine.for_specification(
                QUEUE_SPEC, backend=backend, budget=EvaluationBudget(fuel=3)
            )
            with pytest.raises(RewriteLimitError):
                engine.normalize(app(FRONT, queue_term(list(range(20)))))

    def test_deep_chain_falls_back_without_recursion_error(self):
        # The generated functions recurse once per rewrite, so a deep
        # spine exceeds their depth limit — the engine must land on the
        # interpreted fallback, not raise RecursionError.
        engine = RewriteEngine(
            QUEUE_RULES,
            backend="codegen",
            budget=EvaluationBudget(fuel=10_000_000),
        )
        size = 2000  # far past the generated functions' depth limit
        assert engine.normalize(app(FRONT, queue_term(range(size)))) == item(0)
        assert engine.stats.fallbacks.get("codegen_depth") > 0

    def test_stats_flow_into_engine_stats(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        engine.normalize(app(FRONT, queue_term(["a", "b"])))
        stats = engine.stats
        assert stats.steps > 0
        assert stats.rule_firings > 0
        assert sum(stats.firings_by_rule.values()) == stats.rule_firings
