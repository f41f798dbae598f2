"""Tests for the second-stage generated-source (codegen) backend.

The codegen backend must implement exactly the rewrite relation of the
interpreted reference engine — including its *observable accounting*:
per-rule firing counts, steps and fuel.  Tests here exercise its codegen-only
mechanisms (module emission and caching, superinstruction fusion,
ground-RHS folding, the normal-form set) and the equivalences the
optimisations must preserve.
"""

import pytest

from repro.algebra.signature import Operation
from repro.algebra.sorts import BOOLEAN
from repro.algebra.terms import Err, app
from repro.spec.prelude import false_term, item, true_term
from repro.rewriting import (
    CodegenEngine,
    FusionPlan,
    RewriteEngine,
    RewriteLimitError,
    RewriteRule,
    RuleSet,
    codegen_module,
)
from repro.adt.queue import (
    ADD,
    FRONT,
    IS_EMPTY,
    NEW,
    QUEUE_SPEC,
    REMOVE,
    queue_term,
)

QUEUE_RULES = RuleSet.from_specification(QUEUE_SPEC)


def _drain(engine, size):
    term = queue_term(range(size))
    fronts = []
    while True:
        front = engine.normalize(app(FRONT, term))
        if isinstance(front, Err):
            break
        fronts.append(front)
        term = engine.normalize(app(REMOVE, term))
    return fronts


def _firings(engine):
    return dict(engine.stats.firings.ranked())


class TestBackendSelection:
    def test_delegate_built_lazily_and_reused(self):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend="codegen"
        )
        assert engine._codegen is None
        engine.normalize(app(FRONT, queue_term(["a"])))
        delegate = engine._codegen
        assert isinstance(delegate, CodegenEngine)
        engine.normalize(app(FRONT, queue_term(["b"])))
        assert engine._codegen is delegate

    def test_delegate_rebuilt_when_rules_grow(self):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend="codegen"
        )
        engine.normalize(app(FRONT, queue_term(["a"])))
        stale = engine._codegen
        engine.rules.add(
            RewriteRule(
                app(IS_EMPTY, app(NEW)), true_term(), "redundant-extra"
            )
        )
        engine.normalize(app(FRONT, queue_term(["b"])))
        assert engine._codegen is not stale


class TestGeneratedModule:
    def test_source_is_a_real_module(self):
        engine = CodegenEngine(QUEUE_RULES)
        source = engine.source
        assert source.startswith("# second-stage rule module")
        assert "def op_" in source
        compile(source, "<check>", "exec")  # it is genuine Python source

    def test_hot_drain_triple_is_fused(self):
        engine = CodegenEngine(QUEUE_RULES)
        assert "FRONT" in engine.fused_ops
        assert "REMOVE" in engine.fused_ops
        assert "[fused]" in engine.source

    def test_module_cached_by_fingerprint(self):
        first = codegen_module(QUEUE_RULES)
        again = codegen_module(QUEUE_RULES)
        assert first is again
        # A different compiler option is a different module.
        nofuse = codegen_module(QUEUE_RULES, fusion="none")
        assert nofuse is not first
        assert nofuse.fused_ops == frozenset()

    def test_fingerprint_tracks_rule_changes(self):
        grown = RuleSet.from_specification(QUEUE_SPEC)
        base_fp = grown.fingerprint()
        grown.add(
            RewriteRule(
                app(IS_EMPTY, app(NEW)), true_term(), "redundant-extra"
            )
        )
        assert grown.fingerprint() != base_fp
        assert grown.fingerprint() == grown.fingerprint()


class TestFusionEquivalence:
    @pytest.mark.parametrize("cache_size", [4096, 0], ids=["memo", "no-memo"])
    def test_fused_equals_unfused_including_firings(self, cache_size):
        fused = CodegenEngine(QUEUE_RULES, cache_size=cache_size)
        unfused = CodegenEngine(
            QUEUE_RULES, cache_size=cache_size, fusion="none"
        )
        assert _drain(fused, 16) == _drain(unfused, 16)
        assert _firings(fused) == _firings(unfused)
        assert fused.stats.steps == unfused.stats.steps

    def test_profile_driven_plan_covers_the_hot_rules(self):
        profiler = RewriteEngine.for_specification(QUEUE_SPEC)
        _drain(profiler, 12)
        counts = dict(profiler.stats.firings.ranked())
        plan = FusionPlan.from_profile(QUEUE_RULES, counts)
        assert plan.mode == "profile"
        assert plan.allows("FRONT") or plan.allows("REMOVE")
        engine = CodegenEngine(QUEUE_RULES, fusion=plan)
        reference = CodegenEngine(QUEUE_RULES, fusion="none")
        assert _drain(engine, 12) == _drain(reference, 12)
        assert _firings(engine) == _firings(reference)

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="fusion"):
            FusionPlan.coerce("always")


class TestGroundRhsFolding:
    def _flag_rules(self):
        flag = Operation("FLAG", (), BOOLEAN)
        rules = RuleSet.from_specification(QUEUE_SPEC)
        rules.add(
            RewriteRule(
                app(flag),
                app(IS_EMPTY, app(ADD, app(NEW), item("probe"))),
                "ground-rhs",
            )
        )
        return flag, rules

    def test_folded_rule_matches_runtime_normalization(self):
        flag, rules = self._flag_rules()
        interp = RewriteEngine(rules)
        folded = CodegenEngine(rules)
        unfolded = CodegenEngine(rules, fold=False)

        results = {
            "interpreted": interp.normalize(app(flag)),
            "folded": folded.normalize(app(flag)),
            "unfolded": unfolded.normalize(app(flag)),
        }
        assert results["interpreted"] == false_term()
        assert results["folded"] == results["interpreted"]
        assert results["unfolded"] == results["interpreted"]
        # The fold must replay the functions' accounting, not skip it.
        assert _firings(folded) == _firings(interp)
        assert _firings(unfolded) == _firings(interp)
        assert folded.stats.steps == interp.stats.steps

    def test_folded_constant_is_precomputed_in_source(self):
        flag, rules = self._flag_rules()
        folded = CodegenEngine(rules)
        unfolded = CodegenEngine(rules, fold=False)
        # Folding bakes the rule's normal form in as a constant instead
        # of a chain of op calls, so the two modules differ in source.
        assert folded.source != unfolded.source


class TestDriverParity:
    def test_fuel_exhaustion_raises_like_other_backends(self):
        for backend in ("interpreted", "codegen"):
            engine = RewriteEngine.for_specification(
                QUEUE_SPEC, backend=backend
            )
            engine.fuel = 3
            with pytest.raises(RewriteLimitError):
                engine.normalize(app(FRONT, queue_term(list(range(20)))))

    def test_deep_chain_falls_back_without_recursion_error(self):
        # Without fusion the generated functions recurse per rewrite and
        # a deep spine exceeds their depth limit — the driver must land
        # on the interpreted engine, not raise RecursionError.
        engine = RewriteEngine(
            QUEUE_RULES, backend="codegen", fusion="none"
        )
        engine.fuel = 10_000_000
        size = 2000  # far past the generated functions' depth limit
        assert engine.normalize(app(FRONT, queue_term(range(size)))) == item(0)
        assert engine.stats.fallbacks.get("codegen_depth") > 0

    def test_fused_deep_chain_needs_no_fallback(self):
        # Fusion rewrites the hot FRONT/REMOVE recursion into loops, so
        # the same spine drains natively in the generated module.
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        engine.fuel = 10_000_000
        assert engine.normalize(app(FRONT, queue_term(range(2000)))) == item(0)
        assert engine.stats.fallbacks.get("codegen_depth") == 0

    def test_budget_exhaustion_is_an_outcome(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        engine.fuel = 3
        outcome = engine.normalize_outcome(
            app(FRONT, queue_term(list(range(20))))
        )
        assert not outcome.ok
        assert outcome.reason == "fuel"

    def test_normal_form_set_survives_cache_clear_semantics(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        q = queue_term(["a", "b"])
        assert engine.normalize(app(FRONT, q)) == item("a")
        engine.clear_cache()
        assert engine.normalize(app(FRONT, q)) == item("a")

    def test_stats_flow_into_engine_stats(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        engine.normalize(app(FRONT, queue_term(["a", "b"])))
        stats = engine.stats
        assert stats.steps > 0
        assert stats.rule_firings > 0
        assert sum(stats.firings_by_rule.values()) == stats.rule_firings


class TestMemoBound:
    """``max_memo_entries`` caps the codegen memos *in total*: the
    per-operation dicts share one entry count, not one cap each."""

    CAP = 64

    def test_summed_memos_stay_within_the_budget(self):
        from repro.adt.symboltable import SYMBOLTABLE_SPEC as spec
        from repro.runtime import EvaluationBudget
        from repro.spec.prelude import attributes, identifier

        op = spec.operation
        init, enter, leave = op("INIT"), op("ENTERBLOCK"), op("LEAVEBLOCK")
        add, inblock, retrieve = op("ADD"), op("IS_INBLOCK?"), op("RETRIEVE")
        table = app(init)
        subjects = []
        for i in range(60):
            table = app(add, table, identifier(f"x{i % 7}"), attributes(i))
            if i % 5 == 4:
                table = app(enter, table)
            name = identifier(f"x{(i * 3) % 11}")
            # LEAVEBLOCK and RETRIEVE recurse through the fused loops and
            # store every accumulator frame on the way out.
            subjects += [
                app(leave, table),
                app(inblock, table, name),
                app(retrieve, table, name),
            ]
        rules = RuleSet.from_specification(spec)
        budget = EvaluationBudget(max_memo_entries=self.CAP)
        reference = RewriteEngine(rules, budget=budget)
        engine = CodegenEngine(rules, budget=budget)
        unbounded = CodegenEngine(rules)
        assert engine.cache_size == self.CAP
        memos = engine.inst.memos
        assert len(engine.module.fused_ops) >= 2
        for subject in subjects:
            assert engine.normalize(subject) == reference.normalize(subject)
            assert sum(len(memo) for memo in memos.values()) <= self.CAP
            unbounded.normalize(subject)
        # The workload is big enough to matter: left unbounded, at least
        # three operations' memos together pass the budget.
        live = [len(memo) for memo in unbounded.inst.memos.values() if memo]
        assert len(live) >= 3 and sum(live) > self.CAP
        assert engine.stats.cache_hits > 0
        engine.clear_cache()
        assert all(not memo for memo in memos.values())
        assert engine.inst.ns["CN"] == 0
