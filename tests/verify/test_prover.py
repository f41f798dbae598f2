"""Unit tests for the equational prover."""

import pytest

from repro.algebra.signature import Operation
from repro.algebra.sorts import BOOLEAN, Sort
from repro.algebra.terms import App, app, ite, lit, var
from repro.spec.prelude import boolean_term, false_term, true_term
from repro.rewriting.rules import RewriteRule, RuleSet
from repro.runtime import EvaluationBudget
from repro.verify.prover import (
    EquationalProver,
    Fact,
    ProverEngine,
    replace_constant,
)
from repro.verify.skolem import fresh_constant

T = Sort("T")
E = Sort("E")

MK = Operation("mk", (), T)
GROW = Operation("grow", (T, E), T)
SHRINK = Operation("shrink", (T,), T)
PEEK = Operation("peek", (T,), E)
FLAG = Operation("flag?", (T,), BOOLEAN)

t = var("t", T)
e = var("e", E)

BASIC_RULES = RuleSet(
    [
        RewriteRule(app(SHRINK, app(GROW, t, e)), t),
        RewriteRule(app(PEEK, app(GROW, t, e)), e),
        RewriteRule(app(FLAG, app(MK)), true_term()),
        RewriteRule(app(FLAG, app(GROW, t, e)), false_term()),
    ]
)


class TestProverEngine:
    def test_conditional_lifting(self):
        engine = ProverEngine(BASIC_RULES)
        constant = fresh_constant("c", BOOLEAN)
        cond = app(FLAG, fresh_constant("t", T))
        lifted = engine.simplify(
            app(PEEK, app(GROW, ite(cond, app(MK), app(MK)), e))
        )
        # grow's first argument has equal branches, so the Ite collapses
        # before lifting is even needed.
        assert lifted == e

    def test_lifting_distributes_over_distinct_branches(self):
        engine = ProverEngine(BASIC_RULES)
        cond = app(FLAG, fresh_constant("t", T))
        term = app(
            PEEK,
            ite(cond, app(GROW, app(MK), lit("a", E)), app(GROW, app(MK), lit("b", E))),
        )
        result = engine.simplify(term)
        # peek pushed into both branches and reduced.
        assert str(result) == f"if {cond} then 'a' else 'b'"

    def test_guarded_unfolding_blocks_bare_variable_recursion(self):
        drain = Operation("drain", (T,), T)
        rules = RuleSet(
            [
                RewriteRule(
                    app(drain, t),
                    ite(app(FLAG, t), t, app(drain, app(SHRINK, t))),
                ),
                RewriteRule(app(FLAG, app(MK)), true_term()),
                RewriteRule(app(FLAG, app(GROW, t, e)), false_term()),
                RewriteRule(app(SHRINK, app(GROW, t, e)), t),
            ]
        )
        engine = ProverEngine(rules, budget=EvaluationBudget(fuel=5_000))
        stuck = fresh_constant("s", T)
        # The guard FLAG(s$..) never decides, so drain must not unfold.
        result = engine.simplify(app(drain, stuck))
        assert result == app(drain, stuck)

    def test_guarded_unfolding_proceeds_on_constructors(self):
        drain = Operation("drain", (T,), T)
        rules = RuleSet(
            [
                RewriteRule(
                    app(drain, t),
                    ite(app(FLAG, t), t, app(drain, app(SHRINK, t))),
                ),
                RewriteRule(app(FLAG, app(MK)), true_term()),
                RewriteRule(app(FLAG, app(GROW, t, e)), false_term()),
                RewriteRule(app(SHRINK, app(GROW, t, e)), t),
            ]
        )
        engine = ProverEngine(rules, budget=EvaluationBudget(fuel=5_000))
        value = app(GROW, app(GROW, app(MK), lit("a", E)), lit("b", E))
        assert engine.simplify(app(drain, value)) == app(MK)


class TestReplaceConstant:
    def test_replaces_everywhere(self):
        constant = fresh_constant("c", T)
        term = app(GROW, constant, lit("a", E))
        replaced = replace_constant(term, constant, app(MK))
        assert replaced == app(GROW, app(MK), lit("a", E))

    def test_other_nodes_untouched(self):
        constant = fresh_constant("c", T)
        other = fresh_constant("d", T)
        term = app(GROW, other, lit("a", E))
        assert replace_constant(term, constant, app(MK)) == term


class TestProve:
    def _prover(self, **kwargs):
        return EquationalProver(
            BASIC_RULES, constructors={T: (MK, GROW)}, **kwargs
        )

    def test_trivial_equality(self):
        prover = self._prover()
        constant = fresh_constant("x", T)
        result = prover.prove(constant, constant)
        assert result.proved

    def test_rewriting_proof(self):
        prover = self._prover()
        constant = fresh_constant("x", T)
        lhs = app(SHRINK, app(GROW, constant, lit("a", E)))
        result = prover.prove(lhs, constant)
        assert result.proved

    def test_failure_reports_residual(self):
        prover = self._prover(max_constructor_splits=0)
        left = fresh_constant("x", T)
        right = fresh_constant("y", T)
        result = prover.prove(left, right)
        assert not result.proved
        assert result.residual == (left, right)

    def test_case_split_on_condition(self):
        prover = self._prover()
        constant = fresh_constant("x", T)
        cond = app(FLAG, constant)
        # if FLAG(x) then a else a ... written with distinct but
        # provably-equal branches after a split.
        lhs = ite(cond, lit("a", E), lit("a", E))
        assert prover.prove(lhs, lit("a", E)).proved

    def test_split_facts_used_in_both_sides(self):
        prover = self._prover()
        constant = fresh_constant("x", T)
        cond = app(FLAG, constant)
        lhs = ite(cond, lit("a", E), lit("b", E))
        rhs = ite(cond, lit("a", E), lit("b", E))
        assert prover.prove(lhs, rhs).proved

    def test_constructor_split_resolves_observer(self):
        # FLAG(x) = FLAG(x) is trivial; instead prove something needing
        # the case analysis: peek(grow(x, 'a')) vs 'a' is direct, so use
        # flag?(x) = if flag?(x) then true else false  — needs the split
        # identity if c then true else false == c.
        prover = self._prover()
        constant = fresh_constant("x", T)
        lhs = app(FLAG, constant)
        rhs = ite(app(FLAG, constant), true_term(), false_term())
        assert prover.prove(lhs, rhs).proved

    def test_extra_rules_available(self):
        prover = self._prover()
        constant = fresh_constant("x", T)
        hypothesis = RewriteRule(app(PEEK, constant), lit("h", E))
        result = prover.prove(
            app(PEEK, constant), lit("h", E), extra_rules=[hypothesis]
        )
        assert result.proved

    def test_facts_constrain_proof(self):
        prover = self._prover(max_constructor_splits=0)
        constant = fresh_constant("x", T)
        fact = Fact(app(FLAG, constant), True)
        lhs = ite(app(FLAG, constant), lit("a", E), lit("b", E))
        result = prover.prove(lhs, lit("a", E), facts=[fact])
        assert result.proved

    def test_vacuous_case_skipped(self):
        # With FLAG(x)=false assumed, the constructor case x=mk
        # contradicts FLAG(mk)=true and must be skipped as vacuous.
        # peek(x) = 'a' is unprovable in the surviving grow case, so the
        # proof fails — but only after the mk case was discharged
        # vacuously rather than attempted.
        prover = self._prover()
        constant = fresh_constant("x", T)
        fact = Fact(app(FLAG, constant), False)
        result = prover.prove(
            app(PEEK, constant), lit("a", E), facts=[fact]
        )
        assert not result.proved
        assert any("vacuous" in str(step) for step in result.transcript)
        # The failing case is the grow case, not mk.
        assert any("= grow" in str(step) for step in result.transcript)

    def test_transcript_records_splits(self):
        prover = self._prover()
        constant = fresh_constant("x", T)
        rhs = ite(app(FLAG, constant), true_term(), false_term())
        result = prover.prove(app(FLAG, constant), rhs)
        assert any("case split" in str(s) for s in result.transcript)

    def test_budget_exhaustion_fails_gracefully(self):
        prover = self._prover(max_fact_splits=0, max_constructor_splits=0)
        constant = fresh_constant("x", T)
        rhs = ite(app(FLAG, constant), true_term(), false_term())
        result = prover.prove(app(FLAG, constant), rhs)
        assert not result.proved


class TestFactsDoNotLeak:
    """Facts live in an overlay over the prover's base index: a proof
    under facts leaves the base rules, and engines built on them, as
    they were."""

    def _setup(self):
        rules = RuleSet(list(BASIC_RULES))
        prover = EquationalProver(rules, constructors={T: (MK, GROW)})
        constant = fresh_constant("x", T)
        condition = app(FLAG, constant)
        goal = (ite(condition, lit("a", E), lit("b", E)), lit("a", E))
        return rules, prover, condition, goal

    def test_base_keeps_length_and_candidates(self):
        rules, prover, condition, goal = self._setup()
        probes = [condition, app(FLAG, app(MK)), app(PEEK, app(GROW, app(MK), lit("a", E)))]
        length = len(rules)
        before = [tuple(rules.candidates(term)) for term in probes]
        assert prover.prove(*goal, facts=[Fact(condition, True)]).proved
        assert len(rules) == length
        assert [tuple(rules.candidates(term)) for term in probes] == before
        assert prover.rules is rules

    def test_fresh_engine_does_not_rewrite_the_condition(self):
        rules, prover, condition, goal = self._setup()
        assert prover.prove(*goal, facts=[Fact(condition, True)]).proved
        assert ProverEngine(rules).simplify(condition) == condition

    def test_goal_needing_the_fact_fails_without_it(self):
        rules, prover, condition, goal = self._setup()
        assert prover.prove(*goal, facts=[Fact(condition, True)]).proved
        # Same prover, so any engine it kept is reused: the goal still
        # needs the fact.  (Splitting x by constructor would decide the
        # condition, so that is switched off.)
        prover.max_constructor_splits = 0
        assert not prover.prove(*goal).proved

    def test_fact_overlay_matches_after_base(self):
        rules, prover, condition, _ = self._setup()
        fact = Fact(app(FLAG, app(MK)), False)
        engine = prover._engine((), [fact])
        # The base rule FLAG(mk) -> true comes first, as in a copy of the
        # base extended by the fact's rule.
        assert list(engine.rules) == list(rules) + [fact.as_rule()]
        assert engine.rules.candidates(app(FLAG, app(MK)))[-1] == fact.as_rule()
        assert engine.simplify(app(FLAG, app(MK))) == true_term()


class TestSimplifyMemo:
    def test_hits_are_counted(self):
        engine = ProverEngine(RuleSet(list(BASIC_RULES)))
        term = app(PEEK, app(GROW, fresh_constant("t", T), lit("a", E)))
        assert engine.simplify(term) == lit("a", E)
        probes = engine.stats.simplify_probes
        hits = engine.stats.simplify_hits
        assert engine.simplify(term) == lit("a", E)
        assert engine.stats.simplify_probes == probes + 1
        assert engine.stats.simplify_hits == hits + 1
        counters = engine.stats.registry.snapshot()["counters"]
        assert counters["engine.simplify_memo_hits"] == hits + 1
        assert counters["engine.simplify_memo_probes"] == probes + 1

    def test_hit_costs_no_fuel(self):
        engine = ProverEngine(RuleSet(list(BASIC_RULES)))
        term = app(PEEK, app(GROW, fresh_constant("t", T), lit("a", E)))
        engine.simplify(term)
        steps = engine.stats.steps
        engine.simplify(term)
        assert engine.stats.steps == steps

    def test_memo_is_bounded_by_cache_size(self):
        engine = ProverEngine(RuleSet(list(BASIC_RULES)), cache_size=3)
        for index in range(10):
            engine.simplify(app(PEEK, app(GROW, app(MK), lit(index, E))))
        assert len(engine._simplified) == 3

    def test_cache_size_zero_disables_the_memo(self):
        engine = ProverEngine(RuleSet(list(BASIC_RULES)), cache_size=0)
        term = app(PEEK, app(GROW, app(MK), lit("a", E)))
        engine.simplify(term)
        engine.simplify(term)
        assert engine.stats.simplify_probes == 0
        assert not engine._simplified

    def test_clear_cache_empties_the_memo(self):
        engine = ProverEngine(RuleSet(list(BASIC_RULES)))
        engine.simplify(app(PEEK, app(GROW, app(MK), lit("a", E))))
        engine.clear_cache()
        assert not engine._simplified

    def test_memo_keeps_the_depth_headroom(self):
        # FRONT(ADD^n(NEW)) recurses twice per level (the FRONT rule's
        # conditional, then FRONT again); a memo wrapper around the
        # simplifier would double that and fail here with reason "depth".
        from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term

        engine = ProverEngine(RuleSet.from_specification(QUEUE_SPEC))
        queue = queue_term([str(index) for index in range(350)])
        assert engine.simplify(app(FRONT, queue)) == engine.normalize(
            app(FRONT, queue)
        )
