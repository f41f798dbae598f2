"""Unit tests for the rewrite engine."""

import sys

import pytest

from repro.algebra.terms import App, Err, Ite, Lit, app, err, ite, var
from repro.spec.parser import parse_specification
from repro.spec.prelude import (
    boolean_term,
    false_term,
    identifier,
    item,
    true_term,
)
from repro.rewriting import (
    RewriteEngine,
    RewriteLimitError,
    RuleSet,
)
from repro.adt.array import ARRAY_SPEC
from repro.adt.knowlist import KNOWLIST_SPEC
from repro.adt.queue import ADD, FRONT, IS_EMPTY, NEW, QUEUE_SPEC, REMOVE, queue_term
from repro.adt.stack import STACK_SPEC
from repro.adt.symboltable import SYMBOLTABLE_SPEC
from repro.algebra.matching import match_bindings
from repro.runtime import EvaluationBudget
from repro.testing.termgen import GroundTermEnumerator, prefix


PAPER_SPECS = (QUEUE_SPEC, STACK_SPEC, ARRAY_SPEC, SYMBOLTABLE_SPEC, KNOWLIST_SPEC)


def _first_match(rules, subject):
    """The first rule in ``rules`` whose left-hand side matches."""
    for rule in rules:
        if match_bindings(rule.lhs, subject) is not None:
            return rule
    return None


class TestQueueEvaluation:
    """The paper's Queue axioms drive correct FIFO behaviour."""

    def test_front_of_singleton(self, queue_engine):
        assert queue_engine.normalize(app(FRONT, queue_term(["a"]))) == item("a")

    def test_front_is_oldest(self, queue_engine):
        term = app(FRONT, queue_term(["a", "b", "c"]))
        assert queue_engine.normalize(term) == item("a")

    def test_remove_drops_oldest(self, queue_engine):
        term = app(REMOVE, queue_term(["a", "b", "c"]))
        assert queue_engine.normalize(term) == queue_term(["b", "c"])

    def test_is_empty(self, queue_engine):
        assert queue_engine.normalize(app(IS_EMPTY, queue_term([]))) == true_term()
        assert (
            queue_engine.normalize(app(IS_EMPTY, queue_term(["a"])))
            == false_term()
        )

    def test_front_of_empty_is_error(self, queue_engine):
        result = queue_engine.normalize(app(FRONT, queue_term([])))
        assert isinstance(result, Err)

    def test_remove_of_empty_is_error(self, queue_engine):
        result = queue_engine.normalize(app(REMOVE, queue_term([])))
        assert isinstance(result, Err)

    def test_fifo_drain_order(self, queue_engine):
        values = ["p", "q", "r", "s"]
        term = queue_term(values)
        seen = []
        for _ in values:
            front = queue_engine.normalize(app(FRONT, term))
            seen.append(front.value)  # type: ignore[union-attr]
            term = queue_engine.normalize(app(REMOVE, term))
        assert seen == values

    def test_normal_form_is_constructor_only(self, queue_engine):
        term = queue_engine.normalize(app(REMOVE, queue_term(["a", "b"])))
        assert term.operations() <= {NEW, ADD}


class TestErrorStrictness:
    def test_error_argument_poisons_application(self, queue_engine):
        poisoned = app(ADD, err(QUEUE_SPEC.type_of_interest), item("a"))
        result = queue_engine.normalize(app(FRONT, poisoned))
        assert isinstance(result, Err)

    def test_error_propagates_through_chains(self, queue_engine):
        # REMOVE(REMOVE(NEW)) = REMOVE(error) = error
        term = app(REMOVE, app(REMOVE, queue_term([])))
        assert isinstance(queue_engine.normalize(term), Err)

    def test_error_condition_poisons_ite(self, queue_engine):
        from repro.algebra.sorts import BOOLEAN

        node = ite(err(BOOLEAN), queue_term([]), queue_term([]))
        assert isinstance(queue_engine.normalize(node), Err)

    def test_stats_count_error_propagations(self, queue_engine):
        queue_engine.normalize(app(REMOVE, app(REMOVE, queue_term([]))))
        assert queue_engine.stats.error_propagations >= 1


class TestConditionalLaziness:
    """Only the selected branch is evaluated in value mode.

    This is what makes recursive right-hand sides terminate: axiom 6's
    else-branch recursion must not run when the condition is true.
    """

    def test_untaken_error_branch_harmless(self, queue_engine):
        # REMOVE(ADD(NEW, i)): condition IS_EMPTY?(NEW) = true selects
        # NEW; the else branch ADD(REMOVE(NEW), i) would be an error.
        term = app(REMOVE, queue_term(["only"]))
        assert queue_engine.normalize(term) == queue_term([])

    def test_open_condition_left_in_place(self, queue_engine):
        q = var("q", QUEUE_SPEC.type_of_interest)
        node = ite(app(IS_EMPTY, q), queue_term([]), queue_term(["a"]))
        result = queue_engine.normalize(node)
        assert isinstance(result, Ite)


class TestBuiltins:
    def test_builtin_fires_on_literals(self):
        from repro.spec.prelude import IDENTIFIER_SPEC, ISSAME

        engine = RewriteEngine.for_specification(IDENTIFIER_SPEC)
        term = app(ISSAME, identifier("a"), identifier("a"))
        assert engine.normalize(term) == true_term()
        assert engine.stats.builtin_firings == 1

    def test_builtin_waits_for_literals(self):
        from repro.spec.prelude import IDENTIFIER, IDENTIFIER_SPEC, ISSAME

        engine = RewriteEngine.for_specification(IDENTIFIER_SPEC)
        open_term = app(ISSAME, var("x", IDENTIFIER), identifier("a"))
        assert engine.normalize(open_term) == open_term

    def test_builtin_algebra_error_becomes_err(self):
        from repro.algebra.signature import Operation
        from repro.algebra.sorts import NAT, Sort
        from repro.spec.errors import AlgebraError

        def fail(_value):
            raise AlgebraError("nope")

        probe = Operation("probe", (NAT,), NAT, builtin=fail)
        engine = RewriteEngine(RuleSet())
        result = engine.normalize(app(probe, Lit(1, NAT)))
        assert isinstance(result, Err)


class TestFuel:
    def _looping_spec(self):
        source = """
        type L
        operations
          MKL: -> L
          SPIN: L -> L
        vars
          l: L
        axioms
          SPIN(l) = SPIN(SPIN(l))
        """
        return parse_specification(source)

    def test_divergence_raises_limit_error(self):
        spec = self._looping_spec()
        engine = RewriteEngine.for_specification(
            spec, budget=EvaluationBudget(fuel=500)
        )
        term = app(spec.operation("SPIN"), app(spec.operation("MKL")))
        with pytest.raises(RewriteLimitError):
            engine.normalize(term)

    def test_limit_error_carries_term_and_fuel(self):
        spec = self._looping_spec()
        engine = RewriteEngine.for_specification(
            spec, budget=EvaluationBudget(fuel=100)
        )
        term = app(spec.operation("SPIN"), app(spec.operation("MKL")))
        with pytest.raises(RewriteLimitError) as excinfo:
            engine.normalize(term)
        assert excinfo.value.fuel == 100


class TestStats:
    def test_firings_keyed_by_rule_object(self, queue_engine):
        queue_engine.normalize(app(FRONT, queue_term(["a", "b", "c"])))
        stats = queue_engine.stats
        assert stats.firings_by_rule
        for rule, count in stats.firings_by_rule.items():
            assert rule in queue_engine.rules
            assert stats.firing_count(rule) == count
        assert sum(stats.firings_by_rule.values()) == stats.rule_firings

    def test_firing_summary_printable_and_ranked(self, queue_engine):
        queue_engine.normalize(app(FRONT, queue_term(["a", "b", "c"])))
        summary = queue_engine.stats.firing_summary()
        lines = summary.splitlines()
        counts = [int(line.split()[0]) for line in lines]
        assert counts == sorted(counts, reverse=True)
        assert queue_engine.stats.firing_summary(limit=1).count("\n") == 0

    def test_firing_summary_empty(self):
        engine = RewriteEngine(RuleSet.from_specification(QUEUE_SPEC))
        assert "no rule firings" in engine.stats.firing_summary()


class TestDeepTerms:
    def test_thousands_deep_terms_evaluate(self, queue_spec):
        """Deep (but finite) terms must not masquerade as divergence:
        the explicit-stack evaluator's depth is bounded by the heap, not
        the Python call stack."""
        engine = RewriteEngine(
            RuleSet.from_specification(queue_spec),
            budget=EvaluationBudget(fuel=10_000_000),
        )
        term = app(FRONT, queue_term(range(2000)))
        result = engine.normalize(term)
        assert result.value == 0  # type: ignore[union-attr]

    def test_recursion_limit_untouched(self, queue_spec):
        """The engine no longer mutates ``sys.setrecursionlimit`` to
        survive deep terms — it must not touch the limit at all."""
        import sys

        before = sys.getrecursionlimit()
        engine = RewriteEngine(
            RuleSet.from_specification(queue_spec),
            budget=EvaluationBudget(fuel=10_000_000),
        )
        engine.normalize(app(FRONT, queue_term(range(1500))))
        assert sys.getrecursionlimit() == before

    def test_limit_error_message_truncated(self, queue_spec):
        from repro.spec.parser import parse_specification

        source = """
        type L
        operations
          MKL: -> L
          SPIN: L -> L
        vars
          l: L
        axioms
          SPIN(l) = SPIN(SPIN(l))
        """
        spec = parse_specification(source)
        engine = RewriteEngine.for_specification(
            spec, budget=EvaluationBudget(fuel=200)
        )
        term = app(spec.operation("SPIN"), app(spec.operation("MKL")))
        with pytest.raises(RewriteLimitError) as excinfo:
            engine.normalize(term)
        assert len(str(excinfo.value)) < 400


class TestIndexAblation:
    """The discrimination-tree index selects the rule a linear scan of
    the rule list would (the reference the E10 ablation measured)."""

    def test_same_normal_forms(self):
        """At every application inside the smallest axiom instances of
        the five paper specifications, the first matching rule among
        the index's candidates is the first match of a linear scan, so
        indexed rewriting takes the linear engine's steps exactly."""
        for spec in PAPER_SPECS:
            rules = RuleSet.from_specification(spec)
            enumerator = GroundTermEnumerator(spec)
            checked = 0
            for axiom in spec.axioms:
                instances, _ = prefix(
                    enumerator.substitutions(axiom.lhs, axiom.rhs), 8
                )
                for _, sigma in instances:
                    for _, subject in sigma.apply(axiom.lhs).subterms():
                        if not isinstance(subject, App):
                            continue
                        indexed = _first_match(
                            rules.candidates(subject), subject
                        )
                        assert indexed is _first_match(rules, subject), (
                            f"{spec.name}: {subject}"
                        )
                        checked += 1
            assert checked > len(spec.axioms), spec.name

    def test_tree_candidates_subset_of_head_candidates(self, queue_spec):
        """The discrimination tree refines the head index: it never
        returns a rule the flat per-head list would not have offered."""
        rules = RuleSet.from_specification(queue_spec)
        for values in ([], ["a"], ["a", "b"]):
            subject = app(FRONT, queue_term(values))
            refined = set(map(id, rules.candidates(subject)))
            flat = set(map(id, rules.for_head(subject.op)))
            assert refined <= flat

    def test_tree_skips_shape_incompatible_rules(self, queue_spec):
        """FRONT(NEW) and FRONT(ADD(..)) are discriminated by the top
        symbol of the argument, so each subject sees fewer candidates
        than the flat head index offers."""
        rules = RuleSet.from_specification(queue_spec)
        on_empty = rules.candidates(app(FRONT, queue_term([])))
        on_add = rules.candidates(app(FRONT, queue_term(["a"])))
        flat = rules.for_head(FRONT)
        assert len(flat) >= 2
        assert len(on_empty) < len(flat)
        assert len(on_add) < len(flat)


class TestCache:
    def test_cache_hits_counted(self, queue_spec):
        engine = RewriteEngine(RuleSet.from_specification(queue_spec))
        term = app(FRONT, queue_term(["a", "b", "c"]))
        first = engine.normalize(term)
        hits_after_first = engine.stats.cache_hits
        second = engine.normalize(term)
        assert second == first
        # The repeat call is answered from the cache.
        assert engine.stats.cache_hits > hits_after_first

    def test_cached_and_uncached_agree(self, queue_spec):
        rules = RuleSet.from_specification(queue_spec)
        cached = RewriteEngine(rules, cache_size=4096)
        uncached = RewriteEngine(rules, cache_size=0)
        for values in ([], ["a"], ["a", "b", "c"]):
            for op in (FRONT, REMOVE, IS_EMPTY):
                term = app(op, queue_term(values))
                assert cached.normalize(term) == uncached.normalize(term)

    def test_cache_disabled_stores_nothing(self, queue_spec):
        engine = RewriteEngine(
            RuleSet.from_specification(queue_spec), cache_size=0
        )
        engine.normalize(app(FRONT, queue_term(["a"])))
        assert engine._cache == {}

    def test_cache_bounded(self, queue_spec):
        engine = RewriteEngine(
            RuleSet.from_specification(queue_spec), cache_size=4
        )
        for index in range(40):
            engine.normalize(app(FRONT, queue_term([index])))
        assert len(engine._cache) <= 4

    def test_open_terms_not_cached(self, queue_spec):
        engine = RewriteEngine(RuleSet.from_specification(queue_spec))
        q = var("q", QUEUE_SPEC.type_of_interest)
        engine.normalize(app(IS_EMPTY, app(ADD, q, item("a"))))
        assert all(key.is_ground() for key in engine._cache)

    def test_hot_entries_survive_overflow(self, queue_spec):
        """Regression: the seed engine cleared the whole memo when it
        filled, so one oversized burst evicted every hot entry.  The
        LRU evicts cold entries only — a key that is re-probed between
        bursts keeps answering from the cache."""
        engine = RewriteEngine(
            RuleSet.from_specification(queue_spec), cache_size=8
        )
        hot = app(FRONT, queue_term(["a", "b"]))
        expected = engine.normalize(hot)
        for index in range(50):
            # Cold traffic that overflows the 8-entry cache many times.
            engine.normalize(app(FRONT, queue_term([index])))
            # Touching the hot term keeps it most-recently-used...
            engine.stats.reset()
            assert engine.normalize(hot) == expected
            # ...so it is always answered from the memo, never re-derived.
            assert engine.stats.rule_firings == 0
        assert hot in engine._cache


class TestEquality:
    def test_equal_normal_forms(self, queue_engine):
        left = app(REMOVE, queue_term(["a", "b"]))
        right = queue_term(["b"])
        assert queue_engine.normalize(left) is queue_engine.normalize(right)

    def test_unequal_normal_forms(self, queue_engine):
        normalize = queue_engine.normalize
        assert normalize(queue_term(["a"])) is not normalize(queue_term(["b"]))

    def test_axiom_instance_sides_agree(self, queue_spec, queue_engine):
        from repro.algebra.substitution import Substitution

        axiom = queue_spec.axioms[3]  # FRONT(ADD(q, i)) = ...
        variables = {v.name: v for v in axiom.variables()}
        sigma = Substitution(
            {
                variables["q"]: queue_term(["x"]),
                variables["i"]: item("y"),
            }
        )
        assert queue_engine.normalize(
            sigma.apply(axiom.lhs)
        ) is queue_engine.normalize(sigma.apply(axiom.rhs))


class TestSimplify:
    def test_simplify_open_term(self, queue_engine):
        q = var("q", QUEUE_SPEC.type_of_interest)
        term = app(IS_EMPTY, app(ADD, q, item("a")))
        assert queue_engine.simplify(term) == false_term()

    def test_simplify_collapses_equal_branches(self, queue_engine):
        q = var("q", QUEUE_SPEC.type_of_interest)
        node = ite(app(IS_EMPTY, q), queue_term([]), queue_term([]))
        assert queue_engine.simplify(node) == queue_term([])

    def test_simplify_normalises_both_branches(self, queue_engine):
        q = var("q", QUEUE_SPEC.type_of_interest)
        node = ite(
            app(IS_EMPTY, q),
            app(REMOVE, queue_term(["a"])),
            queue_term(["b"]),
        )
        result = queue_engine.simplify(node)
        assert isinstance(result, Ite)
        assert result.then_branch == queue_term([])

    def test_stats_reset(self, queue_engine):
        queue_engine.normalize(app(FRONT, queue_term(["a"])))
        assert queue_engine.stats.steps > 0
        queue_engine.stats.reset()
        assert queue_engine.stats.steps == 0

    def test_simplify_reuses_unchanged_nodes(self, queue_engine):
        """Simplifying an already-simplified open term returns the very
        same node, not a fresh structurally-equal copy."""
        q = var("q", QUEUE_SPEC.type_of_interest)
        first = queue_engine.simplify(
            ite(app(IS_EMPTY, q), queue_term(["a"]), queue_term(["b"]))
        )
        assert queue_engine.simplify(first) is first

    def test_spent_budget_raises_limit_error_without_evaluation_metrics(self):
        # Simplify maps a spent budget to RewriteLimitError as normalize
        # does, but a simplification is not an evaluation: the latency
        # histogram does not count it.
        from repro.runtime import EvaluationBudget

        engine = RewriteEngine.for_specification(QUEUE_SPEC)

        def evaluations():
            histograms = engine.stats.registry.snapshot()["histograms"]
            return histograms["engine.eval_seconds"]["count"]

        with pytest.raises(RewriteLimitError) as fuel:
            engine.simplify(
                app(FRONT, queue_term(["a", "b", "c"])),
                EvaluationBudget(fuel=1),
            )
        assert fuel.value.reason == "fuel"
        # _simplify recurses once per term level.
        deep = app(IS_EMPTY, queue_term(range(sys.getrecursionlimit() + 100)))
        with pytest.raises(RewriteLimitError) as depth:
            engine.simplify(deep)
        assert depth.value.reason == "depth"
        assert evaluations() == 0


class TestArgsNormal:
    """Unit coverage for the already-normal-arguments fast path."""

    def test_leaves_are_normal(self):
        from repro.rewriting.engine import _args_normal

        assert _args_normal(item("a"))
        assert _args_normal(var("q", QUEUE_SPEC.type_of_interest))
        assert _args_normal(err(QUEUE_SPEC.type_of_interest))

    def test_nullary_application_is_normal(self):
        from repro.rewriting.engine import _args_normal

        assert _args_normal(app(NEW))

    def test_application_of_leaves_is_normal(self):
        from repro.rewriting.engine import _args_normal

        assert _args_normal(app(ADD, app(NEW), item("a"))) is False
        assert _args_normal(
            app(ADD, var("q", QUEUE_SPEC.type_of_interest), item("a"))
        )

    def test_nested_application_is_not_normal(self):
        from repro.rewriting.engine import _args_normal

        assert not _args_normal(app(FRONT, queue_term(["a"])))
