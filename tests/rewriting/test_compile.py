"""Tests for rule-set compilation (the ``codegen`` backend's
decision-tree compiler in :mod:`repro.rewriting.codegen`).

The compiled rule module must implement exactly the rewrite relation of
the interpreted engine: every test here either checks agreement directly
or exercises a mechanism of the compiler itself (decision-tree dispatch
over builtins and non-linear patterns, the interpreted fallback for
uncompilable patterns, memo sharing).  ``test_codegen.py`` covers the
module cache, folding and the driver.
"""

import pytest

from repro.algebra.sorts import BOOLEAN, NAT
from repro.algebra.terms import App, Err, Ite, Lit, app, err, ite, var
from repro.spec.parser import parse_specification
from repro.spec.prelude import (
    HASH,
    ISSAME,
    boolean_term,
    false_term,
    identifier,
    item,
    nat_lit,
    true_term,
)
from repro.rewriting import (
    CodegenEngine,
    RewriteEngine,
    RewriteLimitError,
    RewriteRule,
    RuleSet,
    codegen_module,
)
from repro.adt.queue import ADD, FRONT, IS_EMPTY, NEW, QUEUE_SPEC, REMOVE, queue_term


@pytest.fixture
def compiled_queue():
    return RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")


@pytest.fixture
def interp_queue():
    return RewriteEngine.for_specification(QUEUE_SPEC)


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        # "compiled" named the retired closure backend.
        for backend in ("jit", "compiled"):
            with pytest.raises(ValueError, match="backend"):
                RewriteEngine(RuleSet(), backend=backend)

    def test_delegate_built_lazily_and_reused(self, compiled_queue):
        assert compiled_queue._codegen is None
        compiled_queue.normalize(app(FRONT, queue_term(["a"])))
        delegate = compiled_queue._codegen
        assert isinstance(delegate, CodegenEngine)
        compiled_queue.normalize_many([app(FRONT, queue_term(["b"]))])
        assert compiled_queue._codegen is delegate

    def test_delegate_rebuilt_when_rules_grow(self, compiled_queue):
        compiled_queue.normalize(app(FRONT, queue_term(["a"])))
        stale = compiled_queue._codegen
        q = var("q", QUEUE_SPEC.type_of_interest)
        compiled_queue.rules.add(
            RewriteRule(app(IS_EMPTY, q), true_term(), "bogus")
        )
        compiled_queue.normalize(app(FRONT, queue_term(["a", "b"])))
        assert compiled_queue._codegen is not stale


class TestAgreement:
    """Term-for-term agreement with the interpreted backend."""

    def test_queue_observations(self, compiled_queue, interp_queue):
        for values in ([], ["a"], ["a", "b", "c"], list(range(12))):
            q = queue_term(values)
            for op in (FRONT, REMOVE, IS_EMPTY):
                term = app(op, q)
                assert compiled_queue.normalize(term) == interp_queue.normalize(
                    term
                ), str(term)

    def test_fifo_drain_order(self, compiled_queue):
        values = ["p", "q", "r", "s"]
        term = queue_term(values)
        seen = []
        for _ in values:
            seen.append(compiled_queue.normalize(app(FRONT, term)).value)
            term = compiled_queue.normalize(app(REMOVE, term))
        assert seen == values

    def test_error_propagation_parity(self, compiled_queue, interp_queue):
        for term in (
            app(FRONT, queue_term([])),
            app(REMOVE, queue_term([])),
            app(FRONT, app(REMOVE, app(REMOVE, queue_term(["only"])))),
            app(IS_EMPTY, err(QUEUE_SPEC.type_of_interest)),
        ):
            a = interp_queue.normalize(term)
            b = compiled_queue.normalize(term)
            assert a == b
            assert isinstance(b, Err)

    def test_open_terms_agree(self, compiled_queue, interp_queue):
        q = var("q", QUEUE_SPEC.type_of_interest)
        term = app(IS_EMPTY, app(ADD, q, item("x")))
        assert compiled_queue.normalize(term) == false_term()
        assert compiled_queue.normalize(term) == interp_queue.normalize(term)
        # An application with a variable receiver stays put on both.
        stuck = app(FRONT, q)
        assert compiled_queue.normalize(stuck) == interp_queue.normalize(stuck)

    def test_normalize_many_matches_loop(self, compiled_queue, interp_queue):
        terms = [app(FRONT, queue_term(list(range(n)))) for n in range(1, 8)]
        assert compiled_queue.normalize_many(terms) == [
            interp_queue.normalize(t) for t in terms
        ]


class TestBuiltins:
    def test_builtin_only_operation_fires(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        # HASH heads no rule; the driver must still run its builtin.
        term = app(HASH, identifier("x"))
        result = engine.normalize(term)
        assert isinstance(result, Lit) and result.sort == NAT

    def test_builtin_with_rules_prefers_builtin_on_literals(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        assert engine.normalize(
            app(ISSAME, identifier("a"), identifier("a"))
        ) == true_term()
        assert engine.normalize(
            app(ISSAME, identifier("a"), identifier("b"))
        ) == false_term()

    def test_nonlinear_rule_on_symbolic_identifiers(self):
        # Axiom I1 ISSAME?(id, id) = true must fire via the generated
        # residual equality check when the builtin cannot (non-literals).
        from repro.adt.symboltable import SYMBOLTABLE_SPEC

        engine = RewriteEngine.for_specification(
            SYMBOLTABLE_SPEC, backend="codegen"
        )
        x = var("x", identifier("a").sort)
        assert engine.normalize(app(ISSAME, x, x)) == true_term()
        y = var("y", identifier("a").sort)
        stuck = app(ISSAME, x, y)
        assert engine.normalize(stuck) == stuck


class TestFuelParity:
    def test_fuel_exhaustion_raises_on_both_backends(self):
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
        for backend in ("interpreted", "codegen"):
            engine = RewriteEngine.for_specification(spec, backend=backend)
            engine.fuel = 300
            with pytest.raises(RewriteLimitError):
                engine.normalize(
                    app(spec.operation("SPIN"), app(spec.operation("MKL")))
                )

    def test_fuel_respected_after_adjustment(self, compiled_queue):
        # The delegate is built under the default fuel; lowering
        # ``engine.fuel`` afterwards must still bound the next call.
        compiled_queue.normalize(app(FRONT, queue_term(["a"])))
        compiled_queue.fuel = 3
        with pytest.raises(RewriteLimitError):
            compiled_queue.normalize(app(FRONT, queue_term(list(range(20)))))


class TestDeepTerms:
    def test_deep_chain_falls_back_without_recursion_error(self):
        # REMOVE recurses once per rewrite in the generated module; a
        # deep spine must land on the interpreted engine.
        engine = RewriteEngine(
            RuleSet.from_specification(QUEUE_SPEC), backend="codegen"
        )
        engine.fuel = 10_000_000
        reference = RewriteEngine.for_specification(QUEUE_SPEC)
        reference.fuel = 10_000_000
        size = 2000  # far past the generated functions' depth limit
        term = app(REMOVE, queue_term(range(size)))
        assert engine.normalize(term) == reference.normalize(term)
        assert engine.stats.fallbacks.get("codegen_depth") > 0

    @pytest.mark.parametrize("backend", ["interpreted", "codegen"])
    def test_depth_50k_normalizes_on_both_backends(self, backend):
        # Regression for the removed recursion-limit hack: the explicit
        # stack (and the codegen backend's depth fallback onto it) must
        # take a 50_000-deep ground term without RecursionError.
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
        engine.fuel = 10_000_000
        result = engine.normalize(app(FRONT, queue_term(range(50_000))))
        assert result == item(0)


class TestMemoSharing:
    def test_normalize_many_shares_memo_across_batch(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        q = queue_term(list(range(10)))
        first = [app(FRONT, q), app(REMOVE, q)]
        engine.normalize_many(first)
        stats = engine.stats
        steps_before = stats.steps
        hits_before = stats.cache_hits
        # The same observations again: answered from the shared memo.
        engine.normalize_many(first)
        assert stats.steps == steps_before
        assert stats.cache_hits > hits_before

    def test_stats_flow_into_engine_stats(self, compiled_queue):
        compiled_queue.normalize(app(FRONT, queue_term(["a", "b"])))
        stats = compiled_queue.stats
        assert stats.steps > 0
        assert stats.rule_firings > 0
        assert stats.firings_by_rule  # per-rule counts synced from the module
        assert sum(stats.firings_by_rule.values()) == stats.rule_firings

    def test_cache_disabled(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        engine.cache_size = 0
        delegate = engine._codegen_engine()
        assert delegate.inst.memos == {}
        assert "CMAX" not in delegate.source
        term = app(FRONT, queue_term(["a", "b"]))
        assert engine.normalize(term) == item("a")
        assert engine.stats.cache_probes == 0


class TestUncompilablePatterns:
    def test_ite_pattern_falls_back_to_interpreter(self):
        b = var("b", BOOLEAN)
        q = var("q", QUEUE_SPEC.type_of_interest)
        rules = RuleSet.from_specification(QUEUE_SPEC)
        assert codegen_module(rules).uncompiled == frozenset()
        # Now a rule with a conditional inside the pattern:
        rules2 = RuleSet(
            [
                RewriteRule(
                    app(IS_EMPTY, app(ADD, q, item("z"))),
                    true_term(),
                    "fine",
                )
            ]
        )
        marker = RewriteRule(
            App(IS_EMPTY, (ite(b, app(NEW), app(NEW)),)),
            true_term(),
            "ite-pattern",
        )
        rules2.add(marker)
        assert "IS_EMPTY?" in codegen_module(rules2).uncompiled
        engine = RewriteEngine(rules2, backend="codegen")
        # Evaluation still works — routed through the interpreter.
        assert engine.normalize(
            app(IS_EMPTY, app(ADD, app(NEW), item("z")))
        ) == true_term()

    def test_generated_source_is_inspectable(self, compiled_queue):
        compiled_queue.normalize(app(IS_EMPTY, queue_term([])))
        source = compiled_queue._codegen.source
        assert "def op_" in source
        assert "REMOVE" in source  # per-operation comment markers
