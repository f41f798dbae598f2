"""Tests for rule-set compilation (the ``codegen`` backend: the
generated rule module of :mod:`repro.rewriting.codegen` and the compiled
rules a :class:`RewriteEngine` runs it through).

The compiled rules must implement exactly the rewrite relation of the
interpreted engine, including its observable accounting (per-rule firing
counts, steps and fuel): every test here either checks agreement
directly or exercises a mechanism of the compiler or of the engine that
runs its functions as root steps (decision-tree dispatch over builtins
and non-linear patterns, the module cache, the interpreted fallbacks for
uncompilable patterns and deep chains, the result memo, memo sharing
and bounds).
"""

import gc
import weakref

import pytest

from repro.algebra.signature import Operation
from repro.algebra.sorts import BOOLEAN, NAT
from repro.algebra.terms import App, Err, Lit, app, err, ite, var
from repro.spec.parser import parse_specification
from repro.spec.prelude import (
    HASH,
    ISSAME,
    false_term,
    identifier,
    item,
    true_term,
)
from repro.rewriting import (
    CodegenRules,
    RewriteEngine,
    RewriteLimitError,
    RewriteRule,
    RuleSet,
    codegen_module,
)
from repro.adt.queue import ADD, FRONT, IS_EMPTY, NEW, QUEUE_SPEC, REMOVE, queue_term
from repro.runtime import EvaluationBudget
from repro.testing.faults import FaultPlan, inject_faults

QUEUE_RULES = RuleSet.from_specification(QUEUE_SPEC)


def _firings(engine):
    return dict(engine.stats.firings.ranked())


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
        # The delegate is the engine's compiled rules.
        assert compiled_queue._compiled is None
        compiled_queue.normalize(app(FRONT, queue_term(["a"])))
        delegate = compiled_queue._compiled
        assert isinstance(delegate, CodegenRules)
        compiled_queue.normalize_many([app(FRONT, queue_term(["b"]))])
        assert compiled_queue.compiled_rules() is delegate

    def test_delegate_rebuilt_when_rules_grow(self, compiled_queue):
        compiled_queue.normalize(app(FRONT, queue_term(["a"])))
        stale = compiled_queue.compiled_rules()
        q = var("q", QUEUE_SPEC.type_of_interest)
        compiled_queue.rules.add(
            RewriteRule(app(IS_EMPTY, q), true_term(), "bogus")
        )
        compiled_queue.normalize(app(FRONT, queue_term(["a", "b"])))
        assert compiled_queue.compiled_rules() is not stale


class TestGeneratedModule:
    def test_source_is_a_real_module(self):
        source = codegen_module(QUEUE_RULES).source
        assert source.startswith("# second-stage rule module")
        assert "def op_" in source
        compile(source, "<check>", "exec")  # it is genuine Python source

    def test_module_cached_by_fingerprint(self):
        first = codegen_module(QUEUE_RULES)
        again = codegen_module(QUEUE_RULES)
        assert first is again
        # A different compiler option is a different module.
        memoless = RewriteEngine(
            QUEUE_RULES, cache_size=0, backend="codegen"
        ).compiled_rules().module
        assert memoless is not first
        assert memoless.memo_names == () and first.memo_names

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

    def test_ground_rhs_rule_matches_interpreted(self):
        # A rule whose right-hand side is ground: same normal form,
        # per-rule firings and steps on both backends.
        flag = Operation("FLAG", (), BOOLEAN)
        rules = RuleSet.from_specification(QUEUE_SPEC)
        rules.add(
            RewriteRule(
                app(flag),
                app(IS_EMPTY, app(ADD, app(NEW), item("probe"))),
                "ground-rhs",
            )
        )
        interp = RewriteEngine(rules)
        compiled = RewriteEngine(rules, backend="codegen")
        assert interp.normalize(app(flag)) == false_term()
        assert compiled.normalize(app(flag)) == false_term()
        assert _firings(compiled) == _firings(interp)
        assert compiled.stats.steps == interp.stats.steps


class TestBuiltins:
    def test_builtin_only_operation_fires(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        # HASH heads no rule; the engine must still run its builtin.
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
            engine = RewriteEngine.for_specification(
                spec, backend=backend, budget=EvaluationBudget(fuel=300)
            )
            with pytest.raises(RewriteLimitError):
                engine.normalize(
                    app(spec.operation("SPIN"), app(spec.operation("MKL")))
                )

    def test_fuel_respected_after_adjustment(self, compiled_queue):
        # The rules are compiled under the engine's default budget; a
        # tighter per-call budget must still bound the next call.
        compiled_queue.normalize(app(FRONT, queue_term(["a"])))
        with pytest.raises(RewriteLimitError):
            compiled_queue.normalize(
                app(FRONT, queue_term(list(range(20)))),
                EvaluationBudget(fuel=3),
            )

    def test_budget_exhaustion_is_an_outcome(self):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend="codegen", budget=EvaluationBudget(fuel=3)
        )
        outcome = engine.normalize_outcome(
            app(FRONT, queue_term(list(range(20))))
        )
        assert not outcome.ok
        assert outcome.reason == "fuel"

    def test_budget_exhaustion_leaves_no_reference_cycle(self):
        # An engine that ran out of fuel is freed as soon as it is
        # dropped: its metrics registry must not linger until a garbage
        # collection, or live aggregated counts would fall when the
        # collection finally runs.  A codegen engine holds generated
        # functions that reach its interpreter, weakly.
        gc.disable()
        try:
            for backend in ("interpreted", "codegen"):
                engine = RewriteEngine.for_specification(
                    QUEUE_SPEC, backend=backend, budget=EvaluationBudget(fuel=3)
                )
                term = app(FRONT, queue_term(list(range(20))))
                with pytest.raises(RewriteLimitError):
                    engine.normalize(term)
                assert engine.normalize_outcome(term).reason == "fuel"
                registry = weakref.ref(engine.stats.registry)
                del engine
                assert registry() is None, backend
        finally:
            gc.enable()


class TestDeepTerms:
    def test_deep_chain_falls_back_without_recursion_error(self):
        # REMOVE recurses once per rewrite in the generated module; a
        # deep spine must land on the interpreted engine.
        budget = EvaluationBudget(fuel=10_000_000)
        engine = RewriteEngine(
            RuleSet.from_specification(QUEUE_SPEC),
            backend="codegen",
            budget=budget,
        )
        reference = RewriteEngine.for_specification(QUEUE_SPEC, budget=budget)
        size = 2000  # far past the generated functions' depth limit
        term = app(REMOVE, queue_term(range(size)))
        assert engine.normalize(term) == reference.normalize(term)
        assert engine.stats.fallbacks.get("codegen_depth") > 0

    @pytest.mark.parametrize("backend", ["interpreted", "codegen"])
    def test_depth_50k_normalizes_on_both_backends(self, backend):
        # Regression for the removed recursion-limit hack: the explicit
        # stack (and the codegen backend's depth fallback onto it) must
        # take a 50_000-deep ground term without RecursionError.
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend=backend, budget=EvaluationBudget(fuel=10_000_000)
        )
        result = engine.normalize(app(FRONT, queue_term(range(50_000))))
        assert result == item(0)

    def test_depth_fallback_builds_no_second_engine(self, monkeypatch):
        # The fallback runs on the owning engine's interpreted machine,
        # memo and stats: one engine object per rule set.
        built = []
        init = RewriteEngine.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RewriteEngine, "__init__", counting)
        rules = RuleSet.from_specification(QUEUE_SPEC)
        engine = RewriteEngine(
            rules, backend="codegen", budget=EvaluationBudget(fuel=10_000_000)
        )
        assert engine.normalize(app(FRONT, queue_term(range(2000)))) == item(0)
        assert engine.stats.fallbacks.get("codegen_depth") > 0
        assert built == [engine]

    def test_deepest_serving_shapes_stay_native(self):
        # The deepest batch shapes the daemon serves — a 36-item Queue
        # drained to its last item, and RETRIEVE / IS_INBLOCK? misses
        # over 16 blocks of 6-9 ADDs (about 136 levels) — recurse well
        # inside the generated functions' depth limit: answers equal the
        # interpreted engine's and no node takes the depth fallback.
        from repro.adt.symboltable import SYMBOLTABLE_SPEC as spec
        from repro.spec.prelude import attributes

        op = spec.operation
        table = app(op("INIT"))
        for block in range(16):
            table = app(op("ENTERBLOCK"), table)
            for n in range(6 + block % 4):
                table = app(
                    op("ADD"), table, identifier(f"x{n}"),
                    attributes(f"b{block}y{n}"),
                )
        missing = identifier("absent")
        queue = queue_term(range(36))
        for _ in range(35):
            queue = app(REMOVE, queue)
        cases = [
            (QUEUE_SPEC, app(FRONT, queue)),
            (spec, app(op("RETRIEVE"), table, missing)),
            (spec, app(op("IS_INBLOCK?"), table, missing)),
        ]
        for case_spec, subject in cases:
            reference = RewriteEngine.for_specification(case_spec)
            engine = RewriteEngine.for_specification(
                case_spec, backend="codegen"
            )
            assert engine.normalize(subject) == reference.normalize(subject)
            assert engine.stats.fallbacks.get("codegen_depth") == 0


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
        compiled = engine.compiled_rules()
        assert compiled.memos == {}
        assert "CMAX" not in compiled.module.source
        term = app(FRONT, queue_term(["a", "b"]))
        assert engine.normalize(term) == item("a")
        assert engine.stats.cache_probes == 0

    def test_repeated_subject_reaches_no_generated_function(self):
        # The engine probes its memo on the whole subject before walking
        # it, on both backends: a repeated subject is answered without
        # dispatching to a single generated function.
        engine = RewriteEngine(QUEUE_RULES, backend="codegen")
        subject = app(FRONT, queue_term(range(50)))
        with inject_faults(FaultPlan()) as first:
            assert engine.normalize(subject) == item(0)
        with inject_faults(FaultPlan()) as second:
            assert engine.normalize(subject) == item(0)
        assert first.visits.get("compiled.root", 0) > 0
        assert second.visits.get("compiled.root", 0) == 0

    def test_normal_form_set_survives_cache_clear_semantics(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        q = queue_term(["a", "b"])
        assert engine.normalize(app(FRONT, q)) == item("a")
        engine.clear_cache()
        assert engine.normalize(app(FRONT, q)) == item("a")


class TestEvaluationAccounting:
    """Both backends and both entry points share one evaluation
    wrapper: each evaluation is one latency and one fuel observation."""

    @pytest.mark.parametrize("backend", ["interpreted", "codegen"])
    def test_one_latency_observation_per_evaluation(self, backend):
        engine = RewriteEngine(QUEUE_RULES, backend=backend)
        terms = [app(FRONT, queue_term(["a", "b"])), app(FRONT, queue_term([]))]

        def observations(name):
            histograms = engine.stats.registry.snapshot()["histograms"]
            return histograms[name]["count"]

        for term in terms:
            engine.normalize_outcome(term)
        assert observations("engine.eval_seconds") == 2
        for term in terms:
            engine.normalize(term)
        assert observations("engine.eval_seconds") == 4
        assert observations("engine.fuel_per_eval") == 4


class TestMemoBound:
    """``cache_size`` caps the codegen memos *in total*: the
    per-operation dicts share one entry count, not one cap each."""

    CAP = 64

    def test_summed_memos_stay_within_the_budget(self):
        from repro.adt.symboltable import SYMBOLTABLE_SPEC as spec
        from repro.spec.prelude import attributes

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
            # LEAVEBLOCK and RETRIEVE recurse down the table and store
            # one memo entry per level on the way out.
            subjects += [
                app(leave, table),
                app(inblock, table, name),
                app(retrieve, table, name),
            ]
        rules = RuleSet.from_specification(spec)
        reference = RewriteEngine(rules, cache_size=self.CAP)
        engine = RewriteEngine(rules, cache_size=self.CAP, backend="codegen")
        unbounded = RewriteEngine(rules, backend="codegen")
        memos = engine.compiled_rules().memos
        for subject in subjects:
            assert engine.normalize(subject) == reference.normalize(subject)
            assert sum(len(memo) for memo in memos.values()) <= self.CAP
            assert len(engine._cache) <= self.CAP
            unbounded.normalize(subject)
        # The workload is big enough to matter: left unbounded, at least
        # three operations' memos together pass the budget.
        live = [
            len(memo)
            for memo in unbounded.compiled_rules().memos.values()
            if memo
        ]
        assert len(live) >= 3 and sum(live) > self.CAP
        assert engine.stats.cache_hits > 0
        engine.clear_cache()
        assert all(not memo for memo in memos.values())
        assert engine.compiled_rules().ns["CN"] == 0
        # Nothing outside the memos keeps normal forms alive: each
        # REMOVE result below is a fresh queue no subject contains, and
        # at most one per entry of the engine memo and of the generated
        # memos survives.
        queues = RewriteEngine(
            QUEUE_RULES, cache_size=self.CAP, backend="codegen"
        )
        results = [
            weakref.ref(queues.normalize(app(REMOVE, queue_term([i, -i]))))
            for i in range(1, 4 * self.CAP)
        ]
        gc.collect()
        assert sum(ref() is not None for ref in results) <= 2 * self.CAP


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
        source = compiled_queue.compiled_rules().module.source
        assert "def op_" in source
        assert "REMOVE" in source  # per-operation comment markers
