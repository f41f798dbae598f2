"""Tests for the second-stage generated-source (codegen) backend.

The codegen backend must implement exactly the rewrite relation of the
interpreted reference engine — including its *observable accounting*:
per-rule firing counts, steps and fuel.  Tests here exercise its codegen-only
mechanisms (module emission and caching, ground-RHS folding, the
normal-form set, the depth fallback) and the equivalences the
optimisations must preserve.
"""

import pytest

from repro.algebra.signature import Operation
from repro.algebra.sorts import BOOLEAN
from repro.algebra.terms import Err, app
from repro.spec.prelude import false_term, item, true_term
from repro.rewriting import (
    CodegenEngine,
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

    def test_module_cached_by_fingerprint(self):
        first = codegen_module(QUEUE_RULES)
        again = codegen_module(QUEUE_RULES)
        assert first is again
        # A different compiler option is a different module.
        memoless = CodegenEngine(QUEUE_RULES, cache_size=0).module
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

        assert interp.normalize(app(flag)) == false_term()
        assert folded.normalize(app(flag)) == false_term()
        # The fold must replay the functions' accounting, not skip it.
        assert _firings(folded) == _firings(interp)
        assert folded.stats.steps == interp.stats.steps

    def test_folded_constant_is_precomputed_in_source(self):
        flag, rules = self._flag_rules()
        module = CodegenEngine(rules).module
        # Folding bakes the rule's normal form in as a constant: FLAG's
        # function returns it without calling IS_EMPTY?'s function.
        body = module.source.split("  # FLAG\n", 1)[1].split("\ndef ", 1)[0]
        assert "op_" not in body
        results = {
            line.split("=", 1)[1].strip()
            for line in body.splitlines()
            if line.strip().startswith("r = ")
        }
        assert any(
            module.base_ns.get(name) == false_term() for name in results
        )


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
        # The generated functions recurse once per rewrite, so a deep
        # spine exceeds their depth limit — the driver must land on the
        # interpreted engine, not raise RecursionError.
        engine = RewriteEngine(QUEUE_RULES, backend="codegen")
        engine.fuel = 10_000_000
        size = 2000  # far past the generated functions' depth limit
        assert engine.normalize(app(FRONT, queue_term(range(size)))) == item(0)
        assert engine.stats.fallbacks.get("codegen_depth") > 0

    def test_deepest_serving_shapes_stay_native(self):
        # The deepest batch shapes the daemon serves — a 36-item Queue
        # drained to its last item, and RETRIEVE / IS_INBLOCK? misses
        # over 16 blocks of 6-9 ADDs (about 136 levels) — recurse well
        # inside the generated functions' depth limit: answers equal the
        # interpreted engine's and no node takes the depth fallback.
        from repro.adt.symboltable import SYMBOLTABLE_SPEC as spec
        from repro.spec.prelude import attributes, identifier

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
            # LEAVEBLOCK and RETRIEVE recurse down the table and store
            # one memo entry per level on the way out.
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
