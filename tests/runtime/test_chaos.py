"""The chaos suite: resilience invariants under seeded fault injection.

Every instrumented site (:data:`repro.testing.faults.SITES`) is attacked
with seeded faults — rule-firing failures, recursion and allocation
blow-ups, memo eviction — and the runtime is held to three invariants:

1. **Batches never abort.**  ``normalize_many_outcomes`` returns one
   structured outcome per input term no matter which site fails or how
   often; a fault yields a ``truncated (fault)`` record, not an
   exception out of the batch.
2. **Caches stay consistent.**  After a chaos run, the surviving engine
   agrees with a freshly built cold engine on a differential sample —
   injected faults may evict memo entries but can never poison them.
3. **Diagnosis stays honest.**  Cycling terms are reported as
   ``diverged`` with their repeating trace, expensive terms as
   ``truncated (fuel)``, and the algebra's ``error`` keeps propagating
   strictly — with the injector armed throughout.

The seed comes from ``REPRO_CHAOS_SEED`` (default 2026), so CI can run a
fixed seed on every push and a small seed matrix nightly; a failing seed
reproduces exactly.
"""

from __future__ import annotations

import os

import pytest

from repro.adt.extras import SET_SPEC
from repro.adt.queue import ADD, FRONT, QUEUE_SPEC, new, queue_term
from repro.algebra.terms import App, Err
from repro.rewriting import RewriteEngine, RuleSet
from repro.runtime import (
    DIVERGED,
    ERROR_VALUE,
    NORMALIZED,
    TRUNCATED,
    EvaluationBudget,
    Outcome,
)
from repro.runtime import faults as registry
from repro.testing.faults import (
    SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    inject_faults,
)
from tests.runtime.test_outcomes import CYCLE_SPEC, _cycling_term

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "2026"))


def _front_batch(count=10, depth=6, tag="chaos"):
    """FRONT readings over distinct queues — work at every engine site."""
    return [
        App(FRONT, (queue_term(f"{tag}-{i}-{j}" for j in range(depth)),))
        for i in range(count)
    ]


def _set_batch(count=8, tag="chaos-set"):
    """HAS? readings over Sets — the SAME_ITEM? builtin fires here."""
    from repro.spec.prelude import item

    empty = App(SET_SPEC.operation("EMPTY_SET"), ())
    insert = SET_SPEC.operation("INSERT")
    has = SET_SPEC.operation("HAS?")
    terms = []
    for i in range(count):
        s = empty
        for j in range(3):
            s = App(insert, (s, item(f"{tag}-{i}-{j}")))
        terms.append(App(has, (s, item(f"{tag}-{i}-1"))))
    return terms


def _deep_batch(count=3, depth=600, tag="chaos-deep"):
    """Queues deep enough to force the codegen backend's depth fallback
    (the ``compiled.fallback`` site)."""
    return [
        App(FRONT, (queue_term(f"{tag}-{i}-{j}" for j in range(depth)),))
        for i in range(count)
    ]


def _engine(spec, backend="interpreted"):
    """A factory for a fresh engine over ``spec``."""
    return lambda: RewriteEngine(
        RuleSet.from_specification(spec), backend=backend
    )


#: Per-site chaos workloads: a factory for an engine that visits the
#: site, and terms guaranteed to drive evaluation through it.
SITE_WORKLOADS = {
    "engine.match_root": (_engine(QUEUE_SPEC), _front_batch),
    "engine.builtin": (_engine(SET_SPEC), _set_batch),
    "engine.remember": (_engine(QUEUE_SPEC), _front_batch),
    "compiled.root": (_engine(QUEUE_SPEC, "codegen"), _front_batch),
    "compiled.fallback": (_engine(QUEUE_SPEC, "codegen"), _deep_batch),
    "symbolic.apply": None,  # covered by TestSymbolicApplySite
    "serve.handle": None,  # covered by tests/serve/test_chaos_serve.py
    "serve.respond": None,  # covered by tests/serve/test_chaos_serve.py
}


def test_every_site_has_a_chaos_workload():
    """The suite must grow with the instrumentation: a new fault site
    without a workload here fails loudly."""
    assert set(SITE_WORKLOADS) == set(SITES)


class TestBatchesNeverAbort:
    """Invariant 1, at every engine site and for every fault kind."""

    @pytest.mark.parametrize(
        "site",
        [s for s, w in SITE_WORKLOADS.items() if w is not None],
    )
    @pytest.mark.parametrize(
        "exception", [InjectedFault, RecursionError, MemoryError]
    )
    def test_injected_exceptions_yield_per_item_outcomes(
        self, site, exception
    ):
        make_engine, make_terms = SITE_WORKLOADS[site]
        engine = make_engine()
        terms = make_terms(tag=f"abort-{site}-{exception.__name__}")
        plan = FaultPlan.single_site(
            site, seed=SEED, exception=exception, probability=0.4
        )
        with inject_faults(plan) as injector:
            outcomes = engine.normalize_many_outcomes(terms)
        assert injector.visits.get(site, 0) > 0, f"{site} never visited"
        assert len(outcomes) == len(terms)
        assert all(isinstance(o, Outcome) for o in outcomes)

    def test_full_pressure_still_returns_a_record_per_term(self):
        # probability 1.0 at rule selection: *every* interpreted
        # evaluation faults, and every term still gets its own record.
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        terms = _front_batch(tag="full-pressure")
        plan = FaultPlan.single_site("engine.match_root", seed=SEED)
        with inject_faults(plan) as injector:
            outcomes = engine.normalize_many_outcomes(terms)
        assert injector.total_fired >= len(terms)
        assert len(outcomes) == len(terms)
        assert all(o.status == TRUNCATED for o in outcomes)
        assert all(o.reason == "fault" for o in outcomes)

    def test_compiled_faults_degrade_to_interpreted(self):
        # The graceful-degradation ladder: the codegen rung faults on
        # every dispatch, the interpreted rung still delivers the
        # reference normal forms — outcomes are fully ok despite
        # constant injection, and every degradation is recorded.
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, backend="codegen"
        )
        terms = _front_batch(tag="degrade")
        plan = FaultPlan.single_site("compiled.root", seed=SEED)
        with inject_faults(plan) as injector:
            outcomes = engine.normalize_many_outcomes(terms)
        assert injector.total_fired > 0
        assert all(o.status == NORMALIZED for o in outcomes)
        reference = RewriteEngine.for_specification(QUEUE_SPEC)
        assert [o.term for o in outcomes] == reference.normalize_many(terms)
        fallbacks = engine.stats.fallbacks
        assert fallbacks.get("codegen_to_interpreted") == len(terms)

    def test_depth_fallback_rung_gives_the_reference_answer(self):
        # The other codegen rung: the generated functions nest past
        # their depth limit on deep queues and hand the node to the
        # interpreted machine, which must finish with the same answer.
        make_engine, make_terms = SITE_WORKLOADS["compiled.fallback"]
        engine = make_engine()
        terms = make_terms(tag="depth-rung")
        outcomes = engine.normalize_many_outcomes(terms)
        reference = RewriteEngine.for_specification(QUEUE_SPEC)
        assert [o.term for o in outcomes] == reference.normalize_many(terms)
        assert engine.stats.fallbacks.get("codegen_depth") >= 1

    def test_memo_eviction_never_changes_results(self):
        terms = _front_batch(tag="evict")
        expected = [
            RewriteEngine.for_specification(QUEUE_SPEC).normalize(t)
            for t in terms
        ]
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        plan = FaultPlan.single_site("engine.remember", seed=SEED, kind="evict")
        with inject_faults(plan) as injector:
            outcomes = engine.normalize_many_outcomes(terms)
        assert injector.total_fired > 0
        assert [o.value() for o in outcomes] == expected


class TestCacheConsistency:
    """Invariant 2: post-fault engines agree with a cold engine."""

    MIXED_PLAN_SITES = {
        "engine.match_root": FaultSpec(InjectedFault, probability=0.3),
        "engine.builtin": FaultSpec(RecursionError, probability=0.3),
        "engine.remember": FaultSpec(kind="evict", probability=0.5),
    }

    def test_interpreted_engine_survives_mixed_chaos(self):
        warm = RewriteEngine.for_specification(QUEUE_SPEC)
        terms = _front_batch(count=16, depth=8, tag="diff-interp")
        plan = FaultPlan(seed=SEED, sites=self.MIXED_PLAN_SITES)
        with inject_faults(plan) as injector:
            outcomes = warm.normalize_many_outcomes(terms)
        assert injector.total_fired > 0
        assert len(outcomes) == len(terms)
        # Disarmed, the survivor (warm memo and all) must agree with a
        # cold engine on the very terms the chaos run mangled.
        cold = RewriteEngine.for_specification(QUEUE_SPEC)
        for term in terms:
            assert warm.normalize(term) == cold.normalize(term)

    def test_compiled_engine_survives_mixed_chaos(self):
        warm = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        terms = _front_batch(count=16, depth=8, tag="diff-comp")
        plan = FaultPlan(
            seed=SEED,
            sites={
                "compiled.root": FaultSpec(InjectedFault, probability=0.3),
                "engine.remember": FaultSpec(kind="evict", probability=0.5),
            },
        )
        with inject_faults(plan) as injector:
            outcomes = warm.normalize_many_outcomes(terms)
        assert injector.total_fired > 0
        assert len(outcomes) == len(terms)
        cold = RewriteEngine.for_specification(QUEUE_SPEC, backend="codegen")
        for term in terms:
            assert warm.normalize(term) == cold.normalize(term)

    def test_builtin_faults_leave_set_engine_consistent(self):
        warm = RewriteEngine.for_specification(SET_SPEC)
        terms = _set_batch(tag="diff-builtin")
        plan = FaultPlan.single_site(
            "engine.builtin", seed=SEED, exception=MemoryError, probability=0.5
        )
        with inject_faults(plan):
            warm.normalize_many_outcomes(terms)
        cold = RewriteEngine.for_specification(SET_SPEC)
        for term in terms:
            assert warm.normalize(term) == cold.normalize(term)


class TestDiagnosisUnderFire:
    """Invariant 3: divergence vs fuel vs error stays honest while the
    injector is armed."""

    @pytest.mark.parametrize("backend", ("interpreted", "codegen"))
    def test_cycles_stay_diverged_not_fuel(self, backend):
        engine = RewriteEngine.for_specification(
            CYCLE_SPEC, backend=backend, budget=EvaluationBudget(fuel=2_000)
        )
        plan = FaultPlan.single_site(
            "engine.remember", seed=SEED, kind="evict"
        )
        with inject_faults(plan):
            outcome = engine.normalize_outcome(_cycling_term())
        assert outcome.status == DIVERGED
        assert outcome.reason == "cycle"
        assert outcome.trace, "a cycle report must carry its trace"

    def test_expensive_terms_stay_truncated_fuel(self):
        engine = RewriteEngine.for_specification(
            QUEUE_SPEC, budget=EvaluationBudget(fuel=20)
        )
        plan = FaultPlan.single_site(
            "engine.remember", seed=SEED, kind="evict"
        )
        with inject_faults(plan):
            outcome = engine.normalize_outcome(
                App(FRONT, (queue_term(range(200)),))
            )
        assert outcome.status == TRUNCATED
        assert outcome.reason == "fuel"
        assert not outcome.trace  # no spurious cycle evidence

    @pytest.mark.parametrize("backend", ("interpreted", "codegen"))
    def test_error_propagation_stays_strict(self, backend):
        from repro.spec.prelude import item

        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
        poisoned = App(
            FRONT,
            (App(ADD, (Err(QUEUE_SPEC.type_of_interest), item("a"))),),
        )
        plan = FaultPlan.single_site(
            "engine.remember", seed=SEED, kind="evict"
        )
        with inject_faults(plan):
            outcome = engine.normalize_outcome(poisoned)
        assert outcome.status == ERROR_VALUE
        assert isinstance(outcome.term, Err)
        assert outcome.ok


class TestSymbolicApplySite:
    def test_fault_in_apply_surfaces_and_interpreter_recovers(self):
        from repro.interp.symbolic import SymbolicInterpreter

        interp = SymbolicInterpreter(QUEUE_SPEC)
        plan = FaultPlan.single_site("symbolic.apply", seed=SEED, limit=1)
        with inject_faults(plan) as injector:
            with pytest.raises(InjectedFault):
                interp.apply("NEW")
        assert injector.fired.get("symbolic.apply") == 1
        # The interpreter (and its engine caches) must be unharmed.
        cold = SymbolicInterpreter(QUEUE_SPEC)
        assert interp.apply("NEW") == cold.apply("NEW")
        q = interp.apply("ADD", interp.apply("NEW"), "x")
        assert interp.to_python(interp.apply("FRONT", q)) == "x"


class TestHarness:
    def test_injection_scope_restores_previous_injector(self):
        outer = FaultInjector(FaultPlan(seed=SEED))
        previous = registry.install(outer)
        try:
            with inject_faults(FaultPlan(seed=SEED)):
                assert registry.ACTIVE is not outer
            assert registry.ACTIVE is outer
        finally:
            registry.install(previous)

    def test_disarmed_by_default(self):
        assert registry.ACTIVE is None

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.single_site("engine.nonsense")
        with pytest.raises(ValueError):
            FaultInjector(
                FaultPlan(sites={"bogus": FaultSpec()})
            )

    def test_same_seed_replays_the_same_faults(self):
        terms = _front_batch(tag="replay")

        def run(seed):
            engine = RewriteEngine.for_specification(QUEUE_SPEC)
            plan = FaultPlan.single_site(
                "engine.match_root", seed=seed, probability=0.3
            )
            with inject_faults(plan) as injector:
                outcomes = engine.normalize_many_outcomes(terms)
            return (
                [o.status for o in outcomes],
                dict(injector.fired),
            )

        assert run(SEED) == run(SEED)

    def test_firing_limit_caps_total_faults(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        terms = _front_batch(tag="limit")
        plan = FaultPlan.single_site("engine.match_root", seed=SEED, limit=2)
        with inject_faults(plan) as injector:
            outcomes = engine.normalize_many_outcomes(terms)
        assert injector.total_fired == 2
        assert sum(o.status != NORMALIZED for o in outcomes) <= 2
