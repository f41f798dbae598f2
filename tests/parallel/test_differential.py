"""Differential tests: serial vs sharded evaluation must be identical.

Property-based batches over every ADT specification's observations
(the E7/E10 workload shapes) go through a serial engine and a
``workers=2`` shard pool; outcomes, input ordering, merged rule-firing
counts, injected faults and diverging items must all agree.  The shard
pools are module-scoped — hypothesis re-uses the warm workers across
examples, exactly as real batch callers amortise the spawn cost.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adt.queue import FRONT, QUEUE_SPEC, new, queue_term
from repro.algebra.terms import App
from repro.parallel import ShardPool
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.rules import RuleSet
from repro.runtime import DIVERGED, EvaluationBudget
from repro.testing.faults import FaultInjector, FaultPlan
from repro.testing.faults import inject_faults
from tests.runtime.test_outcomes import CYCLE_SPEC, _cycling_term
from tests.testing.test_backend_differential import SPECS, observation_strategy

WORKERS = 2

_STRATEGIES = {name: observation_strategy(spec) for name, spec in SPECS.items()}
_SERIAL: dict[str, RewriteEngine] = {}
_POOLS: dict[str, ShardPool] = {}


def _serial_engine(name: str) -> RewriteEngine:
    engine = _SERIAL.get(name)
    if engine is None:
        engine = _SERIAL[name] = RewriteEngine.for_specification(SPECS[name])
    return engine


def _pool(name: str) -> ShardPool:
    pool = _POOLS.get(name)
    if pool is None:
        pool = _POOLS[name] = ShardPool(
            RuleSet.from_specification(SPECS[name]), WORKERS
        )
    return pool


def teardown_module() -> None:
    for pool in _POOLS.values():
        pool.close()


@pytest.mark.parametrize("name", sorted(SPECS))
@given(data=st.data())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.differing_executors],
)
def test_sharded_outcomes_match_serial(name, data):
    terms = data.draw(st.lists(_STRATEGIES[name], min_size=2, max_size=6))
    serial = _serial_engine(name).normalize_many_outcomes(terms)
    sharded = _pool(name).normalize_many_outcomes(terms)
    # Full structural equality covers results, statuses, reasons AND
    # ordering: outcome i belongs to input term i on both paths.
    assert sharded == serial


def test_merged_firing_counts_match_serial():
    # Unique payload bases keep items independent; cache_size=0 keeps
    # the serial side from absorbing later items' firings into its
    # shared memo, so the counts are exactly comparable.
    rules = RuleSet.from_specification(QUEUE_SPEC)
    subjects = [
        App(FRONT, (queue_term([f"p{i}", f"q{i}", f"r{i}"]),))
        for i in range(12)
    ]
    serial = RewriteEngine(rules, cache_size=0)
    serial.normalize_many_outcomes(subjects)
    expected = {
        str(rule): count
        for rule, count in serial.stats.firings.counts.items()
    }
    with ShardPool(rules, WORKERS, cache_size=0) as pool:
        pool.normalize_many_outcomes(subjects)
        shipped = pool.metrics_snapshot()["families"]["engine.rule_firings"]
    assert shipped == expected


def test_injected_faults_are_shard_invariant():
    # probability=1.0 fires on *every* visit regardless of each
    # process's seeded random stream, so serial and sharded runs see
    # identical faults (the only shard-invariant probability).
    plan = FaultPlan.single_site("engine.match_root", probability=1.0)
    rules = RuleSet.from_specification(QUEUE_SPEC)
    subjects = [
        App(FRONT, (queue_term([f"x{i}"]),)) for i in range(6)
    ] + [App(FRONT, (new(),))]
    serial = RewriteEngine(rules, cache_size=0)
    with inject_faults(plan):
        expected = serial.normalize_many_outcomes(subjects)
    with ShardPool(
        rules,
        WORKERS,
        cache_size=0,
        fault_injector=FaultInjector(plan),
    ) as pool:
        actual = pool.normalize_many_outcomes(subjects)
    assert actual == expected
    assert all(outcome.reason == "fault" for outcome in expected)


def test_diverging_items_are_shard_invariant():
    rules = RuleSet.from_specification(CYCLE_SPEC)
    budget = EvaluationBudget(fuel=2_000)
    subjects = [_cycling_term() for _ in range(4)]
    serial = RewriteEngine(rules)
    expected = serial.normalize_many_outcomes(subjects, budget)
    with ShardPool(rules, WORKERS) as pool:
        actual = pool.normalize_many_outcomes(subjects, budget)
    assert actual == expected
    assert {outcome.status for outcome in actual} == {DIVERGED}
    assert all(outcome.trace for outcome in actual)
