"""Tests for :class:`repro.parallel.ShardPool`.

The contract: a pool observes exactly the serial batch semantics —
input order, per-item outcomes, first-limit raising — while evaluating
in worker processes; it ships worker metrics home; and it *never* loses
a batch, degrading to parent-side serial evaluation when the pool
breaks.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.adt.queue import FRONT, QUEUE_SPEC, new, queue_term
from repro.algebra.terms import App, Err
from repro.obs import metrics as _metrics
from repro.parallel import ShardPool
from repro.rewriting.engine import RewriteEngine, RewriteLimitError
from repro.rewriting.rules import RuleSet
from repro.runtime import EvaluationBudget

RULES = RuleSet.from_specification(QUEUE_SPEC)


def _subjects(n: int) -> list:
    """Drain observations with unique payloads (no cross-item sharing)
    plus one guaranteed ``error`` case."""
    subjects = [
        App(FRONT, (queue_term([f"a{i}", f"b{i}"]),)) for i in range(n - 1)
    ]
    subjects.append(App(FRONT, (new(),)))  # FRONT(NEW) = error
    return subjects


class TestSerialContract:
    def test_results_match_serial_in_order(self):
        subjects = _subjects(12)[:-1]  # strict mode: drop the error case
        expected = RewriteEngine(RULES).normalize_many(subjects)
        with ShardPool(RULES, 2) as pool:
            assert pool.normalize_many(subjects) == expected

    def test_outcomes_match_serial_in_order(self):
        subjects = _subjects(12)
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        with ShardPool(RULES, 2) as pool:
            actual = pool.normalize_many_outcomes(subjects)
        assert actual == expected
        assert isinstance(actual[-1].term, Err)  # the FRONT(NEW) item

    def test_first_limit_raises_like_serial(self):
        # Item 2 needs far more fuel than the budget grants.  cache_size
        # is zero on both sides so no shared-memo warmth perturbs where
        # in the rewrite the fuel runs out.  The budget comes per call,
        # then at construction only (as ``repro eval --workers`` and the
        # daemon give it), which reaches the workers' engines.
        subjects = _subjects(6)[:-1]
        subjects[2] = App(FRONT, (queue_term(range(200)),))
        budget = EvaluationBudget(fuel=30)
        for built, per_call in ((None, budget), (budget, None)):
            serial = RewriteEngine(RULES, cache_size=0, budget=built)
            with pytest.raises(RewriteLimitError) as serial_exc:
                serial.normalize_many(subjects, per_call)
            with ShardPool(RULES, 2, cache_size=0, budget=built) as pool:
                with pytest.raises(RewriteLimitError) as pool_exc:
                    pool.normalize_many(subjects, per_call)
            assert pool_exc.value.reason == serial_exc.value.reason
            assert pool_exc.value.term == serial_exc.value.term
            assert pool_exc.value.fuel == serial_exc.value.fuel == 30

    @pytest.mark.parametrize("backend", ("codegen",))
    def test_backends_agree_with_interpreted_serial(self, backend):
        subjects = _subjects(8)
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        with ShardPool(RULES, 2, backend=backend) as pool:
            assert pool.normalize_many_outcomes(subjects) == expected


class TestLifecycleAndDegradation:
    def test_warm_spawns_worker_processes(self):
        with ShardPool(RULES, 2) as pool:
            pids = pool.warm()
            assert 1 <= len(pids) <= 2
            assert os.getpid() not in pids

    def test_dead_workers_never_lose_the_batch(self):
        subjects = _subjects(8)
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        with ShardPool(RULES, 2) as pool:
            for pid in pool.warm():
                os.kill(pid, signal.SIGKILL)
            actual = pool.normalize_many_outcomes(subjects)
            assert actual == expected
            assert sum(pool.degradations.counts.values()) >= 1
            assert pool.c_serial_items.value >= 1
            # Degradation is sticky: later batches run serially too.
            again = pool.normalize_many_outcomes(subjects)
            assert again == expected

    def test_closed_pool_evaluates_serially(self):
        subjects = _subjects(6)
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        pool = ShardPool(RULES, 2)
        pool.close()
        assert pool.normalize_many_outcomes(subjects) == expected
        assert pool.c_serial_items.value == len(subjects)

    def test_constructor_rejects_unwireable_rules(self):
        from repro.algebra.signature import Operation
        from repro.algebra.sorts import Sort
        from repro.algebra.terms import Var
        from repro.parallel import WireError
        from repro.rewriting.rules import RewriteRule

        sort = Sort("Widget")
        op = Operation("OPAQUE", (sort,), sort, builtin=lambda x: x)
        x = Var("x", sort)
        rules = RuleSet([RewriteRule(App(op, (x,)), x)])
        # A lambda builtin cannot cross the process boundary; the
        # constructor says so, before any worker starts, so its owner
        # can choose in-process evaluation instead.
        with pytest.raises(WireError):
            ShardPool(rules, 2)


class TestObservability:
    def test_worker_metrics_ship_home(self):
        subjects = _subjects(10)
        with ShardPool(RULES, 2) as pool:
            pool.normalize_many_outcomes(subjects)
            snap = pool.metrics_snapshot()
            assert snap["counters"]["engine.steps"] > 0
            assert sum(snap["families"]["engine.rule_firings"].values()) > 0
            # Worker-process gauges have no meaningful process-wide sum.
            assert snap["gauges"] == {}
            # The pool registered itself as a snapshot source, so the
            # process-wide aggregate view folds the workers in.
            aggregate = _metrics.aggregate_snapshot()
            assert aggregate["counters"]["parallel.items"] >= len(subjects)

    def test_merged_firing_counts_match_serial(self):
        # cache_size=0 makes items independent on both sides: the serial
        # shared memo would otherwise absorb later items' firings.
        subjects = _subjects(10)
        serial = RewriteEngine(RULES, cache_size=0)
        serial.normalize_many_outcomes(subjects)
        expected = {
            str(rule): count
            for rule, count in serial.stats.firings.counts.items()
        }
        with ShardPool(RULES, 2, cache_size=0) as pool:
            pool.normalize_many_outcomes(subjects)
            shipped = pool.metrics_snapshot()["families"][
                "engine.rule_firings"
            ]
        assert shipped == expected
