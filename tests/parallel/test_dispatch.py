"""How a :class:`ShardPool` deals a batch out to its workers.

Worker ``k`` of the ``n`` a batch checks out gets the strided share
``terms[k::n]`` in one message, so each worker makes one round trip per
batch.  These tests pin the share shapes, the balance striding buys on
a workload whose per-item cost grows along the batch, and the serial
first-limit contract when limits land on different shares — including
a share evaluated parent-side after its worker was killed.
"""

from __future__ import annotations

import os
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adt.queue import FRONT, QUEUE_SPEC, REMOVE, queue_term
from repro.algebra.terms import App
from repro.obs.profile import attributes
from repro.obs.trace import Tracer, tracing
from repro.parallel import ShardPool
from repro.rewriting.engine import RewriteEngine, RewriteLimitError
from repro.rewriting.rules import RuleSet
from repro.runtime import EvaluationBudget

RULES = RuleSet.from_specification(QUEUE_SPEC)
WORKERS = 2
BUDGET = EvaluationBudget(fuel=30)


@pytest.fixture(scope="module")
def shared_pool():
    # cache_size=0 on both sides: no memo warmth may move the point in a
    # rewrite where the fuel runs out.
    with ShardPool(RULES, WORKERS, cache_size=0) as pool:
        yield pool


def _cheap(i: int):
    return App(FRONT, (queue_term([f"a{i}", f"b{i}"]),))


def _busting(i: int):
    # Far over BUDGET, and distinct per index, so the raised ``.term``
    # names the item that raised.
    return App(FRONT, (queue_term(range(200 + i)),))


def _share_attributes(tracer: Tracer) -> list[dict]:
    return [
        attributes(span)
        for span in tracer.spans
        if span["name"] == "worker.chunk"
    ]


def test_shares_are_strided():
    tracer = Tracer()
    with ShardPool(RULES, WORKERS) as pool:
        with tracing(tracer):
            outcomes = pool.normalize_many_outcomes(
                [_cheap(i) for i in range(5)]
            )
    assert all(outcome.ok for outcome in outcomes)
    assert [attrs["items"] for attrs in _share_attributes(tracer)] == [3, 2]


def test_single_item_batch_sends_one_share():
    with ShardPool(RULES, WORKERS) as pool:
        pool.warm()
        before = pool.c_chunks.value
        (outcome,) = pool.normalize_many_outcomes([_cheap(0)])
        assert outcome.ok
        assert pool.c_chunks.value == before + 1


def test_growing_item_costs_stay_balanced():
    # Item j drains j elements off its own fresh queue before looking at
    # the front, so its cost grows with j.  Contiguous halves would give
    # one worker about twice the other's steps; strided shares come
    # within 5% of each other.
    subjects = []
    for j in range(32):
        term = queue_term([f"q{j}_{i}" for i in range(32)])
        for _ in range(j):
            term = App(REMOVE, (term,))
        subjects.append(App(FRONT, (term,)))
    with ShardPool(RULES, WORKERS, cache_size=0) as pool:
        pool.warm()
        outcomes = pool.normalize_many_outcomes(subjects)
        steps = [
            snapshot["counters"]["engine.steps"]
            for snapshot in pool._worker_snapshots.values()
        ]
    assert all(outcome.ok for outcome in outcomes)
    assert len(steps) == WORKERS
    assert min(steps) >= 0.85 * max(steps), steps


@st.composite
def _limit_batches(draw, odd_first: bool = False):
    """A batch with at least one fuel-busting item; with ``odd_first``
    the earliest one sits on worker 1's share."""
    size = draw(st.integers(min_value=2, max_value=9))
    first = draw(st.sampled_from(range(int(odd_first), size, 1 + odd_first)))
    rest = size - first - 1
    later = draw(st.lists(st.booleans(), min_size=rest, max_size=rest))
    busting = [False] * first + [True] + later
    return [
        _busting(i) if bust else _cheap(i) for i, bust in enumerate(busting)
    ]


def _assert_raises_like_serial(pool: ShardPool, terms: list) -> None:
    serial = RewriteEngine(RULES, cache_size=0)
    with pytest.raises(RewriteLimitError) as serial_exc:
        serial.normalize_many(terms, BUDGET)
    with pytest.raises(RewriteLimitError) as pool_exc:
        pool.normalize_many(terms, BUDGET)
    assert pool_exc.value.term == serial_exc.value.term
    assert pool_exc.value.reason == serial_exc.value.reason


@given(terms=_limit_batches(odd_first=True))
@settings(max_examples=15, deadline=None)
def test_first_limit_on_worker_one_raises_like_serial(shared_pool, terms):
    _assert_raises_like_serial(shared_pool, terms)


@given(terms=_limit_batches())
# Worker 1's share is [1, 3, 5]: its limit at share index 2 is item 5,
# which must lose to item 4 on worker 0's share.
@example(terms=[_cheap(i) for i in range(4)] + [_busting(4), _busting(5)])
@settings(max_examples=12, deadline=None)
def test_first_limit_from_a_serial_share_raises_like_serial(terms):
    with ShardPool(RULES, WORKERS, cache_size=0) as pool:
        pool.warm()
        victim = pool._workers[1].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10.0)
        _assert_raises_like_serial(pool, terms)
        assert pool.degradations.get("worker_died") >= 1
        assert pool.c_serial_items.value >= 1
