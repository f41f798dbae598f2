"""Guard: observability must be free when it is off.

Two invariants.  First, with no tracer installed (the default), running
a workload produces no trace events anywhere — a stray always-on emit
would break the "pay only when tracing" contract.  Second, the
disabled-tracing hot path (the metrics slots plus the ``ACTIVE is
None`` checks this PR added) stays within a few percent of itself with
a muted tracer installed: the cost of *having* the instrumentation must
not depend on whether a tracer object exists.

The timing comparison runs many pairs, alternating which side of a
pair goes first (so neither side always inherits a warm cache or a busy
neighbour's slice), and decides on the median per-pair ratio: one noisy
pair cannot flake CI.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

from repro.algebra.terms import Err, app
from repro.adt.queue import FRONT, QUEUE_SPEC, REMOVE, queue_term
from repro.obs import trace as trace_mod
from repro.obs.trace import Tracer, tracing
from repro.rewriting import RewriteEngine
from repro.runtime import EvaluationBudget

DRAIN_BUDGET = EvaluationBudget(fuel=10_000_000)

DRAIN_SIZE = 40
#: Allowed median ratio of muted-tracer time to no-tracer time: a 5%
#: budget.
OVERHEAD_BUDGET = 1.05
#: The median is taken over RETRIES x BEST_OF pairs.
RETRIES = 3
BEST_OF = 5


def _drain(engine: RewriteEngine) -> None:
    term = queue_term(range(DRAIN_SIZE))
    while True:
        front = engine.normalize(app(FRONT, term))
        if isinstance(front, Err):
            break
        term = engine.normalize(app(REMOVE, term))


def _timed_drain() -> float:
    engine = RewriteEngine.for_specification(QUEUE_SPEC, budget=DRAIN_BUDGET)
    start = perf_counter()
    _drain(engine)
    return perf_counter() - start


def test_no_tracer_means_no_events():
    assert trace_mod.ACTIVE is None
    bystander = Tracer()  # constructed but never installed
    engine = RewriteEngine.for_specification(QUEUE_SPEC, budget=DRAIN_BUDGET)
    _drain(engine)
    assert bystander.spans == []
    # Work still happened and was still counted — metrics are always on.
    assert engine.stats.rule_firings > 0


def test_muted_tracer_records_nothing():
    tracer = Tracer(sample=0.0)
    with tracing(tracer):
        engine = RewriteEngine.for_specification(QUEUE_SPEC, budget=DRAIN_BUDGET)
        _drain(engine)
    assert tracer.spans == []


def test_disabled_tracing_overhead_within_budget():
    muted = Tracer(sample=0.0)

    def muted_drain() -> float:
        with tracing(muted):
            return _timed_drain()

    ratios = []
    for pair in range(RETRIES * BEST_OF):
        if pair % 2:
            with_muted, baseline = muted_drain(), _timed_drain()
        else:
            baseline, with_muted = _timed_drain(), muted_drain()
        ratios.append(with_muted / baseline)
    ratio = median(ratios)
    assert ratio <= OVERHEAD_BUDGET, (
        f"muted tracer cost {ratio:.3f}x the uninstrumented drain "
        f"(median of {len(ratios)} pairs; budget {OVERHEAD_BUDGET}x)"
    )
