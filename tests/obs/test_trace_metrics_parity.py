"""Trace <-> metrics parity under sharded evaluation.

Two independent observability channels watch the same work: worker
span batches shipped home and merged into the parent tracer, and the
worker metrics snapshots merged into the pool's ``engine.rule_firings``
family.  If instrumentation is faithful, the per-rule firing counts
recovered from the merged *trace* must equal the merged *metrics* —
and, with memoisation disabled, both must equal a serial engine
running the same batch (the shared serial memo otherwise answers
repeat observations later items would re-fire; see
``tests/parallel/test_differential.py``).
"""

from __future__ import annotations

from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term
from repro.algebra.terms import App
from repro.obs.profile import attributes, firing_counts
from repro.obs.trace import Tracer, tracing
from repro.parallel import ShardPool
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.rules import RuleSet

WORKERS = 2


def _subjects(count: int) -> list:
    # Unique payload bases keep the items independent of each other.
    return [
        App(FRONT, (queue_term([f"p{i}", f"q{i}", f"r{i}"]),))
        for i in range(count)
    ]


def _firing_counts(tracer: Tracer) -> dict[str, int]:
    """Per-rule firing counts of the tracer's trace, read as every
    trace analysis reads it: through its OTLP span records."""
    return firing_counts(tracer.spans)


def _spans(tracer: Tracer, name: str) -> list[dict]:
    return [span for span in tracer.spans if span["name"] == name]


def test_traced_firings_match_metrics_and_serial():
    rules = RuleSet.from_specification(QUEUE_SPEC)
    subjects = _subjects(12)

    serial = RewriteEngine(rules, cache_size=0)
    serial.normalize_many_outcomes(subjects)
    expected = {
        str(rule): count
        for rule, count in serial.stats.firings.counts.items()
    }
    assert expected and sum(expected.values()) > len(subjects)

    tracer = Tracer()
    with ShardPool(rules, WORKERS, cache_size=0) as pool:
        with tracing(tracer):
            outcomes = pool.normalize_many_outcomes(subjects)
        shipped = pool.metrics_snapshot()["families"]["engine.rule_firings"]
    assert all(outcome.ok for outcome in outcomes)

    traced = _firing_counts(tracer)
    assert traced == shipped == expected


def test_merged_worker_spans_nest_under_the_batch():
    rules = RuleSet.from_specification(QUEUE_SPEC)
    tracer = Tracer()
    with ShardPool(rules, WORKERS) as pool:
        with tracing(tracer):
            pool.normalize_many_outcomes(_subjects(12))
    (batch,) = _spans(tracer, "parallel.batch")
    chunks = _spans(tracer, "worker.chunk")
    assert len(chunks) == WORKERS  # one strided share per worker
    for chunk in chunks:
        assert chunk["parentSpanId"] == batch["spanId"]
        assert attributes(chunk)["pid"] > 0  # stamped as a merge root attr
    # Every span in the merged timeline closed, after the spans it
    # encloses did.
    by_id = {span["spanId"]: span for span in tracer.spans}
    for span in tracer.spans:
        end = int(span["endTimeUnixNano"])
        assert end >= int(span["startTimeUnixNano"])
        if span is not batch:
            assert int(by_id[span["parentSpanId"]]["endTimeUnixNano"]) >= end


def test_trace_and_metrics_agree_even_with_memoisation():
    # With the default memo the *serial* baseline diverges (cache hits
    # answer repeat observations), but the two channels still watch the
    # identical worker processes — they must agree exactly regardless
    # of engine configuration.
    rules = RuleSet.from_specification(QUEUE_SPEC)
    tracer = Tracer()
    with ShardPool(rules, WORKERS) as pool:
        with tracing(tracer):
            pool.normalize_many_outcomes(_subjects(8))
        shipped = pool.metrics_snapshot()["families"]["engine.rule_firings"]
    assert _firing_counts(tracer) == shipped
