"""Tests for the metrics registry (:mod:`repro.obs.metrics`)."""

from __future__ import annotations

import pytest

from repro.algebra.terms import app
from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term
from repro.obs.metrics import (
    EVAL_SECONDS_BUCKETS,
    FUEL_BUCKETS,
    Counter,
    CounterFamily,
    GLOBAL,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_snapshot,
    histogram_quantile,
    substrate_counters,
    suggest_fuel_budget,
)
from repro.rewriting import RewriteEngine


class TestCounter:
    def test_inc_value_reset(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0

    def test_slot_adoption_shares_the_backing_cell(self):
        # The substrate pattern: the hot path owns a bare list cell and
        # increments it inline; the counter just wraps it.
        cell = [7]
        counter = Counter("adopted", slot=cell)
        cell[0] += 3
        assert counter.value == 10
        counter.inc()
        assert cell[0] == 11


class TestGauge:
    def test_set_and_reset(self):
        gauge = Gauge("g")
        gauge.set(42.5)
        assert gauge.value == 42.5
        gauge.reset()
        assert gauge.value == 0

    def test_fn_backed_gauge_reads_live_value(self):
        backing = {"n": 1}
        gauge = Gauge("live", fn=lambda: backing["n"])
        assert gauge.value == 1
        backing["n"] = 9
        assert gauge.value == 9


class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # bisect_right: values equal to a bound land in that bound's
        # bucket (<= semantics).
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.5)

    def test_snapshot_and_reset(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.25)
        snap = hist.snapshot()
        assert snap == {
            "bounds": [1.0],
            "counts": [1, 0],
            "sum": 0.25,
            "count": 1,
        }
        hist.reset()
        assert hist.snapshot()["count"] == 0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))


class TestCounterFamily:
    def test_inc_get_total(self):
        family = CounterFamily("f")
        family.inc("a")
        family.inc("b", 3)
        family.inc("a")
        assert family.get("a") == 2
        assert family.get("missing") == 0
        assert family.total == 5

    def test_ranked_busiest_first_with_stable_ties(self):
        family = CounterFamily("f")
        family.inc("beta", 2)
        family.inc("alpha", 2)
        family.inc("gamma", 5)
        assert family.ranked() == [("gamma", 5), ("alpha", 2), ("beta", 2)]
        assert family.ranked(limit=1) == [("gamma", 5)]

    def test_summary_renders_counts_then_labels(self):
        family = CounterFamily("f")
        assert family.summary() == "(no rule firings recorded)"
        family.inc("rule-x", 12)
        assert family.summary() == f"{12:>8}  rule-x"

    def test_snapshot_stringifies_keys(self):
        family = CounterFamily("f")
        family.inc(("tuple", "key"), 1)
        assert family.snapshot() == {"('tuple', 'key')": 1}


class TestMetricsRegistry:
    def test_accessors_are_get_or_create(self):
        registry = MetricsRegistry("t")
        counter = registry.counter("c", help="first")
        assert registry.counter("c", help="ignored") is counter
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.family("f") is registry.family("f")
        assert registry.histogram("h").bounds == EVAL_SECONDS_BUCKETS

    def test_reset_clears_every_metric(self):
        registry = MetricsRegistry("t")
        registry.counter("c").inc(5)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(0.5)
        registry.family("f").inc("k")
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 0}
        assert snap["gauges"] == {"g": 0}
        assert snap["histograms"]["h"]["count"] == 0
        assert snap["families"] == {"f": {}}

    def test_snapshot_shape(self):
        registry = MetricsRegistry("t")
        registry.counter("c").inc()
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms", "families"}
        assert snap["counters"] == {"c": 1}


class TestAggregateSnapshot:
    def test_counters_and_families_sum_across_registries(self):
        a, b = MetricsRegistry("a"), MetricsRegistry("b")
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.family("f").inc("k", 1)
        b.family("f").inc("k", 4)
        merged = aggregate_snapshot([a, b])
        assert merged["counters"]["n"] == 5
        assert merged["families"]["f"] == {"k": 5}

    def test_histograms_merge_bucketwise_when_bounds_match(self):
        a, b = MetricsRegistry("a"), MetricsRegistry("b")
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.histogram("h", bounds=(1.0,)).observe(2.0)
        merged = aggregate_snapshot([a, b])["histograms"]["h"]
        assert merged["counts"] == [1, 1]
        assert merged["count"] == 2
        assert merged["sum"] == pytest.approx(2.5)

    def test_gauges_last_wins(self):
        a, b = MetricsRegistry("a"), MetricsRegistry("b")
        a.gauge("g").set(1)
        b.gauge("g").set(2)
        assert aggregate_snapshot([a, b])["gauges"]["g"] == 2

    def test_default_scope_includes_live_registries(self):
        registry = MetricsRegistry("live-scope-test")
        registry.counter("aggregate.probe").inc(11)
        merged = aggregate_snapshot()
        assert merged["counters"]["aggregate.probe"] >= 11


class TestSubstrateWiring:
    def test_global_registry_carries_the_substrate_metrics(self):
        names = set(GLOBAL.counters)
        assert {
            "intern.hits",
            "intern.misses",
            "rule_index.shape_memo_hits",
            "rule_index.shape_memo_misses",
        } <= names
        assert "intern.table_size" in GLOBAL.gauges

    def test_engine_work_moves_the_substrate_counters(self):
        before = substrate_counters()
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        engine.normalize(app(FRONT, queue_term(range(6))))
        after = substrate_counters()
        intern_before = before["intern.hits"] + before["intern.misses"]
        intern_after = after["intern.hits"] + after["intern.misses"]
        assert intern_after > intern_before
        assert GLOBAL.gauges["intern.table_size"].value > 0


class TestEngineStatsRegistry:
    def test_engine_stats_metrics_match_legacy_properties(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        engine.normalize(app(FRONT, queue_term(range(4))))
        stats = engine.stats
        snap = stats.registry.snapshot()
        assert snap["counters"]["engine.steps"] == stats.steps > 0
        assert snap["counters"]["engine.memo_probes"] == stats.cache_probes
        assert stats.rule_firings == sum(
            snap["families"]["engine.rule_firings"].values()
        )
        assert snap["histograms"]["engine.eval_seconds"]["count"] == 1
        assert snap["counters"]["engine.fuel_spent"] == stats.steps

    def test_outcome_statuses_are_counted(self):
        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        outcome = engine.normalize_outcome(app(FRONT, queue_term(range(2))))
        family = engine.stats.registry.family("engine.outcomes")
        assert family.get(outcome.status) == 1


class TestHistogramQuantile:
    def test_quantile_walks_cumulative_buckets(self):
        hist = Histogram("h", bounds=(1, 10, 100))
        for value in (1, 1, 5, 50):
            hist.observe(value)
        assert histogram_quantile(hist, 0.5) == 1
        assert histogram_quantile(hist, 0.75) == 10
        assert histogram_quantile(hist, 0.99) == 100

    def test_accepts_snapshot_dicts(self):
        hist = Histogram("h", bounds=(1, 10))
        hist.observe(5)
        assert histogram_quantile(hist.snapshot(), 0.99) == 10

    def test_empty_and_overflow_give_none(self):
        hist = Histogram("h", bounds=(1, 10))
        assert histogram_quantile(hist, 0.99) is None
        hist.observe(10_000)  # everything past the last bound
        assert histogram_quantile(hist, 0.99) is None


class TestSuggestFuelBudget:
    def test_p99_times_margin(self):
        hist = Histogram("h", bounds=FUEL_BUCKETS)
        for _ in range(99):
            hist.observe(100)  # lands in the 128 bucket
        hist.observe(5000)  # one outlier in the 16384 bucket
        # p99 over 100 observations is the 99th — still the 128 bucket.
        assert suggest_fuel_budget(hist) == 128 * 2
        assert suggest_fuel_budget(hist, margin=3.0) == 128 * 3
        assert suggest_fuel_budget(hist, quantile=1.0) == 16384 * 2

    def test_unobserved_histogram_suggests_nothing(self):
        assert suggest_fuel_budget(Histogram("h", bounds=FUEL_BUCKETS)) is None

    @pytest.mark.parametrize(
        "backend", ["interpreted", "codegen"]
    )
    def test_engine_fuel_histogram_feeds_the_suggestion(self, backend):
        # Both backends observe fuel-per-eval, so the suggestion
        # is available whichever backend did the measuring.
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
        for size in (2, 4, 8):
            engine.normalize(app(FRONT, queue_term(range(size))))
        hist = engine.stats.fuel_hist
        assert hist.count == 3
        suggested = suggest_fuel_budget(hist)
        assert suggested is not None
        # A safety-margined p99 must cover the costliest eval seen.
        assert suggested >= hist.sum / hist.count
