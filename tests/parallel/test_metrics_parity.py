"""Worker metrics reach the parent intact.

Each shard reply carries the worker's cumulative counts of every live
registry, summed but unsorted; the parent sorts and merges them only
when somebody reads ``pool.metrics_snapshot()`` or ``/metrics``.  Read
either way, the counts must equal a serial run of the same batches, and
a registry created before the workers fork must come home with its
worker-side counts.
"""

from __future__ import annotations

import multiprocessing
import os
import re

import pytest

from repro.adt.queue import FRONT, QUEUE_SPEC, REMOVE, new, queue_term
from repro.algebra.terms import App
from repro.obs import metrics as _metrics
from repro.parallel.pool import ShardPool
from repro.rewriting import RewriteEngine
from repro.rewriting.rules import RuleSet
from repro.serve import ReproServer, ServeClient

RULES = RuleSet.from_specification(QUEUE_SPEC)
IS_EMPTY = QUEUE_SPEC.operation("IS_EMPTY?")


def _batches() -> list[list]:
    """Drains of different lengths, error values and a fuel-light
    observation, in three batches of different sizes."""
    batches = []
    for b, size in enumerate((5, 8, 3)):
        batch = []
        for j in range(size):
            queue = queue_term([f"b{b}i{j}e{k}" for k in range(j + 1)])
            batch.append(App(FRONT, (App(REMOVE, (queue,)),)))
        batch.append(App(FRONT, (new(),)))
        batch.append(App(IS_EMPTY, (queue_term([f"b{b}"]),)))
        batches.append(batch)
    return batches


def _compared(snapshot: dict) -> tuple:
    return (
        snapshot["counters"]["engine.steps"],
        snapshot["families"]["engine.outcomes"],
        snapshot["families"]["engine.rule_firings"],
    )


def _serial(batches, **options) -> tuple:
    engine = RewriteEngine(RULES, **options)
    for batch in batches:
        engine.normalize_many_outcomes(batch)
    return _compared(engine.stats.registry.snapshot())


def test_pool_snapshot_equals_a_serial_run():
    # cache_size=0 on both sides: a memo shared by all items would
    # otherwise absorb work that each worker's own memo repeats.
    batches = _batches()
    with ShardPool(RULES, 2, cache_size=0) as pool:
        for batch in batches:
            pool.normalize_many_outcomes(batch)
        shipped = pool.metrics_snapshot()
    assert _compared(shipped) == _serial(batches, cache_size=0)
    # Read sorted, as every snapshot is.
    assert list(shipped["counters"]) == sorted(shipped["counters"])
    firings = shipped["families"]["engine.rule_firings"]
    assert list(firings.values()) == sorted(firings.values(), reverse=True)


_SAMPLE = re.compile(r'^(repro_engine_\w+_total)(?:\{key="(.*)"\})? (\d+)$')


def _engine_samples(text: str) -> dict:
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            name, key, value = match.groups()
            samples[(name, key)] = int(value)
    return samples


def test_metrics_endpoint_equals_a_serial_run():
    # Every item is distinct and shares no reducible subterm with
    # another, so memo tables change nothing and the daemon's default
    # engine options can stand.
    batch = [App(IS_EMPTY, (queue_term([f"d{j}"]),)) for j in range(7)]
    batch += [App(FRONT, (new(),)), App(IS_EMPTY, (new(),))]
    registry = _metrics.MetricsRegistry("parity-test")
    with ReproServer([QUEUE_SPEC], workers=2, registry=registry) as server:
        host, port = server.address
        client = ServeClient(host, port, timeout=30.0, retries=0)
        before = _engine_samples(client.metrics())
        client.normalize(batch, spec="Queue")
        after = _engine_samples(client.metrics())
    delta = {
        key: after[key] - before.get(key, 0)
        for key in after
        if after[key] != before.get(key, 0)
    }
    steps, outcomes, firings = _serial([batch], backend="codegen")
    expected = {("repro_engine_steps_total", None): steps}
    expected.update(
        {("repro_engine_outcomes_total", k): v for k, v in outcomes.items()}
    )
    expected.update(
        {("repro_engine_rule_firings_total", k): v for k, v in firings.items()}
    )
    assert {k: v for k, v in delta.items() if k in expected} == expected


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="inheriting a registry needs the fork start method",
)
def test_registry_made_before_the_fork_ships_worker_counts(monkeypatch):
    registry = _metrics.MetricsRegistry("prefork-test")
    items = registry.counter("prefork.worker_items")
    parent = os.getpid()
    original = RewriteEngine.normalize_many_outcomes

    def counted(self, terms, *args, **kwargs):
        if os.getpid() != parent:
            items.inc(len(terms))
        return original(self, terms, *args, **kwargs)

    monkeypatch.setattr(RewriteEngine, "normalize_many_outcomes", counted)
    batches = _batches()
    with ShardPool(RULES, 2, mp_context="fork") as pool:
        for batch in batches:
            pool.normalize_many_outcomes(batch)
        shipped = pool.metrics_snapshot()
    assert items.value == 0  # every count was made in a worker
    assert shipped["counters"]["prefork.worker_items"] == sum(map(len, batches))
