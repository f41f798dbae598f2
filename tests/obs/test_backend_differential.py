"""Differential test: every backend must agree not only on *results*
but on *work done*.

The observability work makes "work done" observable — the per-rule
firing family — so this locks the codegen backend to the interpreted
reference on the E7 (symbolic
queue script) and E10 (FIFO drain) workloads: identical normal forms
AND identical per-rule firing counts.  A backend optimisation that
skips or duplicates rewrites now fails loudly instead of silently
skewing benchmark comparisons.
"""

from __future__ import annotations

import pytest

from repro.algebra.terms import Err, app
from repro.adt.queue import FRONT, QUEUE_SPEC, REMOVE, queue_term
from repro.interp import facade_class
from repro.obs.profile import firing_counts
from repro.obs.trace import Tracer, rule_id, tracing
from repro.rewriting import RewriteEngine

DRAIN_SIZE = 24

BACKENDS = ("interpreted", "codegen")


def _drain(engine: RewriteEngine, size: int) -> list:
    """The E10 workload: FIFO-drain a ``size``-element queue, returning
    every observed front element."""
    term = queue_term(range(size))
    fronts = []
    while True:
        front = engine.normalize(app(FRONT, term))
        if isinstance(front, Err):
            break
        fronts.append(front)
        term = engine.normalize(app(REMOVE, term))
    return fronts


def _firings(engine: RewriteEngine) -> dict:
    return {
        rule_id(rule): count
        for rule, count in engine.stats.firings.counts.items()
    }


@pytest.mark.parametrize("cache_size", [4096, 0], ids=["memo", "no-memo"])
def test_e10_drain_backends_agree_on_results_and_firings(cache_size):
    fronts = {}
    firings = {}
    for backend in BACKENDS:
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
        engine.cache_size = cache_size
        fronts[backend] = _drain(engine, DRAIN_SIZE)
        firings[backend] = _firings(engine)

    assert len(fronts["interpreted"]) == DRAIN_SIZE
    assert sum(firings["interpreted"].values()) > 0
    for backend in BACKENDS[1:]:
        assert fronts[backend] == fronts["interpreted"]
        assert firings[backend] == firings["interpreted"]


def test_e7_symbolic_script_backends_agree():
    def script(facade):
        queue = facade.new()
        for index in range(8):
            queue = queue.add(index)
        observed = []
        while not queue.is_empty():
            observed.append(queue.front())
            queue = queue.remove()
        return observed

    facades = {
        backend: facade_class(QUEUE_SPEC, backend=backend)
        for backend in BACKENDS
    }
    observed = {backend: script(f) for backend, f in facades.items()}
    firings = {
        backend: _firings(f._interpreter.engine)
        for backend, f in facades.items()
    }
    for backend in BACKENDS[1:]:
        assert observed[backend] == observed["interpreted"]
        assert firings[backend] == firings["interpreted"]


def test_traces_agree_with_registries_on_all_backends():
    # The acceptance invariant, in-process: with sampling off, the
    # trace's per-rule counts (step events on the interpreted backend,
    # aggregated firings events on codegen) equal the metrics
    # registry's firing family exactly — and therefore each other.
    per_backend = {}
    for backend in BACKENDS:
        engine = RewriteEngine.for_specification(QUEUE_SPEC, backend=backend)
        tracer = Tracer()
        with tracing(tracer):
            _drain(engine, 10)
        traced = firing_counts(tracer.spans)
        assert traced == _firings(engine)
        per_backend[backend] = traced
    for backend in BACKENDS[1:]:
        assert per_backend[backend] == per_backend["interpreted"]
