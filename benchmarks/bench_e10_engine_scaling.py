"""E10 — engine scaling and the design-choice ablations.

Supports section 5's "scale up" claim: the cost of the mechanical
machinery (rewriting, completeness checking) must grow tamely with term
and specification size.  Also benches value-mode normalisation vs full
symbolic simplification, and the codegen backend against the
interpreted engine.
"""

import pytest

from repro.algebra.terms import app
from repro.adt.queue import FRONT, QUEUE_SPEC, REMOVE, queue_term
from repro.rewriting import RewriteEngine, RuleSet
from repro.runtime import EvaluationBudget
from repro.spec.parser import parse_specification
from repro.analysis import check_sufficient_completeness

from conftest import report

RULES = RuleSet.from_specification(QUEUE_SPEC)


def _drain(engine: RewriteEngine, size: int) -> int:
    term = queue_term(range(size))
    steps = 0
    while True:
        empty = engine.normalize(app(FRONT, term))
        from repro.algebra.terms import Err

        if isinstance(empty, Err):
            break
        term = engine.normalize(app(REMOVE, term))
        steps += 1
    return steps


@pytest.mark.parametrize("size", [8, 32, 128])
def test_e10_rewrite_throughput(benchmark, size):
    engine = RewriteEngine(RULES)
    drained = benchmark(_drain, engine, size)
    assert drained == size
    benchmark.extra_info["queue_size"] = size
    benchmark.extra_info["rewrite_steps"] = engine.stats.steps


def test_e10_backend_ablation(benchmark):
    """Codegen vs interpreted backend on the same drain, cold caches
    each round (also in BENCH_E10.json)."""
    import time

    def measure():
        timings = {}
        for backend in ("interpreted", "codegen"):
            engine = RewriteEngine(
                RULES, backend=backend, budget=EvaluationBudget(fuel=10_000_000)
            )
            if backend == "codegen":
                engine.compiled_rules()
            start = time.perf_counter()
            drained = _drain(engine, 64)
            timings[backend] = time.perf_counter() - start
            assert drained == 64
        return timings

    timings = benchmark(measure)
    speedup = timings["interpreted"] / timings["codegen"]
    report(
        "E10: evaluation backend ablation (drain of 64)",
        ["backend", "relative"],
        [
            ["interpreted", "1.0x"],
            ["codegen", f"{1 / speedup:.2f}x"],
        ],
    )
    benchmark.extra_info["codegen_speedup"] = round(speedup, 2)
    # Generated code must beat the generic matcher on this workload.
    assert speedup > 1.0


def test_e10_normalize_vs_simplify(benchmark):
    """Value-mode normalisation vs symbolic simplification on the same
    ground terms: simplify explores untaken branches, so it pays more."""
    import time

    engine = RewriteEngine(RULES, budget=EvaluationBudget(fuel=500_000))
    term = app(REMOVE, queue_term(range(24)))

    def measure():
        start = time.perf_counter()
        for _ in range(10):
            engine.normalize(term)
        normalize = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(10):
            engine.simplify(term)
        simplify = time.perf_counter() - start
        return normalize, simplify

    normalize, simplify = benchmark(measure)
    benchmark.extra_info["simplify_over_normalize"] = round(
        simplify / normalize, 2
    )
    assert engine.normalize(term) == engine.simplify(term)


def test_e10_cache_ablation(benchmark):
    """Ground normal-form memoisation on vs off, on the symbolic-façade
    workload that motivates it (repeated observation of growing terms)."""
    import time

    def measure():
        timings, engines = {}, {}
        for name, cache in (("cached", 4096), ("uncached", 0)):
            engine = engines[name] = RewriteEngine(RULES, cache_size=cache)
            start = time.perf_counter()
            _drain(engine, 48)
            timings[name] = time.perf_counter() - start
        return timings, engines

    timings, engines = benchmark(measure)
    factor = timings["uncached"] / timings["cached"]
    report(
        "E10: normal-form cache ablation",
        ["engine", "relative"],
        [
            ["cached", "1.0x"],
            ["uncached", f"{factor:.2f}x"],
        ],
    )
    benchmark.extra_info["uncached_over_cached"] = round(factor, 2)
    # The drain workload re-normalises every prefix: the memo must
    # answer probes and save rewrite steps.  Counts repeat exactly;
    # the timing factor above is reported, not asserted.
    cached, uncached = engines["cached"].stats, engines["uncached"].stats
    assert cached.cache_hits > 0 and uncached.cache_hits == 0
    assert cached.steps < uncached.steps


def _wide_spec(observers: int):
    lines = [
        "type Wide",
        "uses Boolean",
        "operations",
        "  MKW: -> Wide",
        "  GROW: Wide -> Wide",
    ]
    for index in range(observers):
        lines.append(f"  OBS{index}?: Wide -> Boolean")
    lines.append("vars")
    lines.append("  w: Wide")
    lines.append("axioms")
    for index in range(observers):
        lines.append(f"  OBS{index}?(MKW) = true")
        lines.append(f"  OBS{index}?(GROW(w)) = OBS{index}?(w)")
    return parse_specification("\n".join(lines))


@pytest.mark.parametrize("observers", [8, 32, 128])
def test_e10_completeness_check_scaling(benchmark, observers):
    spec = _wide_spec(observers)
    result = benchmark(check_sufficient_completeness, spec, sample_terms=0)
    assert result.sufficiently_complete
    benchmark.extra_info["observers"] = observers


def test_e10_scaling_table(benchmark):
    import time

    def measure():
        rows = []
        for observers in (8, 32, 128):
            spec = _wide_spec(observers)
            start = time.perf_counter()
            check_sufficient_completeness(spec, sample_terms=0)
            rows.append([observers, f"{time.perf_counter() - start:.4f}s"])
        return rows

    rows = benchmark(measure)
    report(
        "E10: completeness-check cost vs spec width",
        ["observer operations", "check time"],
        rows,
    )
