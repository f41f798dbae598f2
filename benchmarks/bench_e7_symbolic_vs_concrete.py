"""E7 — symbolic interpretation's "significant loss in efficiency".

Paper claim (section 5): without an implementation "the operations of
the algebra may be interpreted symbolically.  Thus, except for a
significant loss in efficiency, the lack of an implementation can be
made completely transparent to the user."

We measure the factor: the same operation script run through (a) the
hand implementation, (b) the symbolically interpreted specification,
and (c) a native Python baseline.  The expected shape: concrete beats
symbolic by one to three orders of magnitude, and behaviour is
identical.
"""

import pytest

from repro.adt.queue import ListQueue, QUEUE_SPEC
from repro.adt.symboltable import SYMBOLTABLE_SPEC, SymbolTable
from repro.interp import facade_class

from conftest import report

_QueueFacade = facade_class(QUEUE_SPEC)
_QueueFacadeCodegen = facade_class(QUEUE_SPEC, backend="codegen")
_TableFacade = facade_class(SYMBOLTABLE_SPEC)

SCRIPT_LENGTH = 24


def _queue_script_concrete():
    queue = ListQueue.new()
    for index in range(SCRIPT_LENGTH):
        queue = queue.add(index)
    seen = []
    while not queue.is_empty():
        seen.append(queue.front())
        queue = queue.remove()
    return seen


def _queue_script_symbolic():
    queue = _QueueFacade.new()
    for index in range(SCRIPT_LENGTH):
        queue = queue.add(index)
    seen = []
    while not queue.is_empty():
        seen.append(queue.front())
        queue = queue.remove()
    return seen


def _queue_script_native():
    from collections import deque

    queue: deque = deque()
    for index in range(SCRIPT_LENGTH):
        queue.append(index)
    seen = []
    while queue:
        seen.append(queue[0])
        queue.popleft()
    return seen


def test_e7_queue_concrete(benchmark):
    result = benchmark(_queue_script_concrete)
    assert result == list(range(SCRIPT_LENGTH))


def test_e7_queue_symbolic(benchmark):
    result = benchmark(_queue_script_symbolic)
    assert result == list(range(SCRIPT_LENGTH))


def _queue_script_codegen():
    queue = _QueueFacadeCodegen.new()
    for index in range(SCRIPT_LENGTH):
        queue = queue.add(index)
    seen = []
    while not queue.is_empty():
        seen.append(queue.front())
        queue = queue.remove()
    return seen


def test_e7_queue_symbolic_codegen(benchmark):
    """The symbolic script again, through the codegen backend — the
    'significant loss in efficiency' after rule-set compilation."""
    result = benchmark(_queue_script_codegen)
    assert result == list(range(SCRIPT_LENGTH))


def test_e7_codegen_narrows_gap(benchmark):
    """Codegen symbolic vs interpreted symbolic vs concrete, cold
    memos each round: compilation narrows the gap but the concrete
    implementation still wins (the paper's claim survives)."""
    import time

    def measure():
        start = time.perf_counter()
        for _ in range(3):
            _queue_script_concrete()
        concrete = time.perf_counter() - start

        timings = {}
        for name, facade in (
            ("interpreted", _QueueFacade),
            ("codegen", _QueueFacadeCodegen),
        ):
            facade._interpreter.engine.clear_cache()
            start = time.perf_counter()
            for _ in range(3):
                script = (
                    _queue_script_symbolic
                    if name == "interpreted"
                    else _queue_script_codegen
                )
                script()
            timings[name] = time.perf_counter() - start
        return (
            timings["interpreted"] / concrete,
            timings["codegen"] / concrete,
        )

    interpreted_factor, codegen_factor = benchmark(measure)
    benchmark.extra_info["interpreted_slowdown"] = round(interpreted_factor, 1)
    benchmark.extra_info["codegen_slowdown"] = round(codegen_factor, 1)
    report(
        "E7: rule-set compilation narrows the gap (queue script)",
        ["implementation", "relative cost"],
        [
            ["hand implementation", "1x"],
            ["symbolic, interpreted engine", f"{interpreted_factor:.0f}x"],
            ["symbolic, codegen engine", f"{codegen_factor:.0f}x"],
        ],
    )
    # Concrete still wins; compilation must not cost more than the
    # generic matcher on the same workload.
    assert codegen_factor > 1
    assert codegen_factor < interpreted_factor


def test_e7_queue_native(benchmark):
    result = benchmark(_queue_script_native)
    assert result == list(range(SCRIPT_LENGTH))


def _table_script(table_factory):
    table = table_factory()
    for scope in range(3):
        table = table.enterblock()
        for index in range(4):
            table = table.add(f"v{scope}_{index}", "int")
    hits = 0
    for scope in range(3):
        for index in range(4):
            if table.retrieve(f"v{scope}_{index}") == "int":
                hits += 1
    return hits


def test_e7_symboltable_concrete(benchmark):
    assert benchmark(_table_script, SymbolTable.init) == 12


def test_e7_symboltable_symbolic(benchmark):
    assert benchmark(_table_script, _TableFacade.init) == 12


def test_e7_efficiency_factor(benchmark):
    """Measure the slowdown factor directly and assert its direction.

    Two symbolic variants are measured: the engine as shipped (ground
    normal forms memoised) and with the cache disabled — the naive
    rewriting cost closest to what the paper's authors would have seen.
    The shape assertion is that even the cached variant pays at least
    10x — the paper's 'significant loss in efficiency' survives fifty
    years of cheap memory.
    """
    import time

    def measure():
        start = time.perf_counter()
        for _ in range(3):
            _queue_script_concrete()
        concrete = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(3):
            _queue_script_symbolic()
        symbolic_cached = time.perf_counter() - start

        uncached = facade_class(QUEUE_SPEC)
        uncached._interpreter.engine.cache_size = 0
        uncached._interpreter.engine._cache.clear()

        def run_uncached():
            queue = uncached.new()
            for index in range(SCRIPT_LENGTH):
                queue = queue.add(index)
            while not queue.is_empty():
                queue.front()
                queue = queue.remove()

        start = time.perf_counter()
        run_uncached()
        symbolic_uncached = 3 * (time.perf_counter() - start)

        return symbolic_cached / concrete, symbolic_uncached / concrete

    cached_factor, uncached_factor = benchmark(measure)
    benchmark.extra_info["cached_slowdown"] = round(cached_factor, 1)
    benchmark.extra_info["uncached_slowdown"] = round(uncached_factor, 1)
    report(
        "E7: symbolic vs concrete (queue script)",
        ["implementation", "relative cost"],
        [
            ["hand implementation", "1x"],
            ["symbolic, memoised engine", f"{cached_factor:.0f}x"],
            ["symbolic, naive rewriting", f"{uncached_factor:.0f}x"],
        ],
    )
    assert cached_factor > 10, (
        f"expected a significant loss, measured {cached_factor:.1f}x"
    )
    assert uncached_factor > cached_factor
