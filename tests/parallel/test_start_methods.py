"""ShardPool across multiprocessing start methods (satellite: spawn).

The pool defaults to ``fork`` where available; platforms without it
(Windows, some macOS configurations) get ``spawn``.  This suite runs
the serial-contract checks under every start method the host offers,
so the non-fork path is exercised for real — cold workers that import
and rebuild engines from the wire — not just covered by degradation.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.adt.queue import FRONT, QUEUE_SPEC, new, queue_term
from repro.algebra.terms import App, Err
from repro.parallel import ShardPool
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.rules import RuleSet

RULES = RuleSet.from_specification(QUEUE_SPEC)
AVAILABLE = multiprocessing.get_all_start_methods()


def _subjects(n: int) -> list:
    subjects = [
        App(FRONT, (queue_term([f"s{i}", f"t{i}"]),)) for i in range(n - 1)
    ]
    subjects.append(App(FRONT, (new(),)))  # FRONT(NEW) = error
    return subjects


def _pool(method: str, **kwargs) -> ShardPool:
    if method not in AVAILABLE:
        pytest.skip(f"start method {method!r} unavailable on this platform")
    return ShardPool(RULES, 2, mp_context=method, **kwargs)


@pytest.mark.parametrize("method", ("fork", "spawn", "forkserver"))
class TestStartMethods:
    def test_outcomes_match_serial(self, method):
        subjects = _subjects(8)
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        with _pool(method) as pool:
            actual = pool.normalize_many_outcomes(subjects)
        assert actual == expected
        assert isinstance(actual[-1].term, Err)

    def test_warm_spawns_real_children(self, method):
        with _pool(method) as pool:
            pids = pool.warm()
            assert pids, f"{method} pool failed to warm"
            assert os.getpid() not in pids

    def test_results_in_input_order(self, method):
        # Unequal per-item costs + strided shares: reassembly order is
        # easy to get wrong when interleaved shares finish out of order.
        subjects = [
            App(FRONT, (queue_term([f"v{i}"] * (1 + (i * 7) % 5)),))
            for i in range(10)
        ]
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        with _pool(method) as pool:
            assert pool.normalize_many_outcomes(subjects) == expected
