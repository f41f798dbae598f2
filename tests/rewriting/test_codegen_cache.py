"""Concurrency tests for the codegen module cache.

The cache is shared state read from engine-building threads and
inherited by forked shard-pool workers, so it is guarded by
``_MODULE_CACHE_LOCK``: concurrent builders converge on one module,
eviction never exposes a half-cleared dict, and a forked child sees a
consistent, warm cache.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.adt.queue import QUEUE_SPEC
from repro.rewriting import codegen
from repro.rewriting.rules import RuleSet

RULES = RuleSet.from_specification(QUEUE_SPEC)


def test_concurrent_builds_converge_on_one_module(monkeypatch):
    monkeypatch.setattr(codegen, "_MODULE_CACHE", {})
    modules = []
    barrier = threading.Barrier(4)

    def build():
        barrier.wait()  # maximise the race on the cold cache
        modules.append(codegen.codegen_module(RULES))

    threads = [threading.Thread(target=build) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(modules) == 4
    # Duplicate concurrent builds are allowed, but the setdefault under
    # the lock picks one winner that every caller receives.
    assert len({id(module) for module in modules}) == 1
    assert len(codegen._MODULE_CACHE) == 1


def test_eviction_clears_and_repopulates_atomically(monkeypatch):
    monkeypatch.setattr(codegen, "_MODULE_CACHE", {})
    monkeypatch.setattr(codegen, "_MODULE_CACHE_LIMIT", 1)
    codegen.codegen_module(RULES, cache_on=True)
    second = codegen.codegen_module(RULES, cache_on=False)  # hits the limit
    assert len(codegen._MODULE_CACHE) == 1
    assert codegen.codegen_module(RULES, cache_on=False) is second


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)
def test_forked_child_inherits_a_warm_cache():
    codegen.codegen_module(RULES)
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe()

    def probe(conn):
        inherited = list(codegen._MODULE_CACHE.values())
        module = codegen.codegen_module(RULES)
        conn.send(any(module is entry for entry in inherited))
        conn.close()

    process = context.Process(target=probe, args=(child_conn,))
    process.start()
    try:
        assert parent_conn.poll(30)
        assert parent_conn.recv() is True
    finally:
        process.join(timeout=30)
    assert process.exitcode == 0
