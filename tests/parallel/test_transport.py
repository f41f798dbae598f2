"""The shard pool's pipe-per-worker transport under stress.

Each worker owns one duplex pipe, and a batch checks workers out of
the pool for its duration.  These tests pin what that design must
survive without hanging or losing a batch: a worker killed between
batches, several threads sharing one pool, and an exception raised
inside a worker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading

import pytest

from repro.adt.queue import FRONT, QUEUE_SPEC, new, queue_term
from repro.algebra.terms import App
from repro.parallel import ShardPool
from repro.parallel import pool as pool_module
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.rules import RuleSet

RULES = RuleSet.from_specification(QUEUE_SPEC)


def _subjects(n: int, tag: str = "a") -> list:
    subjects = [
        App(FRONT, (queue_term([f"{tag}{i}"] * (1 + i % 4)),))
        for i in range(n - 1)
    ]
    subjects.append(App(FRONT, (new(),)))  # FRONT(NEW) = error
    return subjects


def _bounded(fn, timeout: float = 60.0):
    """Run ``fn`` in a thread; fail instead of hanging the suite."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "pool call hung"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestWorkerLoss:
    def test_worker_killed_between_batches(self):
        subjects = _subjects(8)
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        with ShardPool(RULES, 2) as pool:
            assert pool.normalize_many_outcomes(subjects) == expected
            assert not pool.degradations.counts
            victim = pool.warm()[0]
            os.kill(victim, signal.SIGKILL)
            actual = _bounded(lambda: pool.normalize_many_outcomes(subjects))
            assert actual == expected
            assert pool.degradations.get("worker_died") >= 1
            assert pool.c_serial_items.value >= 1


class TestConcurrentBatches:
    def test_four_threads_share_two_workers(self):
        engine = RewriteEngine(RULES)
        batches = {
            tag: [_subjects(3 + (k * 5) % 9, f"{tag}{k}") for k in range(6)]
            for tag in "pqrs"
        }
        expected = {
            tag: [engine.normalize_many_outcomes(b) for b in batch]
            for tag, batch in batches.items()
        }
        actual: dict = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads hard
        try:
            with ShardPool(RULES, 2) as pool:
                pool.warm()

                def drive(tag):
                    actual[tag] = [
                        pool.normalize_many_outcomes(b) for b in batches[tag]
                    ]

                threads = [
                    threading.Thread(target=drive, args=(tag,), daemon=True)
                    for tag in batches
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not pool.degradations.counts
                assert pool.c_serial_items.value == 0
                # Every checkout was matched by one checkin.
                assert pool._checked_out == 0
                assert len(pool._idle) == 2
        finally:
            sys.setswitchinterval(interval)
        assert actual == expected


def _raising_worker_run(*args, **kwargs):
    raise RuntimeError("injected worker fault")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched worker entry point reaches workers through fork",
)
class TestWorkerException:
    def test_exception_in_worker_run_degrades_to_serial(self, monkeypatch):
        # Forked workers inherit the patched module global, so every
        # share raises inside the worker process.
        monkeypatch.setattr(pool_module, "_worker_run", _raising_worker_run)
        subjects = _subjects(6)
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        pool = ShardPool(RULES, 2, mp_context="fork")
        try:
            pids = pool.warm()
            actual = _bounded(lambda: pool.normalize_many_outcomes(subjects))
            assert actual == expected
            assert pool.degradations.get("worker_died") >= 1
            assert pool.c_serial_items.value == len(subjects)
            # The exception came back as a reply: the workers are still
            # alive, the pool must not hang on them, and close() must
            # still reap them.
            assert all(w.process.is_alive() for w in pool._workers)
            again = _bounded(lambda: pool.normalize_many_outcomes(subjects))
            assert again == expected
        finally:
            _bounded(pool.close)
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)


def _raising_worker_init(*args, **kwargs):
    raise RuntimeError("injected start-up fault")


class TestStartFailure:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched worker entry point reaches workers through fork",
    )
    def test_worker_dying_at_start_degrades_warm(self, monkeypatch):
        monkeypatch.setattr(pool_module, "_worker_init", _raising_worker_init)
        subjects = _subjects(4)
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        pool = ShardPool(RULES, 2, mp_context="fork")
        try:
            assert _bounded(pool.warm) == []
            assert pool.degradations.get("warm_failed") == 1
            assert pool.normalize_many_outcomes(subjects) == expected
        finally:
            _bounded(pool.close)
        assert pool._workers == []

    def test_unusable_start_method_degrades_to_serial(self):
        subjects = _subjects(4)
        expected = RewriteEngine(RULES).normalize_many_outcomes(subjects)
        with ShardPool(RULES, 2, mp_context="no-such-method") as pool:
            assert pool.normalize_many_outcomes(subjects) == expected
            assert pool.degradations.get("pool_unavailable") == 1
            assert pool.c_serial_items.value == len(subjects)
