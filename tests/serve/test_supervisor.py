"""Tests for :class:`repro.serve.PoolSupervisor`.

Stub pools stand in for :class:`ShardPool` (same duck surface: a
``_broken`` flag, ``warm``, ``close``, ``_degrade``,
``normalize_many_outcomes``) and the clock is injected, so the backoff
and circuit-breaker policy is tested deterministically — no sleeps, no
real worker processes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

from repro.obs import metrics as _metrics
from repro.serve import PoolSupervisor


class _StubPool:
    """Duck-typed ShardPool.  ``break_after_batches=n`` makes the pool
    degrade itself on its n-th batch, like a worker dying mid-run."""

    def __init__(self, pids=(10_001, 10_002), break_after_batches=None):
        self._broken = False
        self._pids = list(pids)
        self._break_after = break_after_batches
        self.batches = 0
        self.closed = False

    def warm(self):
        return [] if self._broken else list(self._pids)

    def close(self):
        self.closed = True

    def _degrade(self, cause):
        self._broken = True

    def normalize_many_outcomes(self, terms, budget=None):
        self.batches += 1
        if self._break_after is not None and self.batches >= self._break_after:
            self._broken = True
        return ["outcome"] * len(terms)


class _Clock:
    def __init__(self):
        self.now = 1_000.0

    def __call__(self):
        return self.now


def _supervisor(factory, clock=None, **options):
    return PoolSupervisor(
        factory,
        clock=clock if clock is not None else _Clock(),
        registry=_metrics.MetricsRegistry("supervisor-test"),
        **options,
    )


class TestHealthyPath:
    def test_batches_route_through_the_pool(self):
        pool = _StubPool()
        supervisor = _supervisor(lambda: pool)
        assert supervisor.normalize_many_outcomes(["t1", "t2"]) == [
            "outcome",
            "outcome",
        ]
        assert pool.batches == 1
        assert supervisor.healthy
        assert supervisor.state == "closed"
        assert supervisor.worker_pids() == [10_001, 10_002]


class TestBackoff:
    def test_no_respawn_before_backoff_elapses(self):
        clock = _Clock()
        pools = []

        def factory():
            pools.append(_StubPool(break_after_batches=1))
            return pools[-1]

        supervisor = _supervisor(factory, clock, backoff_base=0.5)
        supervisor.normalize_many_outcomes(["t"])  # pool 1 breaks here
        assert not supervisor.healthy
        # Inside the backoff window: the broken pool keeps serving
        # (serial parent-side in the real pool) — no replacement yet.
        clock.now += 0.1
        assert supervisor.normalize_many_outcomes(["t"]) == ["outcome"]
        assert len(pools) == 1

    def test_respawn_after_backoff(self):
        clock = _Clock()
        pools = []

        def factory():
            # Only the first pool is crashy; the replacement is healthy.
            crashy = not pools
            pools.append(_StubPool(break_after_batches=1 if crashy else None))
            return pools[-1]

        supervisor = _supervisor(factory, clock, backoff_base=0.5)
        supervisor.normalize_many_outcomes(["t"])
        clock.now += 0.6
        supervisor.normalize_many_outcomes(["t"])
        assert len(pools) == 2
        assert pools[0].closed  # the broken pool was torn down
        assert supervisor.healthy

    def test_backoff_doubles_per_consecutive_crash(self):
        clock = _Clock()
        supervisor = _supervisor(
            lambda: _StubPool(break_after_batches=1),
            clock,
            backoff_base=0.5,
            backoff_cap=10.0,
            max_crashes=10,
        )
        supervisor.normalize_many_outcomes(["t"])  # crash 1 -> 0.5s
        clock.now += 0.6
        supervisor.normalize_many_outcomes(["t"])  # respawn, crash 2 -> 1.0s
        before = supervisor._crashes
        clock.now += 0.6  # inside the doubled window
        supervisor.normalize_many_outcomes(["t"])
        assert supervisor._crashes == before  # no respawn, no new crash
        clock.now += 0.5  # now past the 1.0s window
        supervisor.normalize_many_outcomes(["t"])
        assert supervisor._crashes == before + 1


class TestCircuitBreaker:
    def _crash_loop(self, supervisor, clock, times):
        """Drive ``times`` consecutive crashes; the clock advances
        *between* batches (never after the last one, so the final
        crash's cooldown window is intact when the test resumes)."""
        for i in range(times):
            if i:
                clock.now += 1_000.0  # clear the previous backoff window
            supervisor.normalize_many_outcomes(["t"])

    def test_opens_after_max_crashes(self):
        clock = _Clock()
        supervisor = _supervisor(
            lambda: _StubPool(break_after_batches=1),
            clock,
            backoff_base=0.01,
            max_crashes=3,
            cooldown=30.0,
        )
        self._crash_loop(supervisor, clock, 2)
        assert supervisor.state == "closed"
        clock.now += 1_000.0
        supervisor.normalize_many_outcomes(["t"])  # third consecutive crash
        assert supervisor.state == "open"

    def test_open_circuit_blocks_respawns_until_cooldown(self):
        clock = _Clock()
        pools = []

        def factory():
            pools.append(_StubPool(break_after_batches=1))
            return pools[-1]

        supervisor = _supervisor(
            factory, clock, backoff_base=0.01, max_crashes=2, cooldown=30.0
        )
        self._crash_loop(supervisor, clock, 2)
        assert supervisor.state == "open"
        spawned = len(pools)
        clock.now += 5.0  # inside the cooldown
        supervisor.normalize_many_outcomes(["t"])
        assert len(pools) == spawned  # batch served degraded, no probe

    def test_half_open_probe_closes_on_health(self):
        clock = _Clock()
        pools = []

        def factory():
            # Crashy until the circuit opens; the probe pool is healthy.
            crashy = len(pools) < 2
            pools.append(_StubPool(break_after_batches=1 if crashy else None))
            return pools[-1]

        supervisor = _supervisor(
            factory, clock, backoff_base=0.01, max_crashes=2, cooldown=30.0
        )
        self._crash_loop(supervisor, clock, 2)
        assert supervisor.state == "open"
        clock.now += 31.0  # cooldown elapsed: one probe allowed
        supervisor.normalize_many_outcomes(["t"])
        assert supervisor.state == "closed"
        assert supervisor.healthy
        assert supervisor._crashes == 0

    def test_half_open_probe_crash_reopens(self):
        clock = _Clock()
        supervisor = _supervisor(
            lambda: _StubPool(break_after_batches=1),
            clock,
            backoff_base=0.01,
            max_crashes=2,
            cooldown=30.0,
        )
        self._crash_loop(supervisor, clock, 2)
        clock.now += 31.0
        supervisor.normalize_many_outcomes(["t"])  # probe pool crashes too
        assert supervisor.state == "open"


class TestActiveHealing:
    def _dead_pid(self) -> int:
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_heal_detects_silently_dead_worker(self):
        clock = _Clock()
        dead = self._dead_pid()
        pools = []

        def factory():
            # First pool reports a pid that is already gone (the
            # SIGKILL case: the executor has not noticed yet); the
            # replacement reports a live pid.
            pids = [dead] if not pools else [os.getpid()]
            pools.append(_StubPool(pids=pids))
            return pools[-1]

        supervisor = _supervisor(factory, clock, backoff_base=0.5)
        assert supervisor.healthy  # nothing has probed yet
        assert not supervisor.heal()  # probe marks broken, backoff gates
        clock.now += 0.6
        assert supervisor.heal()  # respawn allowed now
        assert supervisor.worker_pids() == [os.getpid()]
        assert len(pools) == 2

    def test_heal_detects_real_worker_killed_between_batches(self):
        # Nothing reads an idle worker's pipe, so only the pid probe can
        # notice this death — and the killed worker lingers as a zombie
        # (still answering kill(pid, 0)) until the daemon reaps it.
        from repro.adt.queue import QUEUE_SPEC
        from repro.parallel import ShardPool
        from repro.rewriting.rules import RuleSet

        rules = RuleSet.from_specification(QUEUE_SPEC)
        clock = _Clock()
        supervisor = _supervisor(
            lambda: ShardPool(rules, 2), clock, backoff_base=0.5
        )
        try:
            victims = supervisor.worker_pids()
            assert len(victims) == 2
            os.kill(victims[0], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while supervisor.heal() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not supervisor.healthy
            clock.now += 0.6
            assert supervisor.heal()  # respawned after the backoff
            fresh = supervisor.worker_pids()
            assert len(fresh) == 2 and not set(fresh) & set(victims)
        finally:
            supervisor.close()

    def test_heal_leaves_live_workers_alone(self):
        pool = _StubPool(pids=[os.getpid()])
        supervisor = _supervisor(lambda: pool)
        assert supervisor.heal()
        assert not pool.closed


class TestMetrics:
    def test_crashes_and_respawns_counted(self):
        clock = _Clock()
        registry = _metrics.MetricsRegistry("supervisor-metrics-test")
        pools = []

        def factory():
            crashy = not pools
            pools.append(_StubPool(break_after_batches=1 if crashy else None))
            return pools[-1]

        supervisor = PoolSupervisor(
            factory, clock=clock, registry=registry, backoff_base=0.1
        )
        supervisor.normalize_many_outcomes(["t"])
        clock.now += 0.2
        supervisor.normalize_many_outcomes(["t"])
        assert registry.counters["serve.worker_crashes"].value == 1
        assert registry.counters["serve.pool_respawns"].value == 1
        assert registry.gauges["serve.circuit_state"].value == 0
