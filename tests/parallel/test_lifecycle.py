"""Pool lifecycle: no shard worker may outlive its parent (satellite).

Three layers of defence, each tested here:

* ``ShardPool.close()`` joins the workers synchronously;
* ``RewriteEngine`` is a context manager whose exit closes its pools;
* the module-level ``atexit`` sweep (:func:`close_all_pools`) reaps
  pools whose owners forgot, so even an exiting interpreter leaves no
  orphans — verified end-to-end with a real child interpreter.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

from repro.adt.queue import FRONT, QUEUE_SPEC, queue_term
from repro.algebra.terms import App
from repro.parallel import ShardPool, close_all_pools
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.rules import RuleSet

RULES = RuleSet.from_specification(QUEUE_SPEC)


def _assert_all_dead(pids: list[int]) -> None:
    assert pids
    deadline = time.monotonic() + 10.0
    remaining = list(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except OSError:
                remaining.remove(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"worker pids still alive: {remaining}"


class TestExplicitClose:
    def test_close_wait_reaps_workers(self):
        pool = ShardPool(RULES, 2)
        pids = pool.warm()
        pool.close()
        _assert_all_dead(pids)

    def test_close_all_pools_sweeps_every_live_pool(self):
        pools = [ShardPool(RULES, 2) for _ in range(2)]
        pids = [pid for pool in pools for pid in pool.warm()]
        close_all_pools()
        _assert_all_dead(pids)
        assert all(pool._broken for pool in pools)


class TestEngineContextManager:
    def test_exit_closes_worker_pools(self):
        subjects = [App(FRONT, (queue_term(["a", "b"]),))] * 4
        with RewriteEngine(RULES) as engine:
            engine.normalize_many_outcomes(subjects, workers=2)
            pool = engine._pools.get(2)
            assert pool is not None
            pids = pool.warm()
            assert pids
        _assert_all_dead(pids)


class TestAtexitSweep:
    def test_no_workers_outlive_an_exiting_parent(self, tmp_path):
        # A child interpreter builds a pool, warms it, reports the
        # worker pids, and exits *without* closing — the atexit hook
        # must reap the workers before the parent dies.
        script = textwrap.dedent(
            """
            from repro.adt.queue import QUEUE_SPEC
            from repro.parallel import ShardPool
            from repro.rewriting.rules import RuleSet

            pool = ShardPool(RuleSet.from_specification(QUEUE_SPEC), 2)
            print(",".join(str(pid) for pid in pool.warm()), flush=True)
            # fall off the end: normal interpreter exit, no close()
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        pids = [int(p) for p in result.stdout.strip().split(",") if p]
        _assert_all_dead(pids)

    def test_server_shutdown_closes_session_pools(self):
        from repro.obs import metrics as _metrics
        from repro.serve import ReproServer

        server = ReproServer(
            [QUEUE_SPEC],
            workers=2,
            registry=_metrics.MetricsRegistry("lifecycle-serve-test"),
        ).start()
        supervisor = server.sessions["Queue"].supervisor
        assert supervisor is not None
        pids = supervisor.worker_pids()
        server.close()
        _assert_all_dead(pids)


class TestDegradedStragglers:
    def test_degrade_abandons_workers_but_close_reaps(self):
        # A SIGKILLed worker degrades the pool; its sibling must still
        # be reaped by close(), not left running.
        pool = ShardPool(RULES, 2)
        pids = pool.warm()
        os.kill(pids[0], signal.SIGKILL)
        subjects = [App(FRONT, (queue_term(["x"]),))] * 4
        outcomes = pool.normalize_many_outcomes(subjects)
        assert all(outcome.ok for outcome in outcomes)
        pool.close()
        _assert_all_dead(pids)
