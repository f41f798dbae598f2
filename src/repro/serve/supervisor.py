"""Self-healing shard pools: respawn with backoff, behind a breaker.

The :class:`~repro.parallel.pool.ShardPool` already guarantees that
losing workers never loses a batch — a dead worker degrades the pool to
parent-side serial evaluation (``parallel.degradations``).  But a
degraded pool *stays* degraded: for a CLI invocation that is the right
call (finish the batch, exit), for a long-lived daemon it would mean
one SIGKILLed worker permanently costs the process its parallelism.

:class:`PoolSupervisor` adds the replacement policy on top:

* after every batch it checks whether the pool broke, and if so counts
  a crash and schedules a *respawn* — a fresh pool from the factory —
  no earlier than an exponential backoff (``base * 2**(crashes-1)``,
  capped) from the crash;
* batches that arrive before the backoff elapses run on the broken
  pool, i.e. serially parent-side — degraded but correct, never queued
  behind a respawn;
* repeated crashes without an intervening healthy batch trip a
  *circuit breaker*: after ``max_crashes`` consecutive crashes the
  supervisor stops respawning for ``cooldown`` seconds (state
  ``open``), then allows exactly one probe respawn (``half_open``);
  a healthy batch on the probe closes the circuit and resets the
  crash count, another crash re-opens it.

Everything is time-*checked*, never slept: the supervisor does its
bookkeeping inline on the batch path, so a respawn decision costs a
monotonic-clock read and the daemon's request threads never block on
healing.  Counters land under ``serve.pool_respawns``,
``serve.worker_crashes`` and the ``serve.circuit_state`` gauge
(0 closed / 1 open / 2 half-open).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Callable, Optional

from repro.obs import metrics as _metrics
from repro.parallel.pool import ShardPool
from repro.runtime import EvaluationBudget
from repro.runtime.outcome import Outcome

__all__ = ["PoolSupervisor"]

#: ``serve.circuit_state`` gauge values.
_CLOSED, _OPEN, _HALF_OPEN = 0, 1, 2


class PoolSupervisor:
    """Owns one :class:`ShardPool` and keeps it alive.

    ``factory`` builds a fresh pool (bound to rules + engine options);
    the supervisor warms it, routes batches through it, and replaces it
    per the backoff/breaker policy above.  Thread-safe: the daemon's
    request threads call :meth:`normalize_many_outcomes` concurrently.
    """

    def __init__(
        self,
        factory: Callable[[], ShardPool],
        *,
        backoff_base: float = 0.25,
        backoff_cap: float = 10.0,
        max_crashes: int = 4,
        cooldown: float = 30.0,
        registry: Optional[_metrics.MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._factory = factory
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_crashes = max_crashes
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        registry = registry if registry is not None else _metrics.GLOBAL
        self.registry = registry  # the process-wide registry set is weak
        self._c_crashes = registry.counter(
            "serve.worker_crashes", "shard-pool breakages observed"
        )
        self._c_respawns = registry.counter(
            "serve.pool_respawns", "fresh pools spawned to replace broken ones"
        )
        self._g_circuit = registry.gauge(
            "serve.circuit_state",
            "respawn circuit: 0 closed, 1 open, 2 half-open",
        )
        self._crashes = 0  # consecutive, reset by a healthy batch
        self._crash_seen = False  # current pool's breakage already counted
        self._next_retry: Optional[float] = None
        self._state = _CLOSED
        self._g_circuit.set(_CLOSED)
        self._pool = factory()
        self._pids: list[int] = self._pool.warm()
        if self._pool._broken:
            self._note_crash()

    # -- policy ---------------------------------------------------------
    def _backoff(self) -> float:
        return min(
            self.backoff_cap, self.backoff_base * 2 ** max(0, self._crashes - 1)
        )

    def _note_crash(self) -> None:
        """Record the current pool's breakage (once per pool instance)
        and schedule the next respawn attempt.  Caller holds the lock
        (or is the constructor)."""
        if self._crash_seen:
            return
        self._crash_seen = True
        self._crashes += 1
        self._c_crashes.inc()
        if self._state == _HALF_OPEN or self._crashes >= self.max_crashes:
            # The probe died too, or we've crashed our way to the limit:
            # open the circuit and wait out the cooldown.
            self._state = _OPEN
            self._next_retry = self._clock() + self.cooldown
        else:
            self._next_retry = self._clock() + self._backoff()
        self._g_circuit.set(self._state)

    def _maybe_respawn_locked(self) -> Optional[ShardPool]:
        """Replace a broken pool once its backoff has elapsed.  Returns
        the replaced pool for the caller to close after releasing the
        lock: closing joins the old workers, which must not hold up
        the other request threads."""
        if not self._pool._broken:
            return None
        self._note_crash()
        now = self._clock()
        if self._next_retry is not None and now < self._next_retry:
            return None
        if self._state == _OPEN:
            # Cooldown elapsed: one probe allowed.
            self._state = _HALF_OPEN
            self._g_circuit.set(self._state)
        old, self._pool = self._pool, self._factory()
        self._c_respawns.inc()
        self._crash_seen = False
        self._pids = self._pool.warm()
        if self._pool._broken:
            self._note_crash()
        return old

    def _after_batch(self) -> None:
        with self._lock:
            if self._pool._broken:
                self._note_crash()
            else:
                # A healthy parallel batch: close the circuit.
                self._crashes = 0
                self._next_retry = None
                if self._state != _CLOSED:
                    self._state = _CLOSED
                    self._g_circuit.set(_CLOSED)

    # -- the batch path -------------------------------------------------
    def normalize_many_outcomes(
        self, terms: list, budget: Optional[EvaluationBudget] = None
    ) -> list[Outcome]:
        """Run a batch on the healthiest pool available right now.

        Never raises for pool reasons: a broken pool evaluates the
        batch serially parent-side, and the healing bookkeeping happens
        around the call.
        """
        with self._lock:
            retired = self._maybe_respawn_locked()
            pool = self._pool
        if retired is not None:
            retired.close()
        outcomes = pool.normalize_many_outcomes(terms, budget)
        self._after_batch()
        return outcomes

    # -- active healing -------------------------------------------------
    def _workers_alive_locked(self) -> bool:
        # Reap exited children first: a SIGKILLed worker stays a
        # zombie, which still answers kill(pid, 0), until its parent
        # waits on it — and no thread waits on idle workers.
        multiprocessing.active_children()
        for pid in self._pids:
            try:
                os.kill(pid, 0)
            except OSError:
                return False
        return True

    def heal(self) -> bool:
        """Probe and heal *now*, without waiting for a batch.

        ``/readyz`` calls this: a SIGKILLed worker goes unnoticed by
        the pool until a batch writes to its pipe and reads EOF, so
        readiness checks probe pid liveness directly, mark the pool
        broken if a worker is gone, and attempt the (backoff-gated)
        respawn.  The replaced pool is closed — its surviving workers
        stopped and joined — after the lock is released.  Returns
        whether the parallel path is healthy afterwards.
        """
        with self._lock:
            if (
                not self._pool._broken
                and self._pids
                and not self._workers_alive_locked()
            ):
                self._pool._degrade("worker_died")
            retired = self._maybe_respawn_locked()
            healthy = not self._pool._broken
        if retired is not None:
            retired.close()
        return healthy

    # -- introspection / lifecycle --------------------------------------
    @property
    def healthy(self) -> bool:
        """True when the *parallel* path is live (pool not degraded)."""
        with self._lock:
            return not self._pool._broken

    @property
    def state(self) -> str:
        with self._lock:
            return {_CLOSED: "closed", _OPEN: "open", _HALF_OPEN: "half_open"}[
                self._state
            ]

    def worker_pids(self) -> list[int]:
        with self._lock:
            return list(self._pids) if not self._pool._broken else []

    def pool_snapshot(self) -> dict:
        """The current pool's merged worker metrics snapshot.

        ``/readyz`` folds the workers' ``engine.fuel_per_eval``
        histograms into its fuel-budget suggestion through this; the
        snapshot survives pool replacement only as far as the new
        pool's workers have re-observed, which is the honest view."""
        with self._lock:
            return self._pool.metrics_snapshot()

    def close(self) -> None:
        with self._lock:
            self._pool.close()
