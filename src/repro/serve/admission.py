"""Admission control and load shedding for the serving daemon.

The resilience ladder (PR 3) bounds *one* evaluation: fuel, deadline,
intern growth, memo growth.  A daemon needs the next layer up — bounds
on how much evaluation it accepts *at once*.  This module provides it:

* :class:`ServeLimits` — the server-side ceilings.  Every per-request
  :class:`~repro.runtime.EvaluationBudget` is clamped through
  :func:`clamp_budget`, so no client can ask a shared daemon for an
  unbounded evaluation, and every admitted request carries a deadline
  even when its client sent none.
* :class:`AdmissionController` — a concurrency gate with a *bounded*
  wait queue.  Up to ``max_inflight`` requests evaluate concurrently;
  up to ``queue_depth`` more wait at most ``queue_timeout`` seconds.
  Anything beyond is *shed immediately* with a structured 429; a
  queued request whose wait expires is shed with a 503.  Shedding —
  not unbounded queueing — is what keeps latency bounded and the
  process alive under overload, and the ``Retry-After`` hint turns
  shed clients into a jittered retry population instead of a stampede.

The controller is pure ``threading`` — one lock, one condition — so it
works identically under ``ThreadingHTTPServer`` and in unit tests that
drive it directly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.obs import metrics as _metrics
from repro.runtime import EvaluationBudget

__all__ = [
    "AdmissionController",
    "AdmissionDenied",
    "ServeLimits",
    "clamp_budget",
]


@dataclass(frozen=True)
class ServeLimits:
    """Server-side ceilings governing what a request may ask for.

    ``max_fuel`` and ``max_deadline`` clamp the per-request budget;
    ``max_batch`` bounds terms per request; ``max_body_bytes`` bounds
    the raw request body (checked before JSON parsing, so a hostile
    body is rejected for the price of a header read); ``max_inflight``,
    ``queue_depth`` and ``queue_timeout`` parameterize the admission
    gate; ``retry_after`` is the hint sent with shed responses.
    """

    max_fuel: int = 200_000
    max_deadline: float = 30.0
    max_batch: int = 256
    max_body_bytes: int = 4 * 1024 * 1024
    max_inflight: int = 4
    queue_depth: int = 16
    queue_timeout: float = 5.0
    retry_after: float = 1.0


class AdmissionDenied(Exception):
    """A request was shed.  ``status`` is the HTTP status to return
    (429 queue full / 503 wait timed out), ``reason`` a stable
    machine-readable token, ``retry_after`` the backoff hint."""

    def __init__(self, status: int, reason: str, retry_after: float) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.retry_after = retry_after


def clamp_budget(
    budget: Optional[EvaluationBudget], limits: ServeLimits
) -> EvaluationBudget:
    """Clamp a client budget to the server ceilings.

    A missing budget gets the ceilings themselves; a present one keeps
    its own (tighter) values where they are under the ceiling.  The
    result always carries a deadline — a daemon never grants an
    open-ended evaluation slot.
    """
    if budget is None:
        return EvaluationBudget(
            fuel=limits.max_fuel, deadline=limits.max_deadline
        )
    deadline = budget.deadline
    if deadline is None or deadline > limits.max_deadline:
        deadline = limits.max_deadline
    return EvaluationBudget(
        fuel=min(budget.fuel, limits.max_fuel),
        deadline=deadline,
        max_intern_growth=budget.max_intern_growth,
    )


class AdmissionController:
    """Bounded-concurrency gate with load shedding.

    Use as a context manager around the work a request performs::

        with controller.admit():
            ... evaluate ...

    ``admit`` raises :class:`AdmissionDenied` instead of blocking
    indefinitely.  Counters land in the given registry (defaults to the
    process-global one) under ``serve.admitted``, ``serve.shed`` (a
    family keyed by reason) and the ``serve.queue_wait_seconds``
    histogram.
    """

    def __init__(
        self,
        limits: ServeLimits,
        registry: Optional[_metrics.MetricsRegistry] = None,
    ) -> None:
        self.limits = limits
        registry = registry if registry is not None else _metrics.GLOBAL
        self.registry = registry  # the process-wide registry set is weak
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self._inflight = 0
        self._waiting = 0
        self._admitted = registry.counter(
            "serve.admitted", "requests admitted past the gate"
        )
        self._shed = registry.family(
            "serve.shed", "requests shed, by reason"
        )
        self._inflight_gauge = registry.gauge(
            "serve.inflight", "requests currently evaluating"
        )
        self._wait = registry.histogram(
            "serve.queue_wait_seconds",
            bounds=_metrics.EVAL_SECONDS_BUCKETS,
            help="time spent queued before admission",
        )

    def _shed_now(self, status: int, reason: str) -> AdmissionDenied:
        self._shed.inc(reason)
        return AdmissionDenied(status, reason, self.limits.retry_after)

    def admit(self) -> "_Admission":
        """Reserve an evaluation slot or raise :class:`AdmissionDenied`.

        Returns a context manager that releases the slot on exit.
        """
        limits = self.limits
        with self._slot_freed:
            if self._inflight < limits.max_inflight:
                self._inflight += 1
                self._inflight_gauge.set(self._inflight)
                self._admitted.inc()
                self._wait.observe(0.0)
                return _Admission(self)
            if self._waiting >= limits.queue_depth:
                raise self._shed_now(429, "queue_full")
            self._waiting += 1
            started = time.monotonic()
            deadline = started + limits.queue_timeout
            try:
                while self._inflight >= limits.max_inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._slot_freed.wait(remaining):
                        if self._inflight >= limits.max_inflight:
                            raise self._shed_now(503, "queue_timeout")
                self._inflight += 1
            finally:
                self._waiting -= 1
            self._inflight_gauge.set(self._inflight)
            self._admitted.inc()
            self._wait.observe(time.monotonic() - started)
            return _Admission(self)

    def _release(self) -> None:
        with self._slot_freed:
            self._inflight -= 1
            self._inflight_gauge.set(self._inflight)
            self._slot_freed.notify()

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def waiting(self) -> int:
        with self._lock:
            return self._waiting


class _Admission:
    """The held slot; releases exactly once."""

    def __init__(self, controller: AdmissionController) -> None:
        self._controller: Optional[AdmissionController] = controller

    def __enter__(self) -> "_Admission":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def release(self) -> None:
        controller, self._controller = self._controller, None
        if controller is not None:
            controller._release()
