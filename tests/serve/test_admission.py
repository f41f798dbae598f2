"""Tests for admission control: budget clamping and the bounded gate."""

from __future__ import annotations

import threading

import pytest

from repro.obs import metrics as _metrics
from repro.runtime import EvaluationBudget
from repro.serve import (
    AdmissionController,
    AdmissionDenied,
    ServeLimits,
    clamp_budget,
)


def _controller(**overrides) -> AdmissionController:
    limits = ServeLimits(**overrides)
    return AdmissionController(
        limits, registry=_metrics.MetricsRegistry("admission-test")
    )


class TestClampBudget:
    LIMITS = ServeLimits(max_fuel=1_000, max_deadline=2.0)

    def test_missing_budget_gets_the_ceilings(self):
        clamped = clamp_budget(None, self.LIMITS)
        assert clamped.fuel == 1_000
        assert clamped.deadline == 2.0

    def test_over_ceiling_values_clamp_down(self):
        clamped = clamp_budget(
            EvaluationBudget(fuel=10**9, deadline=600.0), self.LIMITS
        )
        assert clamped.fuel == 1_000
        assert clamped.deadline == 2.0

    def test_tighter_client_values_survive(self):
        clamped = clamp_budget(
            EvaluationBudget(fuel=50, deadline=0.5), self.LIMITS
        )
        assert clamped.fuel == 50
        assert clamped.deadline == 0.5

    def test_result_always_carries_a_deadline(self):
        # A client budget with no deadline must not grant an open-ended
        # slot on a shared daemon.
        clamped = clamp_budget(EvaluationBudget(fuel=50), self.LIMITS)
        assert clamped.deadline == 2.0

    def test_substrate_ceilings_preserved(self):
        budget = EvaluationBudget(fuel=50, max_intern_growth=123)
        clamped = clamp_budget(budget, self.LIMITS)
        assert clamped.max_intern_growth == 123


class TestAdmissionGate:
    def test_admits_up_to_max_inflight(self):
        controller = _controller(max_inflight=2)
        a = controller.admit()
        b = controller.admit()
        assert controller.inflight == 2
        a.release()
        b.release()
        assert controller.inflight == 0

    def test_release_is_idempotent(self):
        controller = _controller(max_inflight=1)
        slot = controller.admit()
        slot.release()
        slot.release()
        assert controller.inflight == 0

    def test_full_queue_sheds_429_immediately(self):
        controller = _controller(max_inflight=1, queue_depth=0)
        slot = controller.admit()
        with pytest.raises(AdmissionDenied) as exc:
            controller.admit()
        assert exc.value.status == 429
        assert exc.value.reason == "queue_full"
        assert exc.value.retry_after == controller.limits.retry_after
        slot.release()

    def test_queued_wait_times_out_with_503(self):
        controller = _controller(
            max_inflight=1, queue_depth=4, queue_timeout=0.05
        )
        slot = controller.admit()
        with pytest.raises(AdmissionDenied) as exc:
            controller.admit()
        assert exc.value.status == 503
        assert exc.value.reason == "queue_timeout"
        assert controller.waiting == 0  # the queued waiter cleaned up
        slot.release()

    def test_release_admits_a_queued_waiter(self):
        controller = _controller(
            max_inflight=1, queue_depth=4, queue_timeout=5.0
        )
        slot = controller.admit()
        admitted = threading.Event()

        def waiter() -> None:
            controller.admit()
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        # The waiter is queued behind the held slot; freeing it must
        # hand the slot over instead of timing the waiter out.
        assert not admitted.wait(0.05)
        slot.release()
        assert admitted.wait(2.0)
        thread.join()

    def test_shed_reasons_counted(self):
        registry = _metrics.MetricsRegistry("admission-shed-test")
        controller = AdmissionController(
            ServeLimits(max_inflight=1, queue_depth=0), registry=registry
        )
        slot = controller.admit()
        with pytest.raises(AdmissionDenied):
            controller.admit()
        slot.release()
        assert registry.families["serve.shed"].counts["queue_full"] == 1
        assert registry.counters["serve.admitted"].value == 1
