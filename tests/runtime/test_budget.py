"""Unit tests for :mod:`repro.runtime.budget`.

The meter is the single enforcement point both backends share; these
tests pin down its contract in isolation: exact fuel accounting through
the list cell, cycle diagnosis on periodic tails only, and the pulsed
deadline / memory checks.
"""

from __future__ import annotations

import time

import pytest

from repro.algebra.terms import intern_table_size
from repro.runtime.budget import (
    DEFAULT_FUEL,
    PULSE_INTERVAL,
    REASON_CYCLE,
    REASON_DEADLINE,
    REASON_FUEL,
    REASON_MEMORY,
    TRACK_RESERVE,
    BudgetExceeded,
    BudgetMeter,
    EvaluationBudget,
)


class TestEvaluationBudget:
    def test_defaults(self):
        budget = EvaluationBudget()
        assert budget.fuel == DEFAULT_FUEL
        assert budget.deadline is None
        assert budget.max_intern_growth is None

    def test_start_mints_independent_meters(self):
        budget = EvaluationBudget(fuel=10)
        first, second = budget.start(), budget.start()
        first.spend("x")
        assert first[0] == 9
        assert second[0] == 10


class TestFuelAccounting:
    def test_meter_is_a_one_cell_list(self):
        # The codegen backend's functions decrement ``b[0]`` inline;
        # the meter must remain indistinguishable from the bare list
        # cell the generated code was written against.
        meter = EvaluationBudget(fuel=5).start()
        assert isinstance(meter, list)
        assert meter[0] == 5
        meter[0] -= 1
        assert meter[0] == 4

    def test_exhaustion_is_exact(self):
        meter = EvaluationBudget(fuel=3).start()
        for step in range(3):
            meter.spend(step)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.spend(99)
        assert excinfo.value.reason == REASON_FUEL

    def test_distinct_subjects_diagnose_plain_fuel(self):
        meter = EvaluationBudget(fuel=50).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            for step in range(51):
                meter.spend(step)  # an ever-fresh stream: no cycle
        assert excinfo.value.reason == REASON_FUEL
        assert excinfo.value.trace == ()


class TestCycleDiagnosis:
    def test_periodic_tail_yields_minimal_repeating_trace(self):
        meter = EvaluationBudget(fuel=64).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            step = 0
            while True:
                meter.spend("ping" if step % 2 == 0 else "pong")
                step += 1
        exc = excinfo.value
        assert exc.reason == REASON_CYCLE
        assert len(exc.trace) == 2  # minimal period, not a multiple
        assert set(exc.trace) == {"ping", "pong"}

    def test_self_loop_has_period_one(self):
        meter = EvaluationBudget(fuel=32).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            while True:
                meter.spend("spin")
        assert excinfo.value.reason == REASON_CYCLE
        assert excinfo.value.trace == ("spin",)

    def test_tracking_stays_off_above_the_reserve(self):
        # The happy path pays nothing: no ring exists while remaining
        # fuel sits above the watermark.
        meter = EvaluationBudget(fuel=TRACK_RESERVE + 10).start()
        for step in range(9):
            meter.spend(step)
        assert meter.trace is None

    def test_periodic_prefix_with_fresh_tail_is_not_a_cycle(self):
        # Repetition that *stops* before exhaustion must not be
        # mistaken for divergence.
        meter = EvaluationBudget(fuel=60).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            for step in range(30):
                meter.spend("loop")
            step = 0
            while True:
                meter.spend(f"fresh-{step}")
                step += 1
        assert excinfo.value.reason == REASON_FUEL


class TestDeadlineAndMemory:
    def test_deadline_raises_at_checkpoint(self):
        meter = EvaluationBudget(fuel=10_000, deadline=0.0).start()
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.checkpoint()
        assert excinfo.value.reason == REASON_DEADLINE

    def test_deadline_enforced_through_spend_pulse(self):
        meter = EvaluationBudget(fuel=10_000, deadline=0.0).start()
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded) as excinfo:
            for step in range(PULSE_INTERVAL + 1):
                meter.spend(step)
        assert excinfo.value.reason == REASON_DEADLINE

    def test_deadline_enforced_through_tick_pulse(self):
        # ``tick`` is the codegen driver's pulse: fuel is spent out of
        # the meter's sight, but deadlines still bind.
        meter = EvaluationBudget(fuel=10_000, deadline=0.0).start()
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded) as excinfo:
            for _ in range(PULSE_INTERVAL + 1):
                meter.tick()
        assert excinfo.value.reason == REASON_DEADLINE

    def test_no_deadline_means_no_clock_reads(self):
        meter = EvaluationBudget(fuel=10).start()
        assert meter.deadline_at is None
        meter.checkpoint()  # must not raise

    def test_intern_growth_cap(self):
        from repro.adt.queue import queue_term

        meter = EvaluationBudget(fuel=10_000, max_intern_growth=0).start()
        assert meter.intern_base == intern_table_size()
        # Fresh applications intern new nodes; literals alone do not.
        # (Hold a reference: the intern table is weak.)
        probe = queue_term(f"budget-memcap-probe-{i}" for i in range(8))
        assert probe is not None
        assert intern_table_size() > meter.intern_base
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.checkpoint()
        assert excinfo.value.reason == REASON_MEMORY

    def test_intern_cap_tolerates_allowed_growth(self):
        from repro.adt.queue import queue_term

        meter = EvaluationBudget(
            fuel=10_000, max_intern_growth=1_000_000
        ).start()
        queue_term(["budget-memcap-slack-probe"])
        meter.checkpoint()  # within the cap: must not raise
