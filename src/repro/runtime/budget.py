"""Evaluation budgets and the meters that enforce them.

An :class:`EvaluationBudget` is a declarative bundle of limits on one
evaluation:

* **fuel** — maximum rewrite steps, the classic divergence bound;
* **deadline** — wall-clock seconds, for callers that serve traffic and
  cannot wait for a pathological term to burn 200k steps;
* **max_intern_growth** — cap on *new* hash-consed term nodes created
  during the evaluation, the honest memory gauge for term explosion
  (a ``SPIN(l) = SPIN(SPIN(l))`` axiom grows the intern table without
  bound long before Python notices).

A budget bounds one evaluation, so it holds no engine state: the
normal-form memo is bounded by the engine's ``cache_size`` alone.

A :class:`BudgetMeter` is the live, per-evaluation counterpart.  It
subclasses ``list`` so the codegen backend's generated functions — which
decrement ``b[0]`` inline, with no attribute lookups on their hot path —
spend from the same cell the interpreted engine does; both backends
therefore enforce the same fuel bound exactly.  Deadline and memory are
checked at a pulse (every :data:`PULSE_INTERVAL` spends, and every
:data:`PULSE_INTERVAL` codegen root dispatches), so their granularity
is a few hundred steps on either backend.

Divergence diagnosis
--------------------

Terms are hash-consed, so "the evaluation is going in circles" is an
*identity* property of the sequence of root-rewrite subjects: a cycling
evaluation fires the same interned terms over and over, while a merely
expensive one fires an ever-fresh stream.  The meter exploits this
cheaply: only once remaining fuel drops below :data:`TRACK_RESERVE`
does it start recording fired subjects into a bounded ring; at
exhaustion it looks for a periodic tail.  A period means the final
``p`` subjects repeat the previous ``p`` identically (by interned
identity) — that slice is the **minimal repeating trace**, reported as
``reason="cycle"``.  A non-periodic tail is genuine fuel exhaustion
(``reason="fuel"``).  The happy path pays nothing: tracking never
activates for evaluations that finish with fuel to spare.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import monotonic
from typing import Optional

from repro.algebra.terms import intern_table_size

#: Default step budget, shared with the rewrite engine.  The paper's
#: specifications normalise any realistic term in far fewer steps; the
#: bound exists to catch runaway user axioms.
DEFAULT_FUEL = 200_000

#: Remaining-fuel watermark below which fired subjects are recorded for
#: the divergence diagnosis.
TRACK_RESERVE = 4096

#: Length of the subject ring: cycles with period up to half this are
#: diagnosed with their minimal repeating trace.
TRACE_WINDOW = 512

#: Deadline / memory caps are checked every this-many spends (a mask,
#: so it must be a power of two).
PULSE_INTERVAL = 256

# Why an evaluation stopped short of a normal form.
REASON_FUEL = "fuel"  #: step budget exhausted, no periodicity in the tail
REASON_DEPTH = "depth"  #: Python recursion blow-up (subclass hooks)
REASON_DEADLINE = "deadline"  #: wall-clock deadline passed
REASON_CYCLE = "cycle"  #: rewriting revisits the same terms periodically
REASON_MEMORY = "memory"  #: intern-table growth cap exceeded
REASON_FAULT = "fault"  #: an unexpected runtime failure was contained

#: All reasons a :class:`BudgetExceeded` / ``RewriteLimitError`` may carry.
REASONS = (
    REASON_FUEL,
    REASON_DEPTH,
    REASON_DEADLINE,
    REASON_CYCLE,
    REASON_MEMORY,
    REASON_FAULT,
)


class BudgetExceeded(Exception):
    """Raised by a meter when any budget dimension runs out.

    Internal to the runtime: the engines catch it and re-raise a
    :class:`~repro.rewriting.engine.RewriteLimitError` carrying the
    subject term, or fold it into an :class:`~repro.runtime.Outcome`.
    """

    def __init__(self, reason: str, trace: tuple = (), detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason
        self.trace = trace
        self.detail = detail


@dataclass(frozen=True)
class EvaluationBudget:
    """Declarative limits on one evaluation (see module docstring).

    Budgets are immutable values: share them, put them in configuration,
    pass one per call.  ``start()`` mints the live meter.
    """

    fuel: int = DEFAULT_FUEL
    deadline: Optional[float] = None
    max_intern_growth: Optional[int] = None

    def start(self) -> "BudgetMeter":
        """A fresh meter for one evaluation under this budget."""
        return BudgetMeter(self)


class BudgetMeter(list):
    """Live budget state for one evaluation.

    The single list element is the remaining fuel — generated functions
    decrement it as ``b[0] -= 1`` and raise their private limit signal
    when it goes negative; the interpreted engine spends through
    :meth:`spend`, which also feeds the divergence tracker and the
    deadline/memory pulse.
    """

    def __init__(self, budget: EvaluationBudget) -> None:
        super().__init__((budget.fuel,))
        self.budget = budget
        self.track_below = min(budget.fuel, TRACK_RESERVE)
        self.deadline_at = (
            None if budget.deadline is None else monotonic() + budget.deadline
        )
        self.intern_base = (
            intern_table_size()
            if budget.max_intern_growth is not None
            else 0
        )
        self.trace: Optional[deque] = None
        self._pulse = 0

    # -- spending ------------------------------------------------------
    def spend(self, subject) -> None:
        """Account one rewrite step fired on ``subject``.

        Raises :class:`BudgetExceeded` when fuel runs out (with the
        cycle diagnosis), the deadline passes, or a memory cap trips.
        """
        remaining = self[0] = self[0] - 1
        if remaining < self.track_below:
            ring = self.trace
            if ring is None:
                ring = self.trace = deque(maxlen=TRACE_WINDOW)
            ring.append(subject)
            if remaining < 0:
                raise self.exhausted()
        pulse = self._pulse = self._pulse + 1
        if not (pulse & (PULSE_INTERVAL - 1)):
            self.checkpoint()

    def tick(self) -> None:
        """A pulse for steps that spend fuel out of the meter's sight
        (the engine calls this before each generated-function root
        step): checks the deadline and memory caps at the same cadence
        as :meth:`spend`."""
        pulse = self._pulse = self._pulse + 1
        if not (pulse & (PULSE_INTERVAL - 1)):
            self.checkpoint()

    def checkpoint(self) -> None:
        """Check the non-fuel budget dimensions now."""
        budget = self.budget
        if self.deadline_at is not None and monotonic() > self.deadline_at:
            raise BudgetExceeded(
                REASON_DEADLINE,
                detail=f"wall-clock deadline of {budget.deadline:g}s exceeded",
            )
        cap = budget.max_intern_growth
        if cap is not None and intern_table_size() - self.intern_base > cap:
            raise BudgetExceeded(
                REASON_MEMORY,
                detail=(
                    f"evaluation interned more than {cap} new term nodes"
                ),
            )

    # -- diagnosis -----------------------------------------------------
    def exhausted(self) -> BudgetExceeded:
        """The exception describing *why* fuel ran out: ``cycle`` with
        the minimal repeating trace when the tail of fired subjects is
        periodic, plain ``fuel`` otherwise."""
        cycle = self.detect_cycle()
        if cycle is not None:
            return BudgetExceeded(
                REASON_CYCLE,
                trace=cycle,
                detail=(
                    f"rewriting revisits the same {len(cycle)} term(s) "
                    "periodically"
                ),
            )
        return BudgetExceeded(REASON_FUEL)

    def detect_cycle(self) -> Optional[tuple]:
        """The minimal repeating trace in the recorded tail, or None.

        A period ``p`` qualifies when the last ``p`` subjects repeat the
        previous ``p`` identically — and, when the ring is long enough,
        the ``p`` before that too, so a coincidental one-off repeat of a
        long slice is not mistaken for a cycle.  Comparison is object
        identity in all the cases that matter (terms are interned).
        """
        if self.trace is None:
            return None
        ring = list(self.trace)
        n = len(ring)
        for period in range(1, n // 2 + 1):
            tail = ring[-period:]
            if ring[-2 * period : -period] != tail:
                continue
            if 3 * period <= n and ring[-3 * period : -2 * period] != tail:
                continue
            return tuple(tail)
        return None
