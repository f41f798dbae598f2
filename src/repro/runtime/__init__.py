"""The resilient evaluation runtime.

The paper's algebra is total: every operation has a defined value even
at the edges, with the distinguished ``error`` propagating strictly.
This package gives the *runtime* the same property.  Instead of an
ad-hoc fuel integer and raw exceptions, evaluation runs under an
:class:`EvaluationBudget` (fuel, wall-clock deadline, memory caps),
divergence is *diagnosed* (a cycling rewrite is distinguished from a
merely expensive one, with the minimal repeating trace as evidence),
and clients that cannot afford an exception get a structured
:class:`Outcome` instead — see
:meth:`repro.rewriting.engine.RewriteEngine.normalize_outcome`.

Modules
-------
:mod:`repro.runtime.budget`
    :class:`EvaluationBudget` / :class:`BudgetMeter` — declarative limits
    and the per-evaluation meter that enforces them, shared by the
    interpreted and codegen backends.
:mod:`repro.runtime.outcome`
    :class:`Outcome` — the structured result of resilient evaluation
    (``normalized | truncated | diverged | error_value``).
:mod:`repro.runtime.faults`
    The fault-point registry: named instrumentation sites inside the
    engines where the test harness (:mod:`repro.testing.faults`) can
    inject failures.
"""

from repro.runtime.budget import (
    DEFAULT_FUEL,
    BudgetExceeded,
    BudgetMeter,
    EvaluationBudget,
    REASON_CYCLE,
    REASON_DEADLINE,
    REASON_DEPTH,
    REASON_FAULT,
    REASON_FUEL,
    REASON_MEMORY,
)
from repro.runtime.outcome import (
    DIVERGED,
    ERROR_VALUE,
    NORMALIZED,
    Outcome,
    TRUNCATED,
)
from repro.runtime.faults import fault_point
from repro.runtime.render import SUMMARY_LIMIT, summarize_term

__all__ = [
    "BudgetExceeded",
    "BudgetMeter",
    "DEFAULT_FUEL",
    "DIVERGED",
    "ERROR_VALUE",
    "EvaluationBudget",
    "NORMALIZED",
    "Outcome",
    "REASON_CYCLE",
    "REASON_DEADLINE",
    "REASON_DEPTH",
    "REASON_FAULT",
    "REASON_FUEL",
    "REASON_MEMORY",
    "SUMMARY_LIMIT",
    "TRUNCATED",
    "fault_point",
    "summarize_term",
]
