"""The specification-construction heuristics and prompting system.

Section 3: "we have devised heuristics to aid the user in the initial
presentation of an axiomatic specification ... and a system to
mechanically 'verify' the sufficient-completeness of that specification.
... the system would begin to prompt the user to supply the additional
information necessary."

This module is that system.  Given a (possibly incomplete) draft
specification it produces:

* a *scaffold* — the full grid of left-hand sides the axiom set should
  cover, generated from the classification heuristic (one axiom per
  defined operation per constructor case);
* *prompts* — the concrete cases the draft fails to cover, boundary
  conditions first (the cases most likely to be overlooked), each with a
  suggested skeleton for the user to fill in;
* a *session* driver that applies user-supplied axioms and re-checks,
  mirroring the interactive loop the paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.algebra.terms import App, Term
from repro.spec.axioms import Axiom
from repro.spec.specification import Specification
from repro.analysis.classify import classify
from repro.analysis.sufficient_completeness import (
    CompletenessReport,
    case_patterns,
    check_sufficient_completeness,
)


@dataclass(frozen=True)
class Prompt:
    """One question the system asks the user.

    ``pattern`` is the uncovered left-hand side; ``is_boundary`` marks
    cases built from base (non-recursive) constructors — the
    ``REMOVE(NEW)`` class of case the paper singles out as "particularly
    likely to be overlooked"; ``suggestion`` is a fill-in skeleton.
    """

    pattern: Term
    is_boundary: bool
    suggestion: str

    def __str__(self) -> str:
        marker = " [boundary condition]" if self.is_boundary else ""
        return f"please supply: {self.pattern} = ?{marker}"


def _is_boundary(pattern: Term) -> bool:
    """A case is a boundary condition when every constructor argument in
    the pattern is a base (non-recursive) constructor application."""
    assert isinstance(pattern, App)
    saw_constructor = False
    for arg in pattern.args:
        if isinstance(arg, App):
            saw_constructor = True
            if arg.args:
                return False
    return saw_constructor


def _suggest(pattern: Term) -> str:
    assert isinstance(pattern, App)
    if _is_boundary(pattern):
        return (
            f"{pattern} = error  -- boundary case; is an error the "
            f"intended meaning?"
        )
    return f"{pattern} = <term of sort {pattern.sort}>"


def scaffold(spec: Specification) -> dict[str, list[Term]]:
    """The complete case grid for ``spec``: operation name → patterns.

    This is the heuristics' "initial presentation" aid: before writing
    any axiom, the user can see exactly which left-hand sides a
    sufficiently complete axiom set must cover.
    """
    cls = classify(spec)
    grid: dict[str, list[Term]] = {}
    for operation in cls.defined_operations:
        grid[operation.name] = case_patterns(operation, cls)
    return grid


def prompts_for(
    spec: Specification, report: Optional[CompletenessReport] = None
) -> list[Prompt]:
    """The prompts a user must answer to complete ``spec``.

    Boundary conditions are listed first.
    """
    if report is None:
        report = check_sufficient_completeness(spec, sample_terms=0)
    prompts = [
        Prompt(case.pattern, _is_boundary(case.pattern), _suggest(case.pattern))
        for case in report.missing
    ]
    prompts.sort(key=lambda p: (not p.is_boundary, str(p.pattern)))
    return prompts


@dataclass
class SessionStep:
    """One round of the interactive completion session."""

    prompts: list[Prompt]
    answered: list[Axiom] = field(default_factory=list)


class CompletionSession:
    """The interactive loop: check → prompt → accept axioms → re-check.

    ``oracle`` plays the user: it is called with each prompt and returns
    an axiom (or ``None`` to skip).  :meth:`run` iterates until the
    specification is sufficiently complete, the oracle stops answering,
    or ``max_rounds`` is hit.
    """

    def __init__(
        self,
        spec: Specification,
        oracle: Callable[[Prompt], Optional[Axiom]],
        max_rounds: int = 8,
    ) -> None:
        self.spec = spec
        self.oracle = oracle
        self.max_rounds = max_rounds
        self.steps: list[SessionStep] = []

    def run(self) -> Specification:
        """Drive the session; returns the (possibly extended) spec."""
        current = self.spec
        for _ in range(self.max_rounds):
            report = check_sufficient_completeness(current, sample_terms=0)
            open_prompts = prompts_for(current, report)
            if not open_prompts:
                break
            step = SessionStep(open_prompts)
            self.steps.append(step)
            for prompt in open_prompts:
                answer = self.oracle(prompt)
                if answer is not None:
                    step.answered.append(answer)
            if not step.answered:
                break
            current = current.enriched(current.name, axioms=step.answered)
        return current

    @property
    def rounds(self) -> int:
        return len(self.steps)


def default_boundary_oracle(prompt: Prompt) -> Optional[Axiom]:
    """An oracle that answers boundary prompts with ``= error`` and
    skips everything else — the paper's observation is that boundary
    cases usually *are* errors, so this closes most gaps mechanically."""
    from repro.algebra.terms import Err

    if not prompt.is_boundary:
        return None
    return Axiom(prompt.pattern, Err(prompt.pattern.sort), "auto")
