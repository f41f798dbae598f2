"""Guttag's sufficient-completeness check.

A specification is *sufficiently complete* when every ground term whose
sort is not the type of interest — i.e. every observation of a value —
reduces under the axioms to a term free of type-of-interest operations.
Intuitively: the axioms answer every question a program can ask.

This module implements the check in two cooperating parts:

1. **Static case analysis.**  For each non-constructor operation, the
   axioms' left-hand sides are laid out as a grid over the constructor
   cases of its type-of-interest arguments.  Missing cells are exactly
   the overlooked boundary conditions the paper warns about
   (``REMOVE(NEW)``); overlapping cells are reported too.  For the
   definitional axiom shape (constructor patterns one level deep,
   left-linear) the analysis is exact.

2. **Reduction certification.**  Case coverage alone does not guarantee
   that right-hand sides bottom out.  The checker certifies termination
   against a recursive path ordering with constructors below defined
   operations, and additionally normalises the smallest ground
   observations, checking each normal form is constructor-only.

The combination is sound for the paper's class of specifications and is
what :mod:`repro.analysis.heuristics` builds its user prompts from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.algebra.signature import Operation
from repro.algebra.terms import App, Term, Var
from repro.spec.axioms import Axiom
from repro.spec.specification import Specification
from repro.analysis.classify import Classification
from repro.analysis.spec_analysis import SpecAnalysis, run_ground
from repro.rewriting.engine import RewriteLimitError
from repro.testing.termgen import hypothesis


@dataclass(frozen=True)
class MissingCase:
    """An uncovered cell of the case grid.

    ``pattern`` is the left-hand side the user should supply an axiom
    for, e.g. ``REMOVE(NEW)``.
    """

    operation: Operation
    pattern: Term

    def __str__(self) -> str:
        return f"no axiom covers {self.pattern}"


@dataclass(frozen=True)
class OverlappingCase:
    """Two axioms covering the same cell (ambiguous definition)."""

    operation: Operation
    first: Axiom
    second: Axiom
    pattern: Term

    def __str__(self) -> str:
        return (
            f"axioms {self.first} and {self.second} both cover {self.pattern}"
        )


@dataclass(frozen=True)
class NonDecreasingAxiom:
    """An axiom the termination ordering could not certify."""

    axiom: Axiom

    def __str__(self) -> str:
        return f"axiom {self.axiom} is not decreasing under the path ordering"


@dataclass(frozen=True)
class StuckObservation:
    """A ground observation whose normal form still mentions TOI
    operations — direct evidence of insufficient completeness."""

    term: Term
    normal_form: Term

    def __str__(self) -> str:
        return f"{self.term} normalises to {self.normal_form}, which still mentions the type of interest"


@dataclass
class CompletenessReport:
    """Everything the checker found about one specification."""

    spec_name: str
    classification: Classification
    missing: list[MissingCase] = field(default_factory=list)
    overlapping: list[OverlappingCase] = field(default_factory=list)
    non_decreasing: list[NonDecreasingAxiom] = field(default_factory=list)
    stuck: list[StuckObservation] = field(default_factory=list)
    sampled_observations: int = 0
    sampled_undecided: int = 0  # never run: the fuel was spent
    #: Every observation up to this argument size was sampled (None: all).
    sampled_complete_to: Optional[int] = None

    @property
    def sufficiently_complete(self) -> bool:
        return not self.missing and not self.non_decreasing and not self.stuck

    @property
    def unambiguous(self) -> bool:
        return not self.overlapping

    def __str__(self) -> str:
        lines = [f"sufficient-completeness report for {self.spec_name}"]
        lines.append(str(self.classification))
        verdict = "YES" if self.sufficiently_complete else "NO"
        lines.append(f"sufficiently complete: {verdict}")
        for group, items in (
            ("missing cases", self.missing),
            ("overlapping cases", self.overlapping),
            ("non-decreasing axioms", self.non_decreasing),
            ("stuck observations", self.stuck),
        ):
            if items:
                lines.append(f"{group}:")
                lines.extend(f"  {item}" for item in items)
        sampled = hypothesis(
            self.sampled_observations,
            self.sampled_complete_to,
            self.sampled_undecided,
        )
        lines.append(f"(ground observations sampled: {sampled})")
        return "\n".join(lines)


def case_patterns(
    operation: Operation, classification: Classification
) -> list[Term]:
    """The grid of required left-hand sides for ``operation``.

    One pattern per combination of constructor shapes of the operation's
    type-of-interest arguments.  Non-TOI arguments stay variables.
    ``REMOVE`` yields ``[REMOVE(NEW), REMOVE(ADD(q, i))]``.
    """
    toi_positions = classification.recursive_argument_positions(operation)
    if not toi_positions:
        return [_pattern(operation, {})]
    choices: list[list[Operation]] = [
        list(classification.constructors) for _ in toi_positions
    ]
    patterns: list[Term] = []
    for combo in itertools.product(*choices):
        by_position = dict(zip(toi_positions, combo))
        patterns.append(_pattern(operation, by_position))
    return patterns


def _pattern(
    operation: Operation, constructors_at: dict[int, Operation]
) -> Term:
    args: list[Term] = []
    for index, sort in enumerate(operation.domain):
        constructor = constructors_at.get(index)
        if constructor is None:
            args.append(Var(f"v{index}", sort))
        else:
            inner = [
                Var(f"w{index}_{j}", inner_sort)
                for j, inner_sort in enumerate(constructor.domain)
            ]
            args.append(App(constructor, inner))
    return App(operation, args)


def _covers(axiom: Axiom, pattern: Term) -> bool:
    """Does ``axiom``'s LHS cover the case ``pattern`` describes?

    The axiom covers the case when its LHS is at least as general: the
    LHS matches the pattern (pattern variables acting as fresh
    constants).  For left-linear, one-constructor-deep axioms this test
    is exact.
    """
    from repro.algebra.matching import match

    return match(axiom.lhs, pattern) is not None


def check_sufficient_completeness(
    spec: Union[Specification, SpecAnalysis],
    sample_terms: int = 60,
    fuel: int = 50_000,
) -> CompletenessReport:
    """Run the full sufficient-completeness check on ``spec`` (or on the
    spec of an analysis other checks share); ``fuel`` bounds the whole
    observation sample."""
    analysis = SpecAnalysis.of(spec)
    spec, cls = analysis.spec, analysis.classification
    report = CompletenessReport(spec.name, cls)

    # --- static case coverage -----------------------------------------
    for operation in cls.defined_operations:
        axioms = [a for a in spec.axioms if a.head == operation]
        for pattern in case_patterns(operation, cls):
            covering = [a for a in axioms if _covers(a, pattern)]
            if not covering:
                report.missing.append(MissingCase(operation, pattern))
            elif len(covering) > 1:
                report.overlapping.append(
                    OverlappingCase(operation, covering[0], covering[1], pattern)
                )

    # --- termination certification --------------------------------------
    report.non_decreasing = [NonDecreasingAxiom(a) for a in analysis.non_decreasing]

    # --- dynamic reduction sampling --------------------------------------
    if report.missing or sample_terms <= 0:
        # Nothing sampled: every observation has size >= 1.
        report.sampled_complete_to = 0
        return report

    toi_ops = set(spec.own_operations())

    def sample(_, term: Term, normalize) -> None:
        # A diverging observation is stuck; the rest still run while
        # fuel is left.
        try:
            normal = normalize(term)
        except RewriteLimitError:
            report.stuck.append(StuckObservation(term, term))
            return
        if _mentions(normal, toi_ops, cls):
            report.stuck.append(StuckObservation(term, normal))

    (
        report.sampled_observations,
        report.sampled_undecided,
        report.sampled_complete_to,
    ) = run_ground(analysis.engine, analysis.observations(), sample_terms, fuel, sample)
    return report


def _mentions(term: Term, toi_ops: set, cls: Classification) -> bool:
    """Does ``term`` still contain *defined* TOI operations (for TOI
    results, non-constructor ones; for observer results, any)?"""
    constructors = set(cls.constructors)
    operations = term.operations()
    for op in operations:
        if op in toi_ops and op not in constructors:
            return True
    if term.sort != cls.type_of_interest:
        # An observation's normal form must not mention the TOI at all.
        for op in operations:
            if op in constructors:
                return True
    return False
