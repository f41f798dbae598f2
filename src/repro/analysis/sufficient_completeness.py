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
   operations, and additionally normalises a fuzzed sample of ground
   observations, checking each normal form is constructor-only.

The combination is sound for the paper's class of specifications and is
what :mod:`repro.analysis.heuristics` builds its user prompts from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.signature import Operation
from repro.algebra.terms import App, Term, Var
from repro.spec.axioms import Axiom
from repro.spec.specification import Specification
from repro.analysis.classify import Classification, classify
from repro.rewriting.engine import RewriteEngine
from repro.rewriting.ordering import Precedence, rule_decreases
from repro.rewriting.rules import rule_from_axiom


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
        lines.append(f"(ground observations sampled: {self.sampled_observations})")
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


_counter = itertools.count()


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
    spec: Specification,
    classification: Optional[Classification] = None,
    sample_terms: int = 60,
    max_depth: int = 5,
    seed: int = 2026,
    fuel: int = 50_000,
    workers: Optional[int] = None,
) -> CompletenessReport:
    """Run the full sufficient-completeness check on ``spec``.

    ``workers=N`` shards the reduction-sampling stage across N worker
    processes (the dominant cost on large grids); the sampled terms,
    their verdicts, and the report are identical to the serial run.
    """
    cls = classification or classify(spec)
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
    defined = cls.defined_operations
    precedence = Precedence.definitional(cls.constructors, defined)
    for axiom in spec.axioms:
        rule = rule_from_axiom(axiom)
        if not rule_decreases(rule, precedence):
            report.non_decreasing.append(NonDecreasingAxiom(axiom))

    # --- dynamic reduction sampling --------------------------------------
    if not report.missing:
        report.sampled_observations = _sample_observations(
            spec, cls, report, sample_terms, max_depth, seed, fuel, workers
        )
    return report


def _sample_observations(
    spec: Specification,
    cls: Classification,
    report: CompletenessReport,
    sample_terms: int,
    max_depth: int,
    seed: int,
    fuel: int,
    workers: Optional[int] = None,
) -> int:
    from repro.testing.termgen import GroundTermGenerator

    engine = RewriteEngine.for_specification(spec)
    engine.fuel = fuel
    generator = GroundTermGenerator(spec, seed=seed, max_depth=max_depth)
    toi_ops = set(spec.own_operations())
    # Draw the whole sample first (generation must not interleave with
    # evaluation, so the drawn terms match the serial run exactly),
    # then evaluate as one fault-isolated batch — which is what lets
    # ``workers`` shard the grid without changing a single verdict.
    terms: list[Term] = []
    for observer in cls.defined_operations:
        for _ in range(max(1, sample_terms // max(1, len(cls.defined_operations)))):
            term = generator.observation(observer)
            if term is not None:
                terms.append(term)
    try:
        outcomes = engine.normalize_many_outcomes(terms, workers=workers)
    finally:
        engine.close_pools()
    for term, outcome in zip(terms, outcomes):
        if not outcome.ok:
            report.stuck.append(StuckObservation(term, term))
        elif _mentions(outcome.term, toi_ops, cls):
            report.stuck.append(StuckObservation(term, outcome.term))
    return len(terms)


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
