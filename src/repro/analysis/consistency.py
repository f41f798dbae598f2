"""Consistency checking.

"If any two of these [statements of fact] are contradictory, the
axiomatization is inconsistent."  Contradiction surfaces as a single
term that the axioms rewrite to two irreconcilable results.  The checker
combines three increasingly expensive detectors:

1. **Direct clashes** — two axioms with identical (up to renaming)
   left-hand sides but different right-hand sides.
2. **Critical-pair analysis** — overlapping left-hand sides whose two
   one-step results fail to join back together; a bounded Knuth–Bendix
   completion classifies the residue (joinable everywhere → consistent;
   a pair joining two distinct values → inconsistent; otherwise
   inconclusive, with the offending equations reported).
3. **Ground confrontation** — the smallest ground instances of every
   axiom (:mod:`repro.testing.termgen`) are evaluated by the engine; any
   instance whose two sides normalise differently is a concrete witness
   of inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional, Union

from repro.algebra.matching import variant_of
from repro.algebra.terms import Term
from repro.spec.axioms import Axiom
from repro.spec.specification import Specification
from repro.analysis.spec_analysis import SpecAnalysis, run_ground
from repro.rewriting.completion import CompletionResult, CompletionStatus, complete
from repro.testing.termgen import hypothesis

#: Knuth-Bendix rounds before completion gives up as inconclusive.
COMPLETION_ROUNDS = 6


class Verdict(Enum):
    CONSISTENT = auto()
    INCONSISTENT = auto()
    INCONCLUSIVE = auto()


@dataclass(frozen=True)
class GroundWitness:
    """A ground axiom instance whose sides normalise differently."""

    axiom: Axiom
    instance_lhs: Term
    instance_rhs: Term
    normal_lhs: Term
    normal_rhs: Term

    def __str__(self) -> str:
        return (
            f"axiom {self.axiom} fails on a ground instance: "
            f"{self.instance_lhs} -> {self.normal_lhs} but "
            f"{self.instance_rhs} -> {self.normal_rhs}"
        )


@dataclass
class ConsistencyReport:
    spec_name: str
    verdict: Verdict
    direct_clashes: list[str] = field(default_factory=list)
    completion: Optional[CompletionResult] = None
    ground_witnesses: list[GroundWitness] = field(default_factory=list)
    ground_instances_checked: int = 0
    ground_undecided: int = 0  # out of fuel, or never run: not checked
    #: Every instance up to this total size was checked (None: all were).
    ground_complete_to: Optional[int] = None

    @property
    def consistent(self) -> bool:
        return self.verdict is Verdict.CONSISTENT

    def __str__(self) -> str:
        lines = [
            f"consistency report for {self.spec_name}: {self.verdict.name.lower()}"
        ]
        if self.direct_clashes:
            lines.append("direct clashes:")
            lines.extend(f"  {clash}" for clash in self.direct_clashes)
        if self.completion is not None:
            lines.append(str(self.completion))
        if self.ground_witnesses:
            lines.append("ground witnesses:")
            lines.extend(f"  {witness}" for witness in self.ground_witnesses)
        verdict = "checked" if self.ground_witnesses else "holds for all"
        checked = hypothesis(
            self.ground_instances_checked,
            self.ground_complete_to,
            self.ground_undecided,
        )
        lines.append(f"(ground instances: {verdict} {checked})")
        return "\n".join(lines)


def _find_direct_clashes(axioms: tuple[Axiom, ...]) -> list[str]:
    clashes: list[str] = []
    for i, first in enumerate(axioms):
        for second in axioms[i + 1 :]:
            if variant_of(first.lhs, second.lhs):
                # Rename second onto first's variables and compare RHS.
                from repro.algebra.matching import match

                sigma = match(second.lhs, first.lhs)
                if sigma is not None and sigma.apply(second.rhs) != first.rhs:
                    clashes.append(
                        f"{first} vs {second}: same left-hand side, "
                        f"different right-hand sides"
                    )
    return clashes


def check_consistency(
    spec: Union[Specification, SpecAnalysis],
    ground_instances: int = 40,
    fuel: int = 50_000,
) -> ConsistencyReport:
    """Run all three consistency detectors on ``spec`` (or on the spec
    of an analysis other checks share).

    The ground confrontation takes an equal share of ``ground_instances``
    per axiom, and ``fuel`` bounds it as a whole, as it bounds each term
    completion simplifies."""
    analysis = SpecAnalysis.of(spec)
    spec = analysis.spec
    report = ConsistencyReport(spec.name, Verdict.INCONCLUSIVE)

    report.direct_clashes = _find_direct_clashes(spec.axioms)
    if report.direct_clashes:
        report.verdict = Verdict.INCONSISTENT
        return report

    # Ground confrontation first: cheap, and a witness is decisive.
    def confront(axiom: Axiom, sigma, normalize) -> None:
        lhs, rhs = sigma.apply(axiom.lhs), sigma.apply(axiom.rhs)
        normal_lhs, normal_rhs = normalize(lhs), normalize(rhs)
        if normal_lhs != normal_rhs:
            report.ground_witnesses.append(
                GroundWitness(axiom, lhs, rhs, normal_lhs, normal_rhs)
            )

    substitutions = analysis.enumerator.substitutions
    groups = [(a, substitutions(a.lhs, a.rhs)) for a in spec.axioms]
    (
        report.ground_instances_checked,
        report.ground_undecided,
        report.ground_complete_to,
    ) = run_ground(analysis.engine, groups, ground_instances, fuel, confront)
    if report.ground_witnesses:
        report.verdict = Verdict.INCONSISTENT
        return report

    report.completion = complete(
        analysis.ruleset,
        analysis.precedence,
        max_rounds=COMPLETION_ROUNDS,
        fuel=fuel,
    )
    if report.completion.status is CompletionStatus.INCONSISTENT:
        report.verdict = Verdict.INCONSISTENT
    elif report.completion.status is CompletionStatus.COMPLETE:
        report.verdict = Verdict.CONSISTENT
    else:
        report.verdict = Verdict.INCONCLUSIVE
    return report
