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
3. **Ground confrontation** — random ground instances of every axiom are
   evaluated by the engine; any instance whose two sides normalise
   differently is a concrete witness of inconsistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional

from repro.algebra.matching import variant_of
from repro.algebra.terms import Term
from repro.spec.axioms import Axiom
from repro.spec.specification import Specification
from repro.analysis.classify import classify
from repro.rewriting.completion import CompletionResult, CompletionStatus, complete
from repro.rewriting.engine import RewriteEngine, RewriteLimitError
from repro.rewriting.ordering import Precedence
from repro.rewriting.rules import RuleSet


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
        lines.append(
            f"(ground instances checked: {self.ground_instances_checked})"
        )
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
    spec: Specification,
    ground_instances: int = 40,
    max_depth: int = 5,
    seed: int = 2026,
    completion_rounds: int = 6,
    fuel: int = 50_000,
) -> ConsistencyReport:
    """Run all three consistency detectors on ``spec``."""
    axioms = spec.all_axioms()
    report = ConsistencyReport(spec.name, Verdict.INCONCLUSIVE)

    report.direct_clashes = _find_direct_clashes(spec.axioms)
    if report.direct_clashes:
        report.verdict = Verdict.INCONSISTENT
        return report

    # Ground confrontation first: cheap, and a witness is decisive.
    report.ground_instances_checked = _confront_ground(
        spec, report, ground_instances, max_depth, seed, fuel
    )
    if report.ground_witnesses:
        report.verdict = Verdict.INCONSISTENT
        return report

    cls = classify(spec)
    precedence = Precedence.definitional(
        cls.constructors, cls.defined_operations
    )
    ruleset = RuleSet.from_axioms(axioms)
    report.completion = complete(
        ruleset, precedence, max_rounds=completion_rounds, fuel=fuel
    )
    if report.completion.status is CompletionStatus.INCONSISTENT:
        report.verdict = Verdict.INCONSISTENT
    elif report.completion.status is CompletionStatus.COMPLETE:
        report.verdict = Verdict.CONSISTENT
    else:
        report.verdict = Verdict.INCONCLUSIVE
    return report


def _confront_ground(
    spec: Specification,
    report: ConsistencyReport,
    instances: int,
    max_depth: int,
    seed: int,
    fuel: int,
) -> int:
    from repro.testing.termgen import GenerationError, GroundTermGenerator

    engine = RewriteEngine.for_specification(spec, fuel=fuel)
    generator = GroundTermGenerator(spec, seed=seed, max_depth=max_depth)
    checked = 0
    own_axioms = spec.axioms
    if not own_axioms:
        return 0
    per_axiom = max(1, instances // len(own_axioms))
    for axiom in own_axioms:
        variables = axiom.variables()
        for _ in range(per_axiom):
            try:
                sigma = generator.substitution_for(variables)
            except GenerationError:
                continue
            lhs = sigma.apply(axiom.lhs)
            rhs = sigma.apply(axiom.rhs)
            checked += 1
            try:
                normal_lhs = engine.normalize(lhs)
                normal_rhs = engine.normalize(rhs)
            except RewriteLimitError:
                continue
            if normal_lhs != normal_rhs:
                report.ground_witnesses.append(
                    GroundWitness(axiom, lhs, rhs, normal_lhs, normal_rhs)
                )
    return checked
