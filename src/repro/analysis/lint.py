"""One-call specification linting.

``lint_specification`` bundles the four analyses a specification author
wants before trusting a spec — sufficient completeness, consistency,
definitional-shape checks, and axiom coverage — into a single report
with a single verdict.  It is the only code that runs the checks
together, on one shared :class:`~repro.analysis.spec_analysis.SpecAnalysis`:
the CLI's ``check`` command and the daemon's ``/v1/check`` are built
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.spec.axioms import check_definitional
from repro.spec.specification import Specification
from repro.analysis.consistency import ConsistencyReport, check_consistency
from repro.analysis.coverage import AxiomCoverageReport, check_axiom_coverage
from repro.analysis.spec_analysis import SpecAnalysis
from repro.analysis.sufficient_completeness import (
    CompletenessReport,
    check_sufficient_completeness,
)


@dataclass
class LintReport:
    spec_name: str
    completeness: CompletenessReport
    consistency: ConsistencyReport
    coverage: Optional[AxiomCoverageReport]
    shape_problems: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        verdicts = [
            self.completeness.sufficiently_complete,
            self.consistency.consistent,
            not self.shape_problems,
        ]
        if self.coverage is not None:
            verdicts.append(self.coverage.fully_covered)
        return all(verdicts)

    def problems(self) -> list[str]:
        """Human-readable list of everything wrong (empty when clean)."""
        found: list[str] = []
        for case in self.completeness.missing:
            found.append(f"missing case: {case.pattern}")
        for case in self.completeness.overlapping:
            found.append(f"overlapping axioms cover {case.pattern}")
        for bad in self.completeness.non_decreasing:
            found.append(str(bad))
        for stuck in self.completeness.stuck:
            found.append(str(stuck))
        if not self.consistency.consistent:
            found.append(
                f"consistency: {self.consistency.verdict.name.lower()}"
            )
        found.extend(self.shape_problems)
        if self.coverage is not None:
            for label in self.coverage.uncovered:
                found.append(f"axiom ({label}) never fires (dead/shadowed?)")
        return found

    def __str__(self) -> str:
        verdict = "CLEAN" if self.clean else "PROBLEMS"
        lines = [f"lint of {self.spec_name}: {verdict}"]
        lines.extend(f"  {problem}" for problem in self.problems())
        return "\n".join(lines)


def lint_specification(
    spec: Specification,
    with_coverage: bool = True,
    sample_terms: int = 60,
) -> LintReport:
    """Run every specification check and combine the verdicts;
    ``sample_terms`` bounds the completeness sample."""
    analysis = SpecAnalysis(spec)
    completeness = check_sufficient_completeness(analysis, sample_terms=sample_terms)
    consistency = check_consistency(analysis)
    coverage = check_axiom_coverage(analysis) if with_coverage else None
    shape = check_definitional(spec.axioms)
    return LintReport(spec.name, completeness, consistency, coverage, shape)
