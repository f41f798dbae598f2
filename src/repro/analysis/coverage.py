"""Axiom coverage: which equations actually do work.

A lint pass complementing sufficient completeness: run the smallest
ground observations through the engine and record which axioms ever
fire.  An axiom that never fires on them is either

* *shadowed* — an earlier axiom with an overlapping left-hand side
  always wins (an overlap the consistency checker reports only when the
  results disagree), or
* *unreachable* — its left-hand side describes terms the constructors
  cannot produce, or
* needs a larger observation than the sample reached, which the
  report's firing counts and completeness bound make easy to judge.

The analysis is dynamic and advisory (a clean completeness report plus
full coverage is strong evidence the specification is exactly the set of
facts intended, with nothing dead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.spec.specification import Specification
from repro.analysis.spec_analysis import SpecAnalysis, run_ground
from repro.rewriting.engine import RewriteEngine
from repro.testing.termgen import hypothesis


@dataclass
class AxiomCoverageReport:
    spec_name: str
    firing_counts: dict[str, int] = field(default_factory=dict)
    observations_run: int = 0
    undecided: int = 0  # out of fuel, or never run: not among observations_run
    #: Every observation up to this argument size was run (None: all were).
    complete_to: Optional[int] = None

    @property
    def uncovered(self) -> list[str]:
        """Labels (or renderings) of axioms that never fired."""
        return [label for label, count in self.firing_counts.items() if count == 0]

    @property
    def fully_covered(self) -> bool:
        return not self.uncovered

    def __str__(self) -> str:
        checked = hypothesis(self.observations_run, self.complete_to, self.undecided)
        lines = [f"axiom coverage for {self.spec_name} ({checked})"]
        for label, count in self.firing_counts.items():
            marker = "" if count else "   <- never fired"
            lines.append(f"  {label}: {count}{marker}")
        return "\n".join(lines)


def check_axiom_coverage(
    spec: Union[Specification, SpecAnalysis],
    observations: int = 200,
    fuel: int = 100_000,
) -> AxiomCoverageReport:
    """Run the smallest ground observations and report per-axiom firing
    counts for ``spec`` (or for the spec of an analysis other checks
    share); ``fuel`` bounds the whole run.

    Only this level's own axioms are reported (used levels are theirs to
    cover); the rule order is the specification's, so shadowing by an
    earlier axiom shows up exactly as it would in execution.
    """
    analysis = SpecAnalysis.of(spec)
    spec = analysis.spec
    # No memo: a memo hit would hide the firings it saves.
    engine = RewriteEngine(analysis.ruleset, cache_size=0)
    report = AxiomCoverageReport(spec.name)
    report.observations_run, report.undecided, report.complete_to = run_ground(
        engine,
        analysis.observations(),
        observations,
        fuel,
        lambda _, term, normalize: normalize(term),
    )
    for axiom in spec.axioms:
        label = axiom.label or str(axiom)
        report.firing_counts[label] = engine.stats.firing_count(
            analysis.rules[axiom]
        )
    return report
