"""What the specification checks share: one analysis per specification,
and one fuel-bounded evaluation loop over ground instances.

Completeness, consistency and coverage each accept a
:class:`SpecAnalysis` in place of the specification, and
:func:`~repro.analysis.lint.lint_specification` hands all three the same
one.  ``docs/verification.md`` states the test hypothesis
:func:`run_ground` implements.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Union

from repro.algebra.terms import Term
from repro.analysis.classify import classify
from repro.rewriting.engine import RewriteEngine, RewriteLimitError
from repro.rewriting.ordering import Precedence, rule_decreases
from repro.rewriting.rules import RuleSet, rule_from_axiom
from repro.runtime.budget import EvaluationBudget
from repro.spec.specification import Specification
from repro.testing.termgen import GroundTermEnumerator, prefix, tighter


class SpecAnalysis:
    """A specification's classification, definitional precedence and
    oriented axioms; its enumerator and engine are built on first use."""

    def __init__(self, spec: Specification) -> None:
        self.spec = spec
        self.classification = cls = classify(spec)
        self.precedence = Precedence.definitional(
            cls.constructors, cls.defined_operations
        )
        axioms = spec.all_axioms()
        #: Every axiom's rule, this level's too: ``all_axioms`` drops an
        #: axiom whose sides repeat another's.
        self.rules = {a: rule_from_axiom(a) for a in (*axioms, *spec.axioms)}
        self.ruleset = RuleSet(self.rules[axiom] for axiom in axioms)
        #: This level's axioms the path ordering cannot certify.
        self.non_decreasing = [
            a for a in spec.axioms if not rule_decreases(self.rules[a], self.precedence)
        ]

    @classmethod
    def of(cls, subject: Union[Specification, SpecAnalysis]) -> SpecAnalysis:
        """``subject`` when it is an analysis already, else a new one."""
        return subject if isinstance(subject, SpecAnalysis) else cls(subject)

    @cached_property
    def enumerator(self) -> GroundTermEnumerator:
        return GroundTermEnumerator(self.spec)

    @cached_property
    def engine(self) -> RewriteEngine:
        """The memoising engine completeness and consistency share."""
        return RewriteEngine(self.ruleset)

    def observations(self) -> list:
        """Per defined operation, its observations, smallest first."""
        operations = self.classification.defined_operations
        return [(op, self.enumerator.observations(op)) for op in operations]


def run_ground(
    engine: RewriteEngine, groups: list, count: int, fuel: int, visit: Callable
) -> tuple[int, int, Optional[int]]:
    """Hand ``visit(key, instance, normalize)`` the smallest instances of
    each ``(key, enumeration)`` group, ``count`` split evenly across the
    groups, with one budget of ``fuel`` for them all: ``normalize`` is
    ``engine.normalize`` under what is left of it.

    An instance whose ``visit`` lets :class:`RewriteLimitError` escape is
    undecided; once the budget is spent, so is every later instance,
    unrun.  Returns how many instances ran, how many are undecided, and
    the largest size whose instances all ran (None: every one did).
    """
    spent, left = engine.stats.s_fuel, fuel

    def normalize(term: Term) -> Term:
        nonlocal left
        before = spent[0]
        try:
            return engine.normalize(term, EvaluationBudget(fuel=left))
        finally:
            left -= spent[0] - before

    run = undecided = 0
    bound: Optional[int] = None
    share = max(1, count // max(1, len(groups)))
    for key, enumeration in groups:
        taken, complete_to = prefix(enumeration, share)
        for size, instance in taken:
            if left > 0:
                try:
                    visit(key, instance, normalize)
                    run += 1
                    continue
                except RewriteLimitError:
                    pass
            undecided += 1
            complete_to = tighter(complete_to, size - 1)
        bound = tighter(bound, complete_to)
    return run, undecided, bound
