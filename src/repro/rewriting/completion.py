"""A bounded Knuth–Bendix-style completion procedure.

Completion tries to turn an axiom set into a *confluent* rewrite system:
it repeatedly computes critical pairs, simplifies both sides, and when
they differ orients the residual equation into a new rule (under an RPO
precedence).  Three outcomes:

* ``complete`` — no unjoinable pairs remain; the (possibly extended)
  system is confluent, hence the original axioms are consistent.
* ``inconsistent`` — a critical pair equates two distinct constructor
  normal forms (e.g. ``true = false``); the axioms contradict each other.
* ``inconclusive`` — an equation would not orient, or the bound was hit.

This is deliberately a *bounded, definitional* completion: the paper's
specifications are already nearly confluent, and the analysis layer only
needs completion to classify them, not to complete arbitrary algebras.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterable, Optional

from repro.algebra.terms import App, Err, Lit, Term, Var
from repro.spec.axioms import Axiom
from repro.rewriting.critical_pairs import all_critical_pairs
from repro.rewriting.engine import RewriteEngine, RewriteLimitError
from repro.rewriting.ordering import Precedence, orient
from repro.rewriting.rules import RewriteRule, RuleSet
from repro.runtime.budget import EvaluationBudget


class CompletionStatus(Enum):
    COMPLETE = auto()
    INCONSISTENT = auto()
    INCONCLUSIVE = auto()


@dataclass
class CompletionResult:
    status: CompletionStatus
    rules: RuleSet
    added: list[RewriteRule] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    rounds: int = 0

    @property
    def confluent(self) -> bool:
        return self.status is CompletionStatus.COMPLETE

    def __str__(self) -> str:
        lines = [f"completion: {self.status.name.lower()} after {self.rounds} round(s)"]
        if self.added:
            lines.append("added rules:")
            lines.extend(f"  {rule}" for rule in self.added)
        if self.failures:
            lines.append("failures:")
            lines.extend(f"  {failure}" for failure in self.failures)
        return "\n".join(lines)


def _is_value_form(term: Term) -> bool:
    """A term built only from leaves and applications with no defined
    structure left to compare — used to spot direct contradictions."""
    if isinstance(term, (Lit, Err, Var)):
        return True
    if isinstance(term, App):
        return all(_is_value_form(arg) for arg in term.args)
    return False


def _contradicts(left: Term, right: Term) -> bool:
    """True when two joined-out forms are *visibly* distinct values:
    different literals, literal vs error, or two different constructor
    constants.  Variable-containing terms never contradict."""
    if left == right:
        return False
    if left.variables() or right.variables():
        return False
    if isinstance(left, Lit) and isinstance(right, Lit):
        return True
    if isinstance(left, Err) != isinstance(right, Err):
        return True
    if isinstance(left, App) and isinstance(right, App):
        if left.op != right.op:
            return True
        return any(_contradicts(l, r) for l, r in zip(left.args, right.args))
    return False


def complete(
    rules: Iterable[RewriteRule],
    precedence: Precedence,
    max_rounds: int = 8,
    max_rules: int = 200,
    fuel: int = 20_000,
) -> CompletionResult:
    """Run bounded completion over ``rules``."""
    ruleset = RuleSet(rules)
    added: list[RewriteRule] = []
    failures: list[str] = []
    rounds = 0
    budget = EvaluationBudget(fuel=fuel)
    while rounds < max_rounds:
        rounds += 1
        engine = RewriteEngine(ruleset, budget=budget)
        new_rules = RuleSet()
        for pair in all_critical_pairs(ruleset):
            try:
                left = engine.simplify(pair.left)
                right = engine.simplify(pair.right)
            except RewriteLimitError:
                failures.append(f"fuel exhausted joining {pair}")
                continue
            if left == right:
                continue
            if _contradicts(left, right):
                failures.append(
                    f"contradiction: {left} = {right} (from overlap "
                    f"{pair.overlap})"
                )
                return CompletionResult(
                    CompletionStatus.INCONSISTENT,
                    ruleset,
                    added,
                    failures,
                    rounds,
                )
            equation = _as_equation(left, right)
            if equation is None:
                failures.append(f"cannot form equation from {left} = {right}")
                continue
            rule = orient(equation, precedence)
            if rule is None:
                failures.append(f"unorientable equation {left} = {right}")
                continue
            if _known(rule, ruleset) or _known(rule, new_rules):
                continue
            new_rules.add(rule)
        if not new_rules:
            status = (
                CompletionStatus.COMPLETE
                if not failures
                else CompletionStatus.INCONCLUSIVE
            )
            return CompletionResult(status, ruleset, added, failures, rounds)
        for rule in new_rules:
            if len(ruleset) >= max_rules:
                failures.append("rule limit reached")
                return CompletionResult(
                    CompletionStatus.INCONCLUSIVE, ruleset, added, failures, rounds
                )
            ruleset.add(rule)
            added.append(rule)
    failures.append("round limit reached")
    return CompletionResult(
        CompletionStatus.INCONCLUSIVE, ruleset, added, failures, rounds
    )


def _as_equation(left: Term, right: Term) -> Optional[Axiom]:
    for lhs, rhs in ((left, right), (right, left)):
        if isinstance(lhs, App) and not (rhs.variables() - lhs.variables()):
            try:
                return Axiom(lhs, rhs)
            except Exception:  # fault-boundary: speculative orientation may be ill-sorted
                continue
    return None


def _known(rule: RewriteRule, ruleset: RuleSet) -> bool:
    from repro.algebra.matching import variant_of

    return any(
        variant_of(rule.lhs, existing.lhs) and variant_of(rule.rhs, existing.rhs)
        for existing in ruleset.for_head(rule.head)
    )
