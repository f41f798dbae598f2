"""Critical pairs between rewrite rules.

When two axioms' left-hand sides *overlap* — one unifies with a
non-variable subterm of the other — a single term can be rewritten two
different ways.  The pair of results is a *critical pair*; if some pair
cannot be rewritten back together (is not *joinable*), the two axioms
genuinely disagree and the specification is inconsistent.  The
consistency analysis (:mod:`repro.analysis.consistency`) is built on
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.algebra.terms import App, Ite, Position, Term
from repro.algebra.unification import rename_apart, unify
from repro.rewriting.rules import RewriteRule, RuleSet


@dataclass(frozen=True)
class CriticalPair:
    """Two one-step results of rewriting the same overlapped term."""

    left: Term
    right: Term
    overlap: Term
    position: Position
    outer_rule: RewriteRule
    inner_rule: RewriteRule

    @property
    def is_trivial(self) -> bool:
        return self.left == self.right

    def __str__(self) -> str:
        return (
            f"<{self.left} , {self.right}> from {self.overlap} "
            f"(rules {self.outer_rule.label or self.outer_rule.head.name} / "
            f"{self.inner_rule.label or self.inner_rule.head.name})"
        )


def _non_variable_positions(term: Term) -> Iterator[tuple[Position, Term]]:
    for position, node in term.subterms():
        if isinstance(node, (App, Ite)):
            yield position, node


def critical_pairs_between(
    outer: RewriteRule, inner: RewriteRule, include_root_self: bool = False
) -> Iterator[CriticalPair]:
    """Critical pairs from overlapping ``inner``'s LHS into ``outer``'s.

    A rule trivially overlaps itself at the root; that overlap is skipped
    unless ``include_root_self`` is set (it only yields the trivial pair).
    """
    taken = outer.lhs.variables() | outer.rhs.variables()
    renamed_lhs, renaming = rename_apart(inner.lhs, taken)
    renamed_rhs = renaming.apply(inner.rhs)

    same_rule = outer.lhs == inner.lhs and outer.rhs == inner.rhs
    for position, subterm in _non_variable_positions(outer.lhs):
        if same_rule and position == () and not include_root_self:
            continue
        unifier = unify(subterm, renamed_lhs)
        if unifier is None:
            continue
        overlap = unifier.apply(outer.lhs)
        left = unifier.apply(outer.rhs)
        right = unifier.apply(outer.lhs.replace_at(position, renamed_rhs))
        yield CriticalPair(left, right, overlap, position, outer, inner)


def all_critical_pairs(rules: Iterable[RewriteRule]) -> list[CriticalPair]:
    """Every critical pair among ``rules`` (both overlap directions).

    ``inner`` can only overlap ``outer`` where ``outer.lhs`` has an
    application headed by ``inner``'s head symbol, so each rule's set of
    operation names at non-variable positions, built once, skips the
    pairs that cannot overlap.  The result is the list the plain double
    loop over :func:`critical_pairs_between` gives, in the same order."""
    rule_list = list(rules)
    symbols = [
        {node.op.name for _, node in outer.lhs.subterms() if isinstance(node, App)}
        for outer in rule_list
    ]
    pairs: list[CriticalPair] = []
    for outer, names in zip(rule_list, symbols):
        for inner in rule_list:
            if inner.head.name in names:
                pairs.extend(critical_pairs_between(outer, inner))
    return pairs


def joinable(pair: CriticalPair, engine) -> bool:
    """True when both sides of ``pair`` simplify to the same term.

    Symbolic simplification (not just value-mode normalisation) is used
    because critical pairs generally contain variables.
    """
    return engine.simplify(pair.left) == engine.simplify(pair.right)


def unjoinable_pairs(ruleset: RuleSet, engine) -> list[CriticalPair]:
    """The critical pairs of ``ruleset`` that fail to join."""
    return [
        pair
        for pair in all_critical_pairs(ruleset)
        if not pair.is_trivial and not joinable(pair, engine)
    ]
