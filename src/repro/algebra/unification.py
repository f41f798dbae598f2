"""Many-sorted syntactic unification.

Unification finds a substitution σ with ``σ(s) == σ(t)``; unlike
matching, variables on both sides may be bound.  It is needed to compute
*critical pairs* between axioms, which drive the consistency analysis:
two axioms whose left-hand sides overlap may rewrite one term two ways,
and the results must be joinable for the specification to be consistent.

The algorithm is Robinson's, with an occurs check and the sort
discipline that a variable may only be bound to a term of its sort.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.terms import App, Err, Ite, Lit, Term, Var
from repro.algebra.substitution import Substitution


class UnificationError(Exception):
    """Raised internally when two terms cannot be unified."""


def unify(left: Term, right: Term) -> Optional[Substitution]:
    """The most general unifier of ``left`` and ``right``, or ``None``."""
    try:
        bindings = _solve([(left, right)], {})
    except UnificationError:
        return None
    return Substitution(bindings)


def _solve(
    problems: list[tuple[Term, Term]], bindings: dict[Var, Term]
) -> dict[Var, Term]:
    while problems:
        left, right = problems.pop()
        left = _walk(left, bindings)
        right = _walk(right, bindings)
        if left == right:
            continue
        if isinstance(left, Var):
            _bind(left, right, bindings)
        elif isinstance(right, Var):
            _bind(right, left, bindings)
        elif isinstance(left, App) and isinstance(right, App):
            if left.op != right.op:
                raise UnificationError(f"{left.op.name} != {right.op.name}")
            problems.extend(zip(left.args, right.args))
        elif isinstance(left, Ite) and isinstance(right, Ite):
            problems.extend(zip(left.children(), right.children()))
        elif isinstance(left, (Lit, Err)) or isinstance(right, (Lit, Err)):
            raise UnificationError(f"{left} != {right}")
        else:
            raise UnificationError(f"{left} != {right}")
    # Fully resolve bindings so the result is idempotent.
    return {v: _resolve(t, bindings) for v, t in bindings.items()}


def _walk(term: Term, bindings: dict[Var, Term]) -> Term:
    while isinstance(term, Var) and term in bindings:
        term = bindings[term]
    return term


def _bind(variable: Var, term: Term, bindings: dict[Var, Term]) -> None:
    if variable.sort != term.sort:
        raise UnificationError(
            f"sort clash binding {variable}: {variable.sort} vs {term.sort}"
        )
    if _occurs(variable, term, bindings):
        raise UnificationError(f"occurs check: {variable} in {term}")
    bindings[variable] = term


def _occurs(variable: Var, term: Term, bindings: dict[Var, Term]) -> bool:
    term = _walk(term, bindings)
    if term == variable:
        return True
    if term.is_ground():
        # A ground subtree contains no variables at all.
        return False
    return any(_occurs(variable, kid, bindings) for kid in term.children())


def _resolve(term: Term, bindings: dict[Var, Term]) -> Term:
    term = _walk(term, bindings)
    if term.is_ground():
        return term
    kids = term.children()
    if not kids:
        return term
    new_kids = [_resolve(kid, bindings) for kid in kids]
    if all(new is old for new, old in zip(new_kids, kids)):
        return term
    return term.with_children(new_kids)


def rename_apart(term: Term, taken: set[Var]) -> tuple[Term, Substitution]:
    """Rename the variables of ``term`` away from ``taken``.

    Returns the renamed term and the renaming used.  Needed before
    computing critical pairs, where the two axioms' variables must be
    disjoint.  A clashing ``x`` becomes the first ``x#1``, ``x#2``, ...
    free of ``taken`` and of ``term``'s own variables, so the result
    depends only on the arguments.
    """
    own = term.variables()
    used = set(taken) | own
    renaming: dict[Var, Term] = {}
    for variable in sorted(own, key=lambda v: v.name):
        if variable in taken:
            suffix = 1
            fresh = Var(f"{variable.name}#{suffix}", variable.sort)
            while fresh in used:
                suffix += 1
                fresh = Var(f"{variable.name}#{suffix}", variable.sort)
            used.add(fresh)
            renaming[variable] = fresh
    sigma = Substitution(renaming)
    return sigma.apply(term), sigma
