"""Skolemization: fixed-but-arbitrary constants for proof variables.

The prover establishes ``∀ x. lhs(x) = rhs(x)`` by proving
``lhs(c) = rhs(c)`` for a *fresh constant* ``c``.  Using constants
instead of free variables keeps every assumption the prover accumulates
(case-split facts like ``ISSAME?(c1, c2) = true``, Assumption 1
instances, induction hypotheses at the induction constant) an *exact*
rewrite about specific values — a free variable in an assumption would
silently generalise it to everything of its sort, which is unsound.
"""

from __future__ import annotations

import itertools
from typing import Iterable, MutableMapping, Optional

from repro.algebra.signature import Operation
from repro.algebra.sorts import Sort
from repro.algebra.substitution import Substitution
from repro.algebra.terms import App, Term, Var

_counter = itertools.count(1)


def fresh_constant(name: str, sort: Sort) -> App:
    """A fresh skolem constant of ``sort``, printed ``name$k``."""
    operation = Operation(f"{name}${next(_counter)}", (), sort)
    return App(operation, ())


def is_skolem(term: Term) -> bool:
    """True when ``term`` is a skolem constant from this module."""
    return isinstance(term, App) and not term.args and "$" in term.op.name


def skolemize_pair(
    lhs: Term,
    rhs: Term,
    keep: Iterable[Var] = (),
    skolems: Optional[MutableMapping[Var, Term]] = None,
) -> tuple[Term, Term, dict[Var, Term]]:
    """Skolemise both sides of an equation with shared constants.

    Variables listed in ``keep`` are left free (for a variable a caller
    still means to expand, such as an induction variable).  ``skolems``
    is a table of constants already chosen: a variable found there
    keeps its constant, and a new one is added to it.  Returns both
    sides and this equation's mapping from variable to constant.
    """
    table: MutableMapping[Var, Term] = {} if skolems is None else skolems
    kept = set(keep)
    mapping: dict[Var, Term] = {}
    for variable in sorted(
        (lhs.variables() | rhs.variables()) - kept, key=lambda v: v.name
    ):
        constant = table.get(variable)
        if constant is None:
            constant = table[variable] = fresh_constant(
                variable.name, variable.sort
            )
        mapping[variable] = constant
    sigma = Substitution(mapping)
    return sigma.apply(lhs), sigma.apply(rhs), mapping
