"""Hypothesis strategies over a specification's term algebra.

``term_strategy(spec, sort)`` draws ground constructor terms of ``sort``
with proper shrinking (smaller terms first), so property tests get
minimal counterexamples.  ``value_strategy(binding, sort)`` additionally
evaluates the drawn term through an implementation binding, yielding
Python values of the abstract type for direct property testing.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import strategies as st

from repro.algebra.sorts import Sort
from repro.algebra.terms import App, Lit, Term
from repro.spec.specification import Specification
from repro.testing.termgen import (
    DEFAULT_POOLS,
    GroundTermEnumerator,
    constructor_table,
)
from repro.testing.oracle import ImplementationBinding


def term_strategy(
    spec: Specification,
    sort: Sort,
    max_leaves: int = 12,
) -> st.SearchStrategy[Term]:
    """Ground constructor terms of ``sort`` under ``spec``, with literals
    drawn from :data:`~repro.testing.termgen.DEFAULT_POOLS`."""
    table = constructor_table(spec)
    # Fail fast on uninhabited sorts (st.deferred would only surface the
    # problem at draw time).
    if not GroundTermEnumerator(spec).inhabited(sort):
        raise ValueError(f"sort {sort} is uninhabited under {spec.name}")

    cache: dict[Sort, st.SearchStrategy[Term]] = {}

    def for_sort(target: Sort) -> st.SearchStrategy[Term]:
        if target in cache:
            return cache[target]
        strategy = st.deferred(lambda: build(target))
        cache[target] = strategy
        return strategy

    def build(target: Sort) -> st.SearchStrategy[Term]:
        alternatives: list[st.SearchStrategy[Term]] = []
        pool = DEFAULT_POOLS.get(str(target))
        if pool:
            alternatives.append(
                st.sampled_from(pool).map(lambda v, s=target: Lit(v, s))
            )
        constructors = table.get(target, [])
        bases = [op for op in constructors if not op.domain]
        recursives = [op for op in constructors if op.domain]
        alternatives.extend(st.just(App(op, ())) for op in bases)
        extensions = [
            st.tuples(*[for_sort(s) for s in op.domain]).map(
                lambda args, o=op: App(o, args)
            )
            for op in recursives
        ]
        if not alternatives:
            # Inhabited, so every term goes through another sort.
            return st.one_of(extensions)
        base = st.one_of(alternatives)
        if not extensions:
            return base
        return st.recursive(
            base,
            lambda children: st.one_of(
                [
                    st.tuples(
                        *[
                            children if s == target else for_sort(s)
                            for s in op.domain
                        ]
                    ).map(lambda args, o=op: App(o, args))
                    for op in recursives
                ]
            ),
            max_leaves=max_leaves,
        )

    return for_sort(sort)


def value_strategy(
    binding: ImplementationBinding,
    sort: Optional[Sort] = None,
    max_leaves: int = 12,
) -> st.SearchStrategy[object]:
    """Implementation values of the (by default) type of interest."""
    spec = binding.spec
    target = sort if sort is not None else spec.type_of_interest
    return term_strategy(spec, target, max_leaves=max_leaves).map(
        lambda term: binding.evaluate(term, {})
    )


def substitution_strategy(
    spec: Specification,
    variables,
    max_leaves: int = 8,
) -> st.SearchStrategy:
    """Ground substitutions covering ``variables`` (for axiom checks)."""
    from repro.algebra.substitution import Substitution

    ordered = sorted(variables, key=lambda v: v.name)
    return st.tuples(
        *[term_strategy(spec, v.sort, max_leaves=max_leaves) for v in ordered]
    ).map(lambda terms: Substitution(dict(zip(ordered, terms))))
