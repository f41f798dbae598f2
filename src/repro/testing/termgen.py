"""Deterministic ground-term enumeration, smallest instances first.

By sufficient completeness every ground term equals a constructor term,
so the ground instances worth checking are the constructor terms: the
carrier of the initial algebra.  :class:`GroundTermEnumerator` lists
them per sort in increasing size (number of nodes), and tuples of them
(axiom substitutions, observer arguments) in increasing total size.
Each check takes a bounded prefix of that one order and reports its
test hypothesis (Gaudel & Le Gall): *regularity*, "holds for all N
instances, complete to size k" (:func:`prefix`), and *uniformity*: a
literal sort that the rules read through no builtin but ``ISSAME?`` is
taken up to renaming, its values handed out in first-occurrence order.
``docs/verification.md`` states the hypothesis in full.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.algebra.signature import Operation
from repro.algebra.sorts import NAT, Sort
from repro.algebra.substitution import Substitution
from repro.algebra.terms import App, Lit, Term, Var
from repro.spec.prelude import ATTRIBUTELIST, IDENTIFIER, ISSAME, ITEM
from repro.spec.specification import Specification

#: Literal values per sort name: the class representatives, in the
#: order renaming hands them out.
DEFAULT_POOLS: dict[str, tuple[object, ...]] = {
    str(IDENTIFIER): ("x", "y", "z", "tmp", "count"),
    str(ITEM): ("a", "b", "c", 1, 2),
    str(ATTRIBUTELIST): ("int", "real", "proc", ("int", 4)),
    str(NAT): (0, 1, 2, 3, 7),
    "Elem": ("e1", "e2", "e3"),
}


class GenerationError(Exception):
    """Raised when no ground term of a requested sort can be built."""


def constructor_table(spec: Specification) -> dict[Sort, list[Operation]]:
    """Free constructors per sort: operations that head no axiom and
    have no builtin, so the terms built from them are normal forms."""
    heads = {axiom.head.name for axiom in spec.all_axioms()}
    table: dict[Sort, list[Operation]] = {}
    for operation in spec.full_signature().operations:
        if operation.name not in heads and operation.builtin is None:
            table.setdefault(operation.range, []).append(operation)
    return table


def variables_in_order(*terms: Term) -> list[Var]:
    """The variables of ``terms`` in order of first occurrence."""
    found: list[Var] = []
    for term in terms:
        _scan(term, found, {})
    return list(dict.fromkeys(found))


def prefix(instances: Iterator[tuple[int, object]], count: int):
    """The first ``count`` ``(size, instance)`` pairs of a smallest-first
    enumeration, and the largest size k whose instances are all among
    them (``None`` when the enumeration ran out: nothing was left)."""
    taken = list(itertools.islice(instances, count))
    following = next(instances, None)
    return taken, None if following is None else following[0] - 1


def tighter(bound: Optional[int], other: Optional[int]) -> Optional[int]:
    """The smaller of two completeness bounds (``None`` is unbounded)."""
    return other if bound is None else bound if other is None else min(bound, other)


def hypothesis(count: int, complete_to: Optional[int], undecided: int = 0) -> str:
    """What a bounded prefix checked, as the reports print it."""
    bound = "exhaustive" if complete_to is None else f"complete to size {complete_to}"
    text = f"{count} instance{'' if count == 1 else 's'}, {bound}"
    return text + (f", {undecided} undecided" if undecided else "")


class GroundTermEnumerator:
    """Lists ground constructor terms of ``spec``, smallest first.

    ``rules`` (default: ``spec``'s axioms) decide which literal sorts are
    taken up to renaming.  Terms of each size are built once, from the
    hash-consed terms of smaller sizes, and kept for the enumerator's
    life: make one per check, or per analysis the checks share.
    """

    def __init__(self, spec: Specification, rules: Optional[Iterable] = None) -> None:
        self._constructors = constructor_table(spec)
        self._inspected: set[Sort] = set()
        for rule in spec.all_axioms() if rules is None else rules:
            for side in (rule.lhs, rule.rhs):
                for _, sub in side.subterms():
                    if isinstance(sub, Lit):
                        self._inspected.add(sub.sort)
                    elif isinstance(sub, App) and sub.op.builtin and sub.op != ISSAME:
                        self._inspected.update((*sub.op.domain, sub.op.range))
        self._inhabited = {Sort(name) for name in DEFAULT_POOLS}
        for _ in self._constructors:  # each round adds a sort, or none will
            for sort, ops in self._constructors.items():
                if any(all(s in self._inhabited for s in op.domain) for op in ops):
                    self._inhabited.add(sort)
        self._sized_terms: dict[tuple[Sort, int], list[Term]] = {}
        self._bounds: dict[Sort, float] = {}

    def renamable(self, sort: Sort) -> bool:
        """Is ``sort`` a literal sort taken up to renaming?"""
        literal = str(sort) in DEFAULT_POOLS and sort not in self._constructors
        return literal and sort not in self._inspected

    def inhabited(self, sort: Sort) -> bool:
        """Has ``sort`` a ground constructor term?"""
        return sort in self._inhabited

    def leaves(self, sort: Sort) -> list[Term]:
        """``sort``'s literals: one hole filled up to renaming, or its pool."""
        if self.renamable(sort):
            return [Var("_", sort)]
        return [Lit(value, sort) for value in DEFAULT_POOLS.get(str(sort), ())]

    def _sized(self, sort: Sort, size: int) -> list[Term]:
        """Every term of ``sort`` with exactly ``size`` nodes (renamable
        literals left as holes), constructors in signature order."""
        found = self._sized_terms.get((sort, size))
        if found is None:
            found = [
                App(op, args)
                for op in self._constructors.get(sort, ())
                for args in _of_total([self.column(s) for s in op.domain], size - 1)
            ]
            found += self.leaves(sort) if size == 1 else []
            self._sized_terms[sort, size] = found
        return found

    def _bound(self, sort: Sort, visiting: frozenset = frozenset()) -> float:
        """The largest size of a term of ``sort``: ``inf`` when the sort
        is recursive, ``0`` when it is uninhabited."""
        if sort in self._bounds or sort not in self._inhabited:
            return self._bounds.get(sort, 0)
        if sort in visiting:
            return math.inf
        best: float = 1 if str(sort) in DEFAULT_POOLS else 0
        for op in self._constructors.get(sort, ()):
            if all(s in self._inhabited for s in op.domain):
                inner = sum(self._bound(s, visiting | {sort}) for s in op.domain)
                best = max(best, 1 + inner)
        self._bounds[sort] = best
        return best

    def column(self, sort: Sort) -> tuple[Callable[[int], list[Term]], float]:
        """A tuple position: the terms of each size, and the largest size."""
        return (lambda size: self._sized(sort, size)), self._bound(sort)

    def terms(self, sort: Sort) -> Iterator[Term]:
        """Every ground constructor term of ``sort``, smallest first."""
        if not self.inhabited(sort):
            raise GenerationError(f"no constructors or literals for sort {sort}")
        return (term for _, (term,) in self.tuples((sort,)))

    def tuples(self, sorts: Sequence[Sort]) -> Iterator[tuple[int, tuple[Term, ...]]]:
        """``(total size, terms)`` over ``sorts``, smallest first."""
        return self.product([self.column(sort) for sort in sorts])

    def product(self, columns: Sequence) -> Iterator[tuple[int, tuple[Term, ...]]]:
        """``(total size, terms)`` over ``columns`` (lists of terms, or
        :meth:`column`), smallest first, holes filled up to renaming."""
        columns = [c if isinstance(c, tuple) else _listed(c) for c in columns]
        if not all(bound for _, bound in columns):
            return
        size, total = len(columns), sum(bound for _, bound in columns)
        while size <= total:
            for shape in _of_total(columns, size):
                for filled in self._fillings(shape):
                    yield size, filled
            size += 1

    def observations(self, operation: Operation) -> Iterator[tuple[int, App]]:
        """``operation`` applied to every argument tuple, smallest first."""
        for size, args in self.tuples(operation.domain):
            yield size, App(operation, args)

    def substitutions(self, *terms: Term) -> Iterator[tuple[int, Substitution]]:
        """Ground substitutions for the variables of ``terms``, smallest
        first.  Variables are taken in order of first occurrence, so the
        result depends on where they occur, not on their names."""
        variables = variables_in_order(*terms)
        for size, values in self.tuples([v.sort for v in variables]):
            yield size, Substitution(dict(zip(variables, values)))

    def _fillings(self, terms: tuple[Term, ...]) -> Iterator[tuple[Term, ...]]:
        """Every way to fill the holes of ``terms``, left to right, up to
        renaming: a hole takes a value already present in the tuple, or
        the first pool value that is not."""
        holes: list[Var] = []
        present: dict[Sort, list[object]] = {}
        for term in terms:
            _scan(term, holes, present)
        for values in _choices([hole.sort for hole in holes], 0, present):
            feed = iter(values)
            yield tuple(_plug(term, feed) for term in terms)


def _listed(terms: Sequence[Term]) -> tuple:
    by_size: dict[int, list[Term]] = {}
    for term in terms:
        by_size.setdefault(term.size(), []).append(term)
    return (lambda size: by_size.get(size, ())), max(by_size, default=0)


def _of_total(columns: Sequence[tuple], total: int) -> Iterator[tuple[Term, ...]]:
    """Tuples over ``columns`` whose sizes add up to ``total``."""
    if not columns:
        if total == 0:
            yield ()
        return
    (sized, bound), rest = columns[0], columns[1:]
    rest_bound = sum(b for _, b in rest)
    for size in range(max(1, total - rest_bound), min(bound, total - len(rest)) + 1):
        heads = sized(size)
        if heads:
            tails = list(_of_total(rest, total - size))
            for head in heads:
                for tail in tails:
                    yield (head, *tail)


def _scan(term: Term, holes: list, present: dict) -> None:
    """Collect, left to right, the holes (variables) of ``term`` and the
    distinct values of its literals per sort."""
    if isinstance(term, Var):
        holes.append(term)
    elif isinstance(term, Lit):
        values = present.setdefault(term.sort, [])
        if term.value not in values:
            values.append(term.value)
    else:
        for child in term.children():
            _scan(child, holes, present)


def _choices(holes: list[Sort], index: int, present: dict) -> Iterator[tuple]:
    """Canonical values for ``holes[index:]``: each hole takes a value in
    use or the first unused pool value."""
    if index == len(holes):
        yield ()
        return
    used = present.setdefault(holes[index], [])
    fresh = [v for v in DEFAULT_POOLS[str(holes[index])] if v not in used][:1]
    for value in used + fresh:
        if value in fresh:
            used.append(value)
        for rest in _choices(holes, index + 1, present):
            yield (value, *rest)
        if value in fresh:
            used.pop()


def _plug(term: Term, values: Iterator[object]) -> Term:
    if term.is_ground():
        return term
    if isinstance(term, Var):
        return Lit(next(values), term.sort)
    return App(term.op, [_plug(arg, values) for arg in term.args])
