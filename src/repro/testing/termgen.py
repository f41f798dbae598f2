"""Random ground-term generation.

Both the analysis layer (sampling observations for the
sufficient-completeness check) and the testing layer (axiom oracles,
hypothesis strategies) need ground terms of a given sort.  The
:class:`GroundTermGenerator` builds them from a specification's
constructors, drawing leaf values for literal-bearing sorts
(Identifier, Item, Attributelist, Nat) from small pools so that
collisions — the interesting case for ``ISSAME?`` — actually happen.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from repro.algebra.signature import Operation
from repro.algebra.sorts import NAT, Sort
from repro.algebra.terms import App, Lit, Term
from repro.spec.prelude import ATTRIBUTELIST, IDENTIFIER, ITEM
from repro.spec.specification import Specification

#: Default literal pools per sort name.  Small pools on purpose.
DEFAULT_POOLS: dict[str, tuple[object, ...]] = {
    str(IDENTIFIER): ("x", "y", "z", "tmp", "count"),
    str(ITEM): ("a", "b", "c", 1, 2),
    str(ATTRIBUTELIST): ("int", "real", "proc", ("int", 4)),
    str(NAT): (0, 1, 2, 3, 7),
    "Elem": ("e1", "e2", "e3"),
}


class GenerationError(Exception):
    """Raised when no ground term of a requested sort can be built."""


class GroundTermGenerator:
    """Generates random ground terms over a specification's signature.

    Parameters
    ----------
    spec:
        The specification whose constructors to use.  Constructors are
        determined per sort: operations with that range that never head
        an axiom (so values built here are in normal form already).
    seed:
        Seed for the private :class:`random.Random`; generation is
        deterministic given the seed.
    max_depth:
        Depth bound for generated terms.  At the bound, only
        non-recursive constructors (or literals) are used.
    pools:
        Overrides/extensions for the literal pools.
    """

    def __init__(
        self,
        spec: Specification,
        seed: int = 0,
        max_depth: int = 5,
        pools: Optional[dict[str, Sequence[object]]] = None,
    ) -> None:
        self.spec = spec
        self.max_depth = max_depth
        self._random = random.Random(seed)
        self._literals: dict[str, tuple[object, ...]] = dict(DEFAULT_POOLS)
        if pools:
            for name, values in pools.items():
                self._literals[name] = tuple(values)
        self._constructors = self._constructor_table()
        # Recursive constructors per sort, precomputed once rather than
        # refiltered on every generated node.
        self._recursive: dict[Sort, list[Operation]] = {
            sort: [op for op in ops if sort in op.domain]
            for sort, ops in self._constructors.items()
        }

    def _constructor_table(self) -> dict[Sort, list[Operation]]:
        signature = self.spec.full_signature()
        heads = {axiom.head.name for axiom in self.spec.all_axioms()}
        table: dict[Sort, list[Operation]] = {}
        for operation in signature.operations:
            if operation.name in heads or operation.builtin is not None:
                continue
            table.setdefault(operation.range, []).append(operation)
        return table

    # ------------------------------------------------------------------
    def term(self, sort: Sort, depth: Optional[int] = None) -> Term:
        """A random ground term of ``sort``."""
        budget = self.max_depth if depth is None else depth
        return self._term(sort, budget)

    def _term(self, sort: Sort, budget: int) -> Term:
        pool = self._literals.get(str(sort))
        constructors = self._constructors.get(sort, [])
        if budget <= 1:
            bases = [op for op in constructors if not op.domain]
            if bases:
                # Mix literal leaves in even when base constructors exist.
                if pool and self._random.random() < 0.3:
                    return Lit(self._random.choice(pool), sort)
                return App(self._random.choice(bases), ())
            if pool:
                return Lit(self._random.choice(pool), sort)
            raise GenerationError(f"no base case for sort {sort}")
        candidates: list[Optional[Operation]] = list(constructors)
        if pool:
            candidates.append(None)  # None stands for "emit a literal"
        if not candidates:
            raise GenerationError(f"no constructors or literals for sort {sort}")
        # Bias towards recursion while budget remains, so terms have meat.
        recursive = self._recursive.get(sort, [])
        if recursive and self._random.random() < 0.7:
            choice: Optional[Operation] = self._random.choice(recursive)
        else:
            choice = self._random.choice(candidates)
        if choice is None:
            return Lit(self._random.choice(pool), sort)  # type: ignore[arg-type]
        args = [self._term(arg_sort, budget - 1) for arg_sort in choice.domain]
        return App(choice, args)

    def observation(self, operation: Operation, depth: Optional[int] = None) -> Optional[Term]:
        """``operation`` applied to random ground arguments, or ``None``
        when some argument sort is uninhabited."""
        budget = self.max_depth if depth is None else depth
        try:
            args = [self._term(sort, budget) for sort in operation.domain]
        except GenerationError:
            return None
        return App(operation, args)

    def substitution_for(self, variables: Iterable) -> "object":
        """A ground substitution covering ``variables``.  Terms are drawn
        in variable-name order, so the result does not depend on the
        order ``variables`` come in (a set's order changes with the
        process's hash seed)."""
        from repro.algebra.substitution import Substitution

        mapping = {}
        for variable in sorted(variables, key=lambda v: (v.name, v.sort)):
            mapping[variable] = self.term(variable.sort)
        return Substitution(mapping)
