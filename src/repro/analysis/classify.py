"""Classification of a specification's operations.

Guttag's analyses are all relative to the *type of interest* (TOI).  The
operations of a specification split into:

* **constructors** — operations whose range is the TOI and that are
  *free*: no axiom rewrites them away (they never head a left-hand
  side).  Every value of the type is denoted by some composition of
  constructors (``NEW``/``ADD`` for Queue; ``INIT``/``ENTERBLOCK``/
  ``ADD`` for Symboltable).
* **extensions** — operations whose range is the TOI but that *are*
  defined by axioms (``REMOVE``, ``LEAVEBLOCK``): they denote values
  already expressible with constructors.
* **observers** — operations whose range is another sort (``FRONT``,
  ``IS_EMPTY?``, ``RETRIEVE``): they are how programs look inside
  values, and sufficient completeness is about them having defined
  results.

The paper's heuristic — axioms take the form
``op(constructor(...), ...) = ...`` for every non-constructor ``op`` and
every constructor — falls directly out of this classification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.signature import Operation
from repro.algebra.sorts import Sort
from repro.spec.specification import Specification


@dataclass(frozen=True)
class Classification:
    """The operations of one specification level, partitioned."""

    type_of_interest: Sort
    constructors: tuple[Operation, ...]
    extensions: tuple[Operation, ...]
    observers: tuple[Operation, ...]

    @property
    def defined_operations(self) -> tuple[Operation, ...]:
        """Extensions and observers: everything axioms must cover."""
        return self.extensions + self.observers

    def recursive_argument_positions(self, operation: Operation) -> tuple[int, ...]:
        """Indices of ``operation``'s arguments of the type of interest.

        These are the positions the case analysis splits on: an axiom
        set must say what ``op`` does for each constructor form of each
        TOI argument.
        """
        return tuple(
            index
            for index, sort in enumerate(operation.domain)
            if sort == self.type_of_interest
        )

    def __str__(self) -> str:
        def names(ops: tuple[Operation, ...]) -> str:
            return ", ".join(op.name for op in ops) or "<none>"

        return (
            f"type of interest: {self.type_of_interest}\n"
            f"constructors: {names(self.constructors)}\n"
            f"extensions:   {names(self.extensions)}\n"
            f"observers:    {names(self.observers)}"
        )


def classify(spec: Specification) -> Classification:
    """Partition the operations declared at ``spec``'s own level.

    An operation is a constructor when its range is the type of interest
    and no axiom (at this level) heads with it.  Inherited operations
    (from used specifications) are not classified: they belong to their
    own level's classification.
    """
    toi = spec.type_of_interest
    heads = {axiom.head.name for axiom in spec.axioms}
    constructors: list[Operation] = []
    extensions: list[Operation] = []
    observers: list[Operation] = []
    for operation in spec.own_operations():
        if operation.range == toi:
            if operation.name in heads:
                extensions.append(operation)
            else:
                constructors.append(operation)
        else:
            observers.append(operation)
    return Classification(
        toi, tuple(constructors), tuple(extensions), tuple(observers)
    )
