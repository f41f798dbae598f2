"""Sorts for many-sorted (heterogeneous) algebras.

Guttag's algebraic specifications are built on the heterogeneous algebras
of Birkhoff and Lipson: a family of carrier sets indexed by *sorts*
(``Queue``, ``Item``, ``Boolean``, ...) together with operations between
them.  A :class:`Sort` is a name for one carrier set.

Sorts compare by name, so two independently constructed ``Sort("Queue")``
objects denote the same carrier.  Attributes beyond the name (such as
whether the sort carries literal values) are *descriptive*: they do not
participate in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True, order=True)
class Sort:
    """A sort (carrier set name) in a many-sorted signature.

    Parameters
    ----------
    name:
        The sort's name, e.g. ``"Queue"``.  Names are case-sensitive and
        must be non-empty.
    parameters:
        For *type schemas* (Guttag: "the specification may be viewed as
        defining a type schema rather than a single type") a sort may be
        parameterised, e.g. ``Queue[Item]``.  Parameters are recorded for
        documentation and instantiation; they take part in equality so
        ``Queue[Item]`` and ``Queue[Job]`` are distinct sorts.
    """

    name: str
    parameters: tuple["Sort", ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("sort name must be non-empty")
        if not all(part.isidentifier() or part == "?" for part in self.name.split(".")):
            # Allow dotted names for qualified sorts; '?' never appears in
            # sort names but the check keeps error messages precise.
            raise ValueError(f"invalid sort name: {self.name!r}")
        # Sorts are hashed in every leaf term's intern key; the
        # dataclass-generated hash rebuilds a field tuple per call, so
        # compute it once.
        object.__setattr__(self, "_hash", hash((self.name, self.parameters)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # Rebuild rather than copy the cached hash: string hashes differ
        # between processes.
        return (Sort, (self.name, self.parameters))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Sort:
            return NotImplemented
        return (
            self.name == other.name  # type: ignore[attr-defined]
            and self.parameters == other.parameters  # type: ignore[attr-defined]
        )

    def __str__(self) -> str:
        if self.parameters:
            inner = ", ".join(str(p) for p in self.parameters)
            return f"{self.name}[{inner}]"
        return self.name

    def instantiate(self, binding: dict["Sort", "Sort"]) -> "Sort":
        """Replace parameter sorts according to ``binding``.

        Used when instantiating a type schema, e.g. mapping the formal
        ``Item`` to an actual ``Integer``.
        """
        if self in binding:
            return binding[self]
        if not self.parameters:
            return self
        return Sort(self.name, tuple(p.instantiate(binding) for p in self.parameters))


#: The sort of truth values.  Guttag's specifications use ``Boolean``
#: results for the ``IS_...?`` observers; it is predefined because the
#: ``if-then-else`` construct in axiom right-hand sides requires it.
BOOLEAN = Sort("Boolean")

#: The sort of natural numbers, used by bounded types (e.g. the bounded
#: queue's capacity) and by ``HASH`` in the Array implementation.
NAT = Sort("Nat")


class SortError(Exception):
    """Raised when a term or operation is not well-sorted."""


def check_known(sort: Sort, known: Iterable[Sort], context: str) -> None:
    """Raise :class:`SortError` unless ``sort`` is among ``known``.

    ``context`` names the construct being checked, for error messages.
    """
    known_set = set(known)
    if sort not in known_set:
        names = ", ".join(sorted(str(s) for s in known_set)) or "<none>"
        raise SortError(f"{context}: unknown sort {sort} (known sorts: {names})")
