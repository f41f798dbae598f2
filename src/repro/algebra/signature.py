"""Operations and signatures for many-sorted algebras.

The *syntactic specification* of an abstract type (Guttag, section 2)
"provides the syntactic information that many programming languages
already require: the names, domains, and ranges of the operations
associated with the type".  A :class:`Signature` is exactly that: a set
of sorts and a set of :class:`Operation` symbols with their arities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.algebra.sorts import Sort, SortError

#: Optional Python-level evaluator attached to an operation.  The rewrite
#: engine calls it when every argument is a literal; it must return a
#: Python value of the operation's range sort (or raise
#: :class:`~repro.spec.errors.AlgebraError` to denote the distinguished
#: ``error`` result).  Used for "imported" operations such as ``ISSAME?``
#: on Identifiers and ``HASH``.
BuiltinFn = Callable[..., object]


@dataclass(frozen=True)
class Operation:
    """An operation symbol ``name: domain -> range``.

    Examples from the paper::

        NEW:        -> Queue          Operation("NEW", (), QUEUE)
        ADD:  Queue x Item -> Queue   Operation("ADD", (QUEUE, ITEM), QUEUE)
        FRONT:     Queue -> Item      Operation("FRONT", (QUEUE,), ITEM)

    ``builtin`` attaches a Python evaluator for operations whose meaning
    is imported from outside the algebra (identifier equality, hashing).
    It is excluded from equality/hash so that structurally identical
    declarations compare equal.
    """

    name: str
    domain: tuple[Sort, ...]
    range: Sort
    builtin: Optional[BuiltinFn] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operation name must be non-empty")
        # Operations are hashed on every term-interning probe; the
        # dataclass-generated hash rebuilds a field tuple per call, so
        # compute it once.  (``builtin`` is excluded, matching equality.)
        object.__setattr__(
            self, "_hash", hash((self.name, self.domain, self.range))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # Rebuild rather than copy the cached hash: string hashes differ
        # between processes.
        return (Operation, (self.name, self.domain, self.range, self.builtin))

    @property
    def arity(self) -> int:
        return len(self.domain)

    @property
    def is_constant(self) -> bool:
        """True for nullary operations such as ``NEW`` or ``EMPTY``."""
        return not self.domain

    def __str__(self) -> str:
        if self.domain:
            dom = " x ".join(str(s) for s in self.domain)
            return f"{self.name}: {dom} -> {self.range}"
        return f"{self.name}: -> {self.range}"

    def instantiate(self, binding: Mapping[Sort, Sort]) -> "Operation":
        """Instantiate parameter sorts (for type schemas)."""
        bind = dict(binding)
        return Operation(
            self.name,
            tuple(s.instantiate(bind) for s in self.domain),
            self.range.instantiate(bind),
            self.builtin,
        )


class SignatureError(Exception):
    """Raised on malformed signatures (duplicate or unknown symbols)."""


class Signature:
    """A many-sorted signature: sorts plus operation symbols.

    The signature is the "syntactic specification" half of an algebraic
    type definition.  Operation names are unique within a signature (the
    paper never overloads names and unique names keep the text DSL and
    error messages unambiguous).
    """

    def __init__(
        self,
        sorts: Iterable[Sort] = (),
        operations: Iterable[Operation] = (),
    ) -> None:
        self._sorts: dict[str, Sort] = {}
        self._operations: dict[str, Operation] = {}
        for sort in sorts:
            self.add_sort(sort)
        for operation in operations:
            self.add_operation(operation)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_sort(self, sort: Sort) -> Sort:
        """Add ``sort`` to the signature (idempotent)."""
        existing = self._sorts.get(str(sort))
        if existing is not None and existing != sort:
            raise SignatureError(f"conflicting declarations for sort {sort}")
        self._sorts[str(sort)] = sort
        return sort

    def add_operation(self, operation: Operation) -> Operation:
        """Add ``operation``; its sorts must already be declared."""
        if operation.name in self._operations:
            existing = self._operations[operation.name]
            if existing == operation:
                return existing
            raise SignatureError(
                f"operation {operation.name!r} declared twice with different "
                f"profiles: {existing} vs {operation}"
            )
        for sort in (*operation.domain, operation.range):
            if str(sort) not in self._sorts:
                raise SignatureError(
                    f"operation {operation} uses undeclared sort {sort}"
                )
        self._operations[operation.name] = operation
        return operation

    def merged(self, other: "Signature") -> "Signature":
        """A new signature containing this one plus ``other``.

        Shared names must agree exactly.  Merging is how specification
        *levels* combine (e.g. Symboltable's signature merged with the
        Stack and Array signatures it is represented with).
        """
        result = Signature(self.sorts, self.operations)
        for sort in other.sorts:
            result.add_sort(sort)
        for operation in other.operations:
            result.add_operation(operation)
        return result

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def sorts(self) -> tuple[Sort, ...]:
        return tuple(self._sorts.values())

    @property
    def operations(self) -> tuple[Operation, ...]:
        return tuple(self._operations.values())

    def sort(self, name: str) -> Sort:
        try:
            return self._sorts[name]
        except KeyError:
            raise SortError(f"unknown sort {name!r}") from None

    def has_sort(self, name: str) -> bool:
        return name in self._sorts

    def operation(self, name: str) -> Operation:
        try:
            return self._operations[name]
        except KeyError:
            raise SignatureError(f"unknown operation {name!r}") from None

    def has_operation(self, name: str) -> bool:
        return name in self._operations

    def operations_with_range(self, sort: Sort) -> tuple[Operation, ...]:
        """All operations whose range is ``sort``.

        These are the candidates for generating values of ``sort``; the
        sufficient-completeness analysis narrows them down to the actual
        constructor set.
        """
        return tuple(op for op in self._operations.values() if op.range == sort)

    def operations_using(self, sort: Sort) -> tuple[Operation, ...]:
        """All operations mentioning ``sort`` in domain or range."""
        return tuple(
            op
            for op in self._operations.values()
            if op.range == sort or sort in op.domain
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._operations

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations.values())

    def __len__(self) -> int:
        return len(self._operations)

    def __str__(self) -> str:
        lines = [f"sorts: {', '.join(sorted(self._sorts))}"]
        lines.extend(str(op) for op in self._operations.values())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Signature(sorts={len(self._sorts)}, "
            f"operations={len(self._operations)})"
        )


def make_signature(
    sort_names: Sequence[str],
    profiles: Mapping[str, tuple[Sequence[str], str]],
) -> Signature:
    """Build a signature from plain strings.

    ``profiles`` maps an operation name to ``(domain_sort_names,
    range_sort_name)``.  Convenience used heavily by tests::

        sig = make_signature(
            ["Queue", "Item", "Boolean"],
            {"NEW": ([], "Queue"), "ADD": (["Queue", "Item"], "Queue")},
        )
    """
    sig = Signature()
    for name in sort_names:
        sig.add_sort(Sort(name))
    for op_name, (domain, range_name) in profiles.items():
        sig.add_operation(
            Operation(
                op_name,
                tuple(sig.sort(d) for d in domain),
                sig.sort(range_name),
            )
        )
    return sig
