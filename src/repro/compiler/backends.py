"""Symbol-table backends for semantic analysis.

The whole point of the paper's exercise: the compiler is written against
the *abstract* symbol-table operations, so any model of the axioms can
sit behind it.  Three interchangeable backends (plus knows-dialect
variants) demonstrate it:

* :class:`ConcreteBackend` — the stack-of-hash-arrays implementation;
* :class:`SpecBackend` — the algebraic specification itself, run by the
  rewrite engine ("in the absence of an implementation ... interpreted
  symbolically");
* :class:`NativeBackend` — a hand-rolled list-of-dicts table, the
  conventional baseline for benchmark E9.

Every backend is persistent and exposes the abstract operations; scope
errors surface as :class:`~repro.spec.errors.AlgebraError`.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

from repro.spec.errors import AlgebraError
from repro.adt.knowlist import KnowsSymbolTable, TupleKnowlist
from repro.adt.symboltable import SYMBOLTABLE_SPEC, SymbolTable


class SymbolTableBackend(Protocol):
    """What semantic analysis requires of a symbol table."""

    def enterblock(self) -> "SymbolTableBackend": ...

    def leaveblock(self) -> "SymbolTableBackend": ...

    def add(self, name: str, attrs: object) -> "SymbolTableBackend": ...

    def is_inblock(self, name: str) -> bool: ...

    def retrieve(self, name: str) -> object: ...


class ConcreteBackend:
    """The paper's representation: :class:`~repro.adt.symboltable.SymbolTable`."""

    def __init__(self, table: Optional[SymbolTable] = None) -> None:
        self._table = table if table is not None else SymbolTable.init()

    def enterblock(self) -> "ConcreteBackend":
        return ConcreteBackend(self._table.enterblock())

    def leaveblock(self) -> "ConcreteBackend":
        return ConcreteBackend(self._table.leaveblock())

    def add(self, name: str, attrs: object) -> "ConcreteBackend":
        return ConcreteBackend(self._table.add(name, attrs))

    def is_inblock(self, name: str) -> bool:
        return self._table.is_inblock(name)

    def retrieve(self, name: str) -> object:
        return self._table.retrieve(name)


class SpecBackend:
    """The specification as the implementation, via the symbolic façade.

    ``backend`` selects the rewrite engine's evaluation path
    (``"interpreted"`` or ``"codegen"``); one façade class is built and
    shared per path, so the E9 benchmark can compare them directly.
    """

    _facade_classes: dict = {}

    def __init__(
        self,
        value: Optional[object] = None,
        backend: str = "interpreted",
    ) -> None:
        cls = type(self)._ensure_facade(backend)
        self._backend = backend
        self._value = value if value is not None else cls.init()

    @classmethod
    def _ensure_facade(cls, backend: str = "interpreted"):
        facade = SpecBackend._facade_classes.get(backend)
        if facade is None:
            from repro.interp.facade import facade_class

            facade = facade_class(SYMBOLTABLE_SPEC, backend=backend)
            SpecBackend._facade_classes[backend] = facade
        return facade

    def enterblock(self) -> "SpecBackend":
        return SpecBackend(self._value.enterblock(), self._backend)

    def leaveblock(self) -> "SpecBackend":
        result = self._value.leaveblock()
        if _is_error(result):
            raise AlgebraError("LEAVEBLOCK on the global scope")
        return SpecBackend(result, self._backend)

    def add(self, name: str, attrs: object) -> "SpecBackend":
        return SpecBackend(self._value.add(name, attrs), self._backend)

    def is_inblock(self, name: str) -> bool:
        result = self._value.is_inblock(name)
        if not isinstance(result, bool):
            raise AlgebraError("IS_INBLOCK? did not reduce to a Boolean")
        return result

    def retrieve(self, name: str) -> object:
        return self._value.retrieve(name)


def _is_error(value: object) -> bool:
    from repro.algebra.terms import Err

    term = getattr(value, "term", None)
    return isinstance(term, Err)


class NativeBackend:
    """A conventional hand-written table: a tuple of dict scopes."""

    def __init__(self, scopes: tuple[dict, ...] = ({},)) -> None:
        self._scopes = scopes

    def enterblock(self) -> "NativeBackend":
        return NativeBackend(self._scopes + ({},))

    def leaveblock(self) -> "NativeBackend":
        if len(self._scopes) <= 1:
            raise AlgebraError("LEAVEBLOCK would discard the global scope")
        return NativeBackend(self._scopes[:-1])

    def add(self, name: str, attrs: object) -> "NativeBackend":
        scopes = self._scopes[:-1] + (dict(self._scopes[-1], **{name: attrs}),)
        return NativeBackend(scopes)

    def is_inblock(self, name: str) -> bool:
        return name in self._scopes[-1]

    def retrieve(self, name: str) -> object:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        raise AlgebraError(f"RETRIEVE: {name!r} not declared in any scope")


class KnowsSpecBackend:
    """Knows-dialect backend running the modified specification
    symbolically — the adaptability exercise end to end: change the
    axioms, recompile nothing, the front end follows."""

    _facade_class = None

    def __init__(self, value: Optional[object] = None) -> None:
        cls = type(self)._ensure_facade()
        self._value = value if value is not None else cls.init()

    @classmethod
    def _ensure_facade(cls):
        if KnowsSpecBackend._facade_class is None:
            from repro.adt.knowlist import SYMBOLTABLE_KNOWS_SPEC
            from repro.interp.facade import facade_class

            KnowsSpecBackend._facade_class = facade_class(
                SYMBOLTABLE_KNOWS_SPEC
            )
        return KnowsSpecBackend._facade_class

    def enterblock(self, knows: Sequence[str] = ()) -> "KnowsSpecBackend":
        from repro.adt.knowlist import knowlist_term
        from repro.interp.symbolic import SymbolicValue

        facade = type(self)._ensure_facade()
        interpreter = facade._interpreter
        klist = SymbolicValue(
            interpreter, interpreter.engine.normalize(knowlist_term(knows))
        )
        return KnowsSpecBackend(self._value.enterblock(klist))

    def leaveblock(self) -> "KnowsSpecBackend":
        result = self._value.leaveblock()
        if _is_error(result):
            raise AlgebraError("LEAVEBLOCK on the global scope")
        return KnowsSpecBackend(result)

    def add(self, name: str, attrs: object) -> "KnowsSpecBackend":
        return KnowsSpecBackend(self._value.add(name, attrs))

    def is_inblock(self, name: str) -> bool:
        result = self._value.is_inblock(name)
        if not isinstance(result, bool):
            raise AlgebraError("IS_INBLOCK? did not reduce to a Boolean")
        return result

    def retrieve(self, name: str) -> object:
        return self._value.retrieve(name)


class KnowsConcreteBackend:
    """Knows-dialect backend over :class:`KnowsSymbolTable`."""

    def __init__(self, table: Optional[KnowsSymbolTable] = None) -> None:
        self._table = table if table is not None else KnowsSymbolTable.init()

    def enterblock(
        self, knows: Sequence[str] = ()
    ) -> "KnowsConcreteBackend":
        return KnowsConcreteBackend(
            self._table.enterblock(TupleKnowlist(knows))
        )

    def leaveblock(self) -> "KnowsConcreteBackend":
        return KnowsConcreteBackend(self._table.leaveblock())

    def add(self, name: str, attrs: object) -> "KnowsConcreteBackend":
        return KnowsConcreteBackend(self._table.add(name, attrs))

    def is_inblock(self, name: str) -> bool:
        return self._table.is_inblock(name)

    def retrieve(self, name: str) -> object:
        return self._table.retrieve(name)
