"""Symbolic interpretation of specifications.

Section 5: "In the absence of an implementation, the operations of the
algebra may be interpreted symbolically.  Thus, except for a significant
loss in efficiency, the lack of an implementation can be made completely
transparent to the user."

A :class:`SymbolicValue` wraps a term of the specification's algebra;
applying an operation builds the application term and normalises it with
the rewrite engine.  The result behaves like a value of the type — it
can be observed, compared, passed back into operations — with the axioms
doing the computing.  Benchmark E7 measures the promised efficiency gap
against the concrete implementations.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.algebra.sorts import NAT, Sort
from repro.algebra.terms import App, Err, Lit, Term
from repro.spec.errors import AlgebraError
from repro.spec.prelude import is_false, is_true
from repro.spec.specification import Specification
from repro.rewriting.engine import RewriteEngine
from repro.obs import trace as _trace
from repro.runtime import faults as _faults
from repro.runtime.budget import EvaluationBudget


class SymbolicTypeError(TypeError):
    """Raised when an operation is applied to ill-sorted arguments."""


class SymbolicValue:
    """A value of an abstract type, computed by the axioms.

    Values are in normal form; equality is normal-form equality, which
    for a sufficiently complete, consistent specification coincides with
    equality in the initial algebra.
    """

    __slots__ = ("interpreter", "term")

    def __init__(self, interpreter: "SymbolicInterpreter", term: Term) -> None:
        self.interpreter = interpreter
        self.term = term

    @property
    def sort(self) -> Sort:
        return self.term.sort

    @property
    def is_error(self) -> bool:
        return isinstance(self.term, Err)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicValue):
            return NotImplemented
        # Terms are hash-consed: equal values are the same object.
        return self.term is other.term

    def __hash__(self) -> int:
        return hash(self.term)

    def __repr__(self) -> str:
        return f"<{self.sort} {self.term}>"


#: Arguments acceptable to :meth:`SymbolicInterpreter.apply`: symbolic
#: values, raw terms, or plain Python values (coerced to literals).
Applicable = Union[SymbolicValue, Term, object]


class SymbolicInterpreter:
    """Executes a specification's operations by rewriting.

    ``backend`` selects the evaluation path: ``"interpreted"`` (the
    default) or ``"codegen"`` (generated rule modules — see
    :mod:`repro.rewriting.codegen`).  Both compute the same normal
    forms.  ``budget`` bounds every evaluation (see
    :class:`~repro.runtime.EvaluationBudget`).
    """

    def __init__(
        self,
        spec: Specification,
        *,
        backend: str = "interpreted",
        budget: Optional[EvaluationBudget] = None,
    ) -> None:
        self.spec = spec
        self.engine = RewriteEngine.for_specification(
            spec, backend=backend, budget=budget
        )

    # ------------------------------------------------------------------
    def apply(self, operation_name: str, *args: Applicable) -> SymbolicValue:
        """Apply an operation to arguments and normalise the result."""
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.visit("symbolic.apply", operation_name)
        operation = self.spec.operation(operation_name)
        if len(args) != operation.arity:
            raise SymbolicTypeError(
                f"{operation.name} expects {operation.arity} argument(s), "
                f"got {len(args)}"
            )
        terms = [
            self._coerce(argument, sort)
            for argument, sort in zip(args, operation.domain)
        ]
        term = App(operation, terms)
        tracer = _trace.ACTIVE
        if tracer is None:
            return SymbolicValue(self, self.engine.normalize(term))
        with tracer.span("symbolic.apply", op=operation.name):
            return SymbolicValue(self, self.engine.normalize(term))

    def _coerce(self, argument: Applicable, sort: Sort) -> Term:
        if isinstance(argument, SymbolicValue):
            term = argument.term
        elif isinstance(argument, Term):
            term = argument
        elif isinstance(argument, bool):
            from repro.spec.prelude import boolean_term

            term = boolean_term(argument)
        else:
            term = Lit(argument, sort)
        if term.sort != sort:
            raise SymbolicTypeError(
                f"argument {term} has sort {term.sort}, expected {sort}"
            )
        return term

    # ------------------------------------------------------------------
    # Conversions back to Python
    # ------------------------------------------------------------------
    def to_python(self, value: SymbolicValue) -> object:
        """The Python reading of a normal form, when it has one.

        Booleans and literals convert; errors raise
        :class:`~repro.spec.errors.AlgebraError`; constructor terms of
        the type of interest are returned as-is (they *are* the value).
        """
        term = value.term
        if isinstance(term, Err):
            raise AlgebraError(f"symbolic error value of sort {term.sort}")
        if is_true(term):
            return True
        if is_false(term):
            return False
        if isinstance(term, Lit):
            return term.value
        if term.sort == NAT:
            return self._nat_to_int(term)
        return term

    def _nat_to_int(self, term: Term) -> object:
        count = 0
        node = term
        while isinstance(node, App) and node.op.name == "succ":
            count += 1
            node = node.args[0]
        if isinstance(node, App) and node.op.name == "zero":
            return count
        if isinstance(node, Lit):
            return count + int(node.value)  # type: ignore[call-overload]
        return term
