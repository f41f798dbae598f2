"""Generated Python façades over symbolic interpretation.

The paper's transparency claim — "the lack of an implementation can be
made completely transparent to the user" — realised literally: given a
specification, :func:`facade_class` manufactures a Python class whose
methods are the type's operations.  Code written against the façade is
indistinguishable from code written against a hand implementation; only
the speed differs (benchmark E7).

Method naming: operation names are mapped to snake_case Python
identifiers (``IS_EMPTY?`` → ``is_empty``); nullary operations and
operations without a type-of-interest first argument become class
methods (``new``); the rest become instance methods whose receiver
supplies the first type-of-interest argument.
"""

from __future__ import annotations

import keyword
import re
from typing import Optional, Type

from repro.spec.specification import Specification
from repro.interp.symbolic import SymbolicInterpreter, SymbolicValue
from repro.runtime.budget import EvaluationBudget


def python_name(operation_name: str) -> str:
    """``IS_EMPTY?`` → ``is_empty``; ``ADD`` → ``add``."""
    name = operation_name.rstrip("?").rstrip("'")
    name = re.sub(r"[^0-9A-Za-z_]", "_", name).lower()
    name = re.sub(r"__+", "_", name).strip("_")
    if not name or name[0].isdigit():
        name = f"op_{name}"
    if keyword.iskeyword(name):
        name += "_"
    return name


class FacadeValue:
    """One value of the generated type, wrapping a symbolic value."""

    def __init__(self, symbolic: SymbolicValue) -> None:
        self._symbolic = symbolic

    @property
    def term(self):
        return self._symbolic.term

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FacadeValue):
            return self._symbolic == other._symbolic
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._symbolic)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._symbolic.term})"


def _make_constructor_method(interpreter, operation, cls):
    def method(*args):
        unwrapped = [
            a._symbolic if isinstance(a, FacadeValue) else a for a in args
        ]
        return _wrap(interpreter, cls, interpreter.apply(operation.name, *unwrapped))

    method.__name__ = python_name(operation.name)
    method.__doc__ = f"Apply ``{operation}`` (specification-interpreted)."
    return staticmethod(method)


def _make_instance_method(interpreter, operation, cls):
    def method(self, *args):
        unwrapped = [
            a._symbolic if isinstance(a, FacadeValue) else a for a in args
        ]
        return _wrap(
            interpreter,
            cls,
            interpreter.apply(operation.name, self._symbolic, *unwrapped),
        )

    method.__name__ = python_name(operation.name)
    method.__doc__ = f"Apply ``{operation}`` (specification-interpreted)."
    return method


def _wrap(interpreter, cls, value: SymbolicValue):
    """Results of the type of interest stay façade values; observations
    convert to Python.  The algebra's ``error`` surfaces as the same
    :class:`~repro.spec.errors.AlgebraError` a concrete implementation
    raises, keeping façades drop-in substitutable."""
    if value.is_error:
        from repro.spec.errors import AlgebraError

        raise AlgebraError(f"error value of sort {value.sort}")
    if value.sort == interpreter.spec.type_of_interest:
        return cls(value)
    return interpreter.to_python(value)


def facade_class(
    spec: Specification,
    name: Optional[str] = None,
    backend: str = "interpreted",
    budget: Optional[EvaluationBudget] = None,
) -> Type[FacadeValue]:
    """Build a Python class executing ``spec`` symbolically.

    ``backend="codegen"`` routes every method through the generated
    rule modules — behaviourally identical, measurably faster
    (benchmark E7).  ``budget``
    bounds every evaluation the façade performs (fuel, wall-clock
    deadline, memory caps).  Every evaluation runs in-process.

    >>> Queue = facade_class(QUEUE_SPEC)
    >>> q = Queue.new().add('a').add('b')
    >>> q.front()
    'a'
    """
    interpreter = SymbolicInterpreter(spec, backend=backend, budget=budget)
    toi = spec.type_of_interest
    cls = type(
        name or spec.name,
        (FacadeValue,),
        {
            "__doc__": f"Symbolic façade over the {spec.name} specification.",
            "_interpreter": interpreter,
            "_spec": spec,
        },
    )
    for operation in spec.own_operations():
        method_name = python_name(operation.name)
        takes_receiver = bool(operation.domain) and operation.domain[0] == toi
        if takes_receiver:
            setattr(cls, method_name, _make_instance_method(interpreter, operation, cls))
        else:
            setattr(cls, method_name, _make_constructor_method(interpreter, operation, cls))
    return cls
