"""Spec-based testing: ground-term enumeration and the axiom oracle.

The hypothesis strategies live in :mod:`repro.testing.strategies`; they
are not re-exported here, so importing the package needs no test-only
dependency."""

from repro.testing.termgen import (
    DEFAULT_POOLS,
    GenerationError,
    GroundTermEnumerator,
)
from repro.testing.oracle import (
    BindingError,
    ERROR,
    ImplementationBinding,
    OracleFailure,
    OracleReport,
    check_axioms,
)
from repro.testing.bindings import (
    ALL_BINDINGS,
    array_binding,
    bag_binding,
    bounded_queue_binding,
    knowlist_binding,
    list_binding,
    map_binding,
    queue_binding,
    set_binding,
    stack_binding,
    symboltable_binding,
)

__all__ = [
    "DEFAULT_POOLS",
    "GenerationError",
    "GroundTermEnumerator",
    "BindingError",
    "ERROR",
    "ImplementationBinding",
    "OracleFailure",
    "OracleReport",
    "check_axioms",
    "ALL_BINDINGS",
    "array_binding",
    "bag_binding",
    "bounded_queue_binding",
    "knowlist_binding",
    "list_binding",
    "map_binding",
    "queue_binding",
    "set_binding",
    "stack_binding",
    "symboltable_binding",
]
