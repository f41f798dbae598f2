"""Unit tests for the symbolic interpreter."""

import pytest

from repro.algebra.terms import App, Err, Lit
from repro.spec.errors import AlgebraError
from repro.interp.symbolic import (
    SymbolicInterpreter,
    SymbolicTypeError,
    SymbolicValue,
)
from repro.adt.queue import QUEUE_SPEC, queue_term


@pytest.fixture()
def interp():
    return SymbolicInterpreter(QUEUE_SPEC)


class TestApply:
    def test_constant(self, interp):
        value = interp.apply("NEW")
        assert str(value.term) == "NEW"

    def test_chained_operations(self, interp):
        queue = interp.apply("ADD", interp.apply("NEW"), "a")
        front = interp.apply("FRONT", queue)
        assert front.term == Lit("a", front.sort)

    def test_python_values_coerced_to_literals(self, interp):
        queue = interp.apply("ADD", interp.apply("NEW"), 42)
        assert interp.to_python(interp.apply("FRONT", queue)) == 42

    def test_raw_terms_accepted(self, interp):
        front = interp.apply("FRONT", queue_term(["x", "y"]))
        assert interp.to_python(front) == "x"

    def test_arity_checked(self, interp):
        with pytest.raises(SymbolicTypeError, match="expect"):
            interp.apply("ADD", interp.apply("NEW"))

    def test_sort_checked(self, interp):
        new = interp.apply("NEW")
        with pytest.raises(SymbolicTypeError, match="sort"):
            interp.apply("FRONT", interp.apply("IS_EMPTY?", new))

    def test_unknown_operation(self, interp):
        from repro.algebra.signature import SignatureError

        with pytest.raises(SignatureError):
            interp.apply("ZAP")

    def test_results_are_normal_forms(self, interp):
        removed = interp.apply("REMOVE", queue_term(["a", "b"]))
        assert removed.term == queue_term(["b"])


class TestErrors:
    def test_error_result(self, interp):
        front = interp.apply("FRONT", interp.apply("NEW"))
        assert front.is_error

    def test_error_propagates_through_operations(self, interp):
        bad = interp.apply("REMOVE", interp.apply("NEW"))
        worse = interp.apply("ADD", bad, "x")
        assert worse.is_error

    def test_to_python_raises_on_error(self, interp):
        front = interp.apply("FRONT", interp.apply("NEW"))
        with pytest.raises(AlgebraError):
            interp.to_python(front)


class TestConversions:
    def test_booleans(self, interp):
        empty = interp.apply("IS_EMPTY?", interp.apply("NEW"))
        assert interp.to_python(empty) is True
        nonempty = interp.apply(
            "IS_EMPTY?", interp.apply("ADD", interp.apply("NEW"), "a")
        )
        assert interp.to_python(nonempty) is False

    def test_boolean_arguments_coerced(self, interp):
        # bool -> true/false term; check via a Boolean-typed op.
        value = interp._coerce(True, interp.spec.sort("Boolean"))
        assert str(value) == "true"

    def test_literals(self, interp):
        front = interp.apply("FRONT", queue_term(["payload"]))
        assert interp.to_python(front) == "payload"

    def test_toi_values_returned_as_terms(self, interp):
        queue = interp.apply("ADD", interp.apply("NEW"), "a")
        assert isinstance(interp.to_python(queue), App)

    def test_nat_conversion(self):
        from repro.adt.extras import LIST_SPEC, list_term
        from repro.algebra.terms import app

        interp = SymbolicInterpreter(LIST_SPEC)
        length = interp.apply("LENGTH", list_term([1, 2, 3]))
        assert interp.to_python(length) == 3


class TestEquality:
    def test_equal_normal_forms(self, interp):
        left = interp.apply("REMOVE", queue_term(["a", "b"]))
        right = interp.apply("ADD", interp.apply("NEW"), "b")
        assert left == right
        assert hash(left) == hash(right)

    def test_unequal_values(self, interp):
        assert interp.apply("ADD", interp.apply("NEW"), "a") != interp.apply(
            "ADD", interp.apply("NEW"), "b"
        )

    def test_repr(self, interp):
        assert "Queue" in repr(interp.apply("NEW"))


class TestBatchAndBackends:
    def test_compiled_backend_agrees(self):
        fast = SymbolicInterpreter(QUEUE_SPEC, backend="codegen")
        slow = SymbolicInterpreter(QUEUE_SPEC)
        queue = queue_term(["x", "y"])
        assert fast.apply("FRONT", queue) == slow.apply("FRONT", queue)
        assert fast.engine.backend == "codegen"
