"""Unit tests for the axiom oracle — including bug detection."""

import pytest

from repro.spec.errors import AlgebraError
from repro.testing.bindings import queue_binding
from repro.testing.oracle import (
    ERROR,
    BindingError,
    ImplementationBinding,
    check_axioms,
)
from repro.adt.queue import ListQueue, QUEUE_SPEC, queue_term


class TestEvaluate:
    def test_constructor_terms(self):
        binding = queue_binding()
        value = binding.evaluate(queue_term(["a", "b"]), {})
        assert isinstance(value, ListQueue)
        assert list(value) == ["a", "b"]

    def test_observers(self):
        from repro.algebra.terms import app
        from repro.adt.queue import FRONT

        binding = queue_binding()
        assert binding.evaluate(app(FRONT, queue_term(["x"])), {}) == "x"

    def test_error_sentinel(self):
        from repro.algebra.terms import app
        from repro.adt.queue import FRONT

        binding = queue_binding()
        assert binding.evaluate(app(FRONT, queue_term([])), {}) is ERROR

    def test_error_strict_through_operations(self):
        from repro.algebra.terms import app
        from repro.adt.queue import ADD, REMOVE
        from repro.spec.prelude import item

        binding = queue_binding()
        poisoned = app(ADD, app(REMOVE, queue_term([])), item("x"))
        assert binding.evaluate(poisoned, {}) is ERROR

    def test_ite_lazy_in_branches(self):
        from repro.algebra.terms import app, ite
        from repro.adt.queue import FRONT, IS_EMPTY
        from repro.spec.prelude import item

        binding = queue_binding()
        # if IS_EMPTY?(NEW) then 'ok' else FRONT(NEW): the error branch
        # is never evaluated.
        term = ite(
            app(IS_EMPTY, queue_term([])),
            item("ok"),
            app(FRONT, queue_term([])),
        )
        assert binding.evaluate(term, {}) == "ok"

    def test_unbound_variable_raises(self):
        from repro.algebra.terms import var

        binding = queue_binding()
        q = var("q", QUEUE_SPEC.type_of_interest)
        with pytest.raises(BindingError, match="unbound"):
            binding.evaluate(q, {})

    def test_environment_lookup(self):
        from repro.algebra.terms import app, var
        from repro.adt.queue import IS_EMPTY

        binding = queue_binding()
        q = var("q", QUEUE_SPEC.type_of_interest)
        value = binding.evaluate(app(IS_EMPTY, q), {q: ListQueue(["x"])})
        assert value is False

    def test_missing_implementation_raises(self):
        binding = ImplementationBinding(QUEUE_SPEC, {})
        with pytest.raises(BindingError, match="no implementation"):
            binding.evaluate(queue_term(["a"]), {})

    def test_prelude_boolean_operations(self):
        from repro.algebra.terms import app
        from repro.spec.prelude import AND, NOT, true_term

        binding = queue_binding()
        assert binding.evaluate(app(NOT, true_term()), {}) is False
        assert binding.evaluate(app(AND, true_term(), true_term()), {}) is True


class TestCheckAxioms:
    def test_correct_implementation_passes(self):
        report = check_axioms(queue_binding(), instances_per_axiom=15)
        assert report.ok

    def test_lifo_bug_detected(self):
        """A stack passed off as a queue violates axiom 4."""

        class Lifo(ListQueue):
            def front(self):
                if not self._items:
                    raise AlgebraError("front")
                return self._items[-1]  # newest, not oldest: a bug

        binding = ImplementationBinding(
            QUEUE_SPEC,
            {
                "NEW": Lifo,
                "ADD": lambda q, i: Lifo(list(q) + [i]),
                "FRONT": lambda q: q.front(),
                "REMOVE": lambda q: Lifo(list(q)[1:])
                if len(q)
                else (_ for _ in ()).throw(AlgebraError("remove")),
                "IS_EMPTY?": lambda q: q.is_empty(),
            },
        )
        report = check_axioms(binding, instances_per_axiom=25)
        assert not report.ok
        assert any("FRONT" in str(f.axiom) for f in report.failures)
        # The smallest failure: a one-item queue and a different item.
        first = report.failures[0]
        values = {v.name: t for v, t in first.substitution.items()}
        assert str(values["q"]) == "ADD(NEW, 'a')"
        assert values["i"].value != "a"

    def test_missing_error_case_detected(self):
        """Returning a default instead of erroring violates axiom 3."""
        binding = ImplementationBinding(
            QUEUE_SPEC,
            {
                "NEW": ListQueue.new,
                "ADD": lambda q, i: q.add(i),
                "FRONT": lambda q: "default" if q.is_empty() else q.front(),
                "REMOVE": lambda q: q.remove(),
                "IS_EMPTY?": lambda q: q.is_empty(),
            },
        )
        report = check_axioms(binding, instances_per_axiom=25)
        assert not report.ok

    def test_report_counts_instances(self):
        # The three ground axioms have one instance each.
        report = check_axioms(queue_binding(), instances_per_axiom=10)
        assert report.instances_checked == 3 + 3 * 10
        assert report.complete_to == 7
        assert "holds for all 33 instances, complete to size 7" in str(report)

    def test_report_str(self):
        report = check_axioms(queue_binding(), instances_per_axiom=5)
        assert "PASS" in str(report)
