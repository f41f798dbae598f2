"""Unit tests for the hypothesis strategies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.sorts import Sort
from repro.testing.strategies import (
    constructor_table,
    substitution_strategy,
    term_strategy,
    value_strategy,
)
from repro.testing.bindings import queue_binding
from repro.adt.queue import ListQueue, QUEUE_SPEC


class TestConstructorTable:
    def test_queue_constructors(self, queue_spec):
        table = constructor_table(queue_spec)
        toi = queue_spec.type_of_interest
        assert {op.name for op in table[toi]} == {"NEW", "ADD"}

    def test_builtins_excluded(self, symboltable_spec):
        table = constructor_table(symboltable_spec)
        for ops in table.values():
            assert all(op.builtin is None for op in ops)


class TestTermStrategy:
    @given(term=term_strategy(QUEUE_SPEC, QUEUE_SPEC.type_of_interest))
    @settings(max_examples=50, deadline=None)
    def test_draws_are_ground_and_sorted(self, term):
        assert term.is_ground()
        assert term.sort == QUEUE_SPEC.type_of_interest

    @given(term=term_strategy(QUEUE_SPEC, Sort("Item")))
    @settings(max_examples=30, deadline=None)
    def test_parameter_sort_draws_literals(self, term):
        from repro.algebra.terms import Lit

        assert isinstance(term, Lit)

    def test_uninhabited_sort_rejected(self, queue_spec):
        with pytest.raises(ValueError, match="uninhabited"):
            term_strategy(queue_spec, Sort("Ghost"))


class TestValueStrategy:
    @given(value=value_strategy(queue_binding()))
    @settings(max_examples=30, deadline=None)
    def test_values_are_implementation_objects(self, value):
        assert isinstance(value, ListQueue)


class TestSubstitutionStrategy:
    axiom = QUEUE_SPEC.axioms[3]

    @given(sigma=substitution_strategy(QUEUE_SPEC, axiom.variables()))
    @settings(max_examples=30, deadline=None)
    def test_covers_all_variables(self, sigma):
        assert set(sigma) == self.axiom.variables()
        assert sigma.is_ground()

    @given(sigma=substitution_strategy(QUEUE_SPEC, axiom.variables()))
    @settings(max_examples=40, deadline=None)
    def test_axiom_holds_under_engine(self, sigma):
        """Every axiom 4 instance normalises equal — spec-level property
        test, the repro-band's 'axioms checked via hypothesis'."""
        from repro.rewriting import RewriteEngine

        engine = RewriteEngine.for_specification(QUEUE_SPEC)
        lhs, rhs = sigma.apply(self.axiom.lhs), sigma.apply(self.axiom.rhs)
        assert engine.normalize(lhs) is engine.normalize(rhs)
