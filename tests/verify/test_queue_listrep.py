"""Tests for the Queue-over-cons-lists representation."""

import pytest

from repro.algebra.terms import app
from repro.verify import (
    Mode,
    model_check,
    obligations_for,
    verify_representation,
)
from repro.adt.queue_listrep import queue_list_representation


@pytest.fixture(scope="module")
def rep():
    return queue_list_representation()


class TestShape:
    def test_all_queue_operations_defined(self, rep):
        assert set(rep.defined) == {
            "NEW",
            "ADD",
            "FRONT",
            "REMOVE",
            "IS_EMPTY?",
        }

    def test_six_obligations(self, rep):
        assert len(obligations_for(rep)) == 6

    def test_phi_wraps_queue_valued_axioms_only(self, rep):
        obligations = {o.label: o for o in obligations_for(rep)}
        assert obligations["5"].uses_phi or str(obligations["5"].lhs).startswith("Φ")
        assert not str(obligations["1"].lhs).startswith("Φ")


class TestVerification:
    def test_fully_correct_unconditionally(self, rep):
        result = verify_representation(rep, Mode.UNCONDITIONAL)
        assert result.all_proved, str(result)

    def test_also_by_generator_induction(self, rep):
        result = verify_representation(rep, Mode.REACHABLE)
        assert result.all_proved, str(result)

    def test_contrast_with_symboltable(self, rep, representation):
        """The interesting asymmetry: this representation needs no
        assumption, while the symbol table's does."""
        queue_free = verify_representation(rep, Mode.UNCONDITIONAL)
        table_free = verify_representation(
            representation, Mode.UNCONDITIONAL
        )
        assert queue_free.all_proved
        assert not table_free.all_proved


class TestModelCheck:
    def test_holds_on_all_list_values(self, rep):
        from repro.spec.prelude import item
        from repro.adt.queue_listrep import CONS, NIL

        # Every list is a legal queue state — including NIL.
        states = [
            app(NIL),
            app(CONS, item("a"), app(NIL)),
            app(CONS, item("b"), app(CONS, item("a"), app(NIL))),
        ]
        for obligation in obligations_for(rep):
            report = model_check(obligation, rep, states, max_instances=100)
            assert report.holds, str(report)


class TestBehaviour:
    def test_fifo_through_the_representation(self, rep):
        from repro.rewriting import RewriteEngine
        from repro.spec.prelude import item
        from repro.algebra.terms import Lit

        engine = RewriteEngine(rep.rules())
        new_p = rep.defined["NEW"].operation
        add_p = rep.defined["ADD"].operation
        front_p = rep.defined["FRONT"].operation
        remove_p = rep.defined["REMOVE"].operation

        state = app(new_p)
        for value in ("a", "b", "c"):
            state = app(add_p, state, item(value))
        seen = []
        for _ in range(3):
            front = engine.normalize(app(front_p, state))
            assert isinstance(front, Lit)
            seen.append(front.value)
            state = engine.normalize(app(remove_p, state))
        assert seen == ["a", "b", "c"]

    def test_phi_maps_states_to_queue_terms(self, rep):
        from repro.rewriting import RewriteEngine
        from repro.spec.prelude import item

        engine = RewriteEngine(rep.rules())
        new_p = rep.defined["NEW"].operation
        add_p = rep.defined["ADD"].operation
        state = app(add_p, app(add_p, app(new_p), item("x")), item("y"))
        image = engine.normalize(app(rep.phi, state))
        assert str(image) == "ADD(ADD(NEW, 'x'), 'y')"
