"""Unit tests for ground model checking of obligations."""

import pytest

from repro.algebra.terms import App, app
from repro.verify.modelcheck import model_check, reachable_states
from repro.verify.obligations import obligations_for


@pytest.fixture(scope="module")
def representation_module():
    from repro.adt.symboltable import symboltable_representation

    return symboltable_representation()


@pytest.fixture(scope="module")
def states(representation_module):
    return reachable_states(representation_module, depth=3, limit=50)


class TestReachableStates:
    def test_base_state_is_init_image(self, representation_module):
        states = reachable_states(representation_module, depth=0)
        assert [str(s) for s in states] == ["PUSH(NEWSTACK, EMPTY)"]

    def test_states_grow_with_depth(self, representation_module):
        shallow = reachable_states(representation_module, depth=1, limit=50)
        deeper = reachable_states(representation_module, depth=2, limit=50)
        assert len(deeper) > len(shallow) > 1

    def test_states_are_normal_forms(self, representation_module, states):
        from repro.rewriting import RewriteEngine

        engine = RewriteEngine(representation_module.rules())
        for state in states[:20]:
            assert engine.normalize(state) == state

    def test_states_deduplicated(self, states):
        assert len(states) == len(set(states))

    def test_states_up_to_renaming(self, representation_module):
        """One ADD' on the initial state gives one state, whatever the
        identifier and attributes: they are taken up to renaming."""
        states = reachable_states(representation_module, depth=1)
        assert [str(s) for s in states] == [
            "PUSH(NEWSTACK, EMPTY)",
            "PUSH(PUSH(NEWSTACK, EMPTY), EMPTY)",
            "PUSH(NEWSTACK, ASSIGN(EMPTY, 'x', 'int'))",
        ]

    def test_no_state_is_newstack(self, representation_module, states):
        newstack = representation_module.concrete.operation("NEWSTACK")
        assert app(newstack) not in states


class TestModelCheck:
    def test_all_obligations_hold_on_reachable(
        self, representation_module, states
    ):
        for obligation in obligations_for(representation_module):
            report = model_check(
                obligation,
                representation_module,
                states[:12],
                max_instances=120,
            )
            assert report.holds, str(report)
            assert report.instances_checked > 0

    def test_axiom_9_fails_on_unreachable_newstack(
        self, representation_module
    ):
        newstack = representation_module.concrete.operation("NEWSTACK")
        nine = [
            o
            for o in obligations_for(representation_module)
            if o.label == "9"
        ][0]
        report = model_check(
            nine, representation_module, [app(newstack)], max_instances=60
        )
        assert not report.holds
        counterexample = report.counterexamples[0]
        assert "NEWSTACK" in str(counterexample.substitution)
        # Identifiers up to renaming: the pair is equal or distinct, so
        # NEWSTACK has two instances, and the equal pair fails.
        assert (report.instances_checked, report.complete_to) == (2, None)
        values = {v.name: t for v, t in counterexample.substitution.items()}
        assert values["id"] == values["idl"]

    def test_axiom_6_fails_on_unreachable_newstack(
        self, representation_module
    ):
        newstack = representation_module.concrete.operation("NEWSTACK")
        six = [
            o
            for o in obligations_for(representation_module)
            if o.label == "6"
        ][0]
        report = model_check(
            six, representation_module, [app(newstack)], max_instances=60
        )
        assert not report.holds

    def test_axioms_without_rep_vars_hold_trivially(
        self, representation_module, states
    ):
        one = [
            o
            for o in obligations_for(representation_module)
            if o.label == "1"
        ][0]
        report = model_check(one, representation_module, states[:3])
        assert report.holds
        assert report.instances_checked == 1

    def test_undecided_instances_are_not_checked(
        self, representation_module, states
    ):
        nine = [
            o
            for o in obligations_for(representation_module)
            if o.label == "9"
        ][0]
        report = model_check(
            nine, representation_module, states[:3], max_instances=10, fuel=1
        )
        assert report.undecided == 10
        assert report.instances_checked == 0
        assert "10 undecided" in str(report)

    def test_report_str(self, representation_module, states):
        obligation = obligations_for(representation_module)[0]
        report = model_check(obligation, representation_module, states[:3])
        assert "holds" in str(report)
