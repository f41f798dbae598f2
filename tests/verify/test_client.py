"""Tests for client-program verification."""

import pytest

from repro.algebra.sorts import Sort
from repro.algebra.terms import app, var
from repro.spec.parser import ParseError
from repro.spec.prelude import ITEM, true_term
from repro.verify import skolem
from repro.verify.client import (
    ClientProgram,
    ClientProgramError,
    parse_client_program,
    verify_client,
)
from repro.adt.queue import ADD, FRONT, IS_EMPTY, NEW, QUEUE_SPEC, REMOVE
from repro.adt.symboltable import SYMBOLTABLE_SPEC


class TestProgramConstruction:
    def test_programmatic_build(self):
        program = ClientProgram(QUEUE_SPEC)
        i = program.input("i", ITEM)
        q = program.let("q", app(ADD, app(NEW), i))
        program.assert_equal(app(FRONT, q), i)
        assert len(program.assertions) == 1
        assert program.inputs == (i,)

    def test_let_expands_earlier_bindings(self):
        program = ClientProgram(QUEUE_SPEC)
        i = program.input("i", ITEM)
        program.let("q", app(ADD, app(NEW), i))
        q_ref = var("q", QUEUE_SPEC.type_of_interest)
        expanded = program.let("r", app(REMOVE, q_ref))
        assert "ADD(NEW" in str(expanded)

    def test_duplicate_names_rejected(self):
        program = ClientProgram(QUEUE_SPEC)
        program.input("i", ITEM)
        with pytest.raises(ClientProgramError, match="already defined"):
            program.input("i", ITEM)
        program.let("q", app(NEW))
        with pytest.raises(ClientProgramError):
            program.let("q", app(NEW))

    def test_assert_sorts_must_match(self):
        program = ClientProgram(QUEUE_SPEC)
        i = program.input("i", ITEM)
        with pytest.raises(ClientProgramError, match="sorts"):
            program.assert_equal(app(NEW), i)

    def test_needs_a_spec(self):
        with pytest.raises(ClientProgramError):
            ClientProgram()

    def test_binding_lookup(self):
        program = ClientProgram(QUEUE_SPEC)
        program.let("q", app(NEW))
        assert program.binding("q") == app(NEW)
        with pytest.raises(ClientProgramError):
            program.binding("ghost")


class TestParseClientProgram:
    def test_full_form(self):
        program = parse_client_program(
            """
            input i: Item
            let q := ADD(NEW, i)
            assert FRONT(q) = i
            """,
            QUEUE_SPEC,
        )
        assert len(program.assertions) == 1
        assert [v.name for v in program.inputs] == ["i"]

    def test_unknown_sort(self):
        with pytest.raises(ParseError, match="unknown sort"):
            parse_client_program("input x: Ghost", QUEUE_SPEC)

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="input/let/assert"):
            parse_client_program("frobnicate q", QUEUE_SPEC)

    def test_redefinition_is_a_parse_error_with_its_line(self):
        with pytest.raises(ParseError, match="already defined at line 2"):
            parse_client_program("input i: Item\ninput i: Item", QUEUE_SPEC)

    def test_mismatched_assertion_sorts_are_a_parse_error(self):
        with pytest.raises(ParseError, match="sorts.*line 2"):
            parse_client_program("input i: Item\nassert NEW = i", QUEUE_SPEC)

    def test_str_round_trips_shape(self):
        source = """
        input i: Item
        let q := ADD(NEW, i)
        assert FRONT(q) = i
        """
        program = parse_client_program(source, QUEUE_SPEC)
        text = str(program)
        assert "input i: Item" in text
        assert "assert" in text


class TestVerification:
    def test_queue_fifo_theorems(self):
        program = parse_client_program(
            """
            input i: Item
            input j: Item
            let q := ADD(ADD(NEW, i), j)
            assert FRONT(q) = i
            assert FRONT(REMOVE(q)) = j
            assert IS_EMPTY?(REMOVE(REMOVE(q))) = true
            """,
            QUEUE_SPEC,
        )
        report = verify_client(program)
        assert report.all_proved, str(report)

    def test_false_assertion_rejected(self):
        program = parse_client_program(
            """
            input i: Item
            input j: Item
            let q := ADD(ADD(NEW, i), j)
            assert FRONT(q) = j
            """,
            QUEUE_SPEC,
        )
        report = verify_client(program)
        assert not report.all_proved
        assert len(report.failures) == 1

    def test_symboltable_shadowing_theorems(self):
        program = parse_client_program(
            """
            input id: Identifier
            input a: Attributelist
            input b: Attributelist
            let t := ADD(INIT, id, a)
            let u := ADD(ENTERBLOCK(t), id, b)
            assert RETRIEVE(t, id) = a
            assert RETRIEVE(u, id) = b
            assert RETRIEVE(LEAVEBLOCK(u), id) = a
            """,
            SYMBOLTABLE_SPEC,
        )
        report = verify_client(program)
        assert report.all_proved, str(report)

    def test_distinct_identifiers_need_case_split(self):
        """RETRIEVE of a *different* identifier falls through the inner
        binding: provable only by splitting on ISSAME?(id, idl)."""
        program = parse_client_program(
            """
            input id: Identifier
            input a: Attributelist
            let t := ADD(INIT, id, a)
            assert IS_INBLOCK?(t, id) = true
            """,
            SYMBOLTABLE_SPEC,
        )
        report = verify_client(program)
        assert report.all_proved, str(report)

    def test_proof_uses_no_implementation(self):
        """The rule set contains only axioms — factoring, literally."""
        program = ClientProgram(QUEUE_SPEC)
        heads = program.rules().heads()
        # Heads are defined operations of the specs, nothing else.
        assert "FRONT" in heads and "RETRIEVE" not in heads

    def test_multi_spec_program(self):
        from repro.adt.extras import LIST_SPEC

        program = parse_client_program(
            """
            input i: Item
            let l := CONS(i, NIL)
            let q := ADD(NEW, i)
            assert HEAD(l) = i
            assert FRONT(q) = i
            """,
            QUEUE_SPEC,
            LIST_SPEC,
        )
        report = verify_client(program)
        assert report.all_proved, str(report)


class TestSharedConstants:
    """One program, one skolem constant per input, shared by all its
    assertions."""

    def test_one_goals_split_facts_never_reach_another(self):
        # The first assertion is proved by splitting on ISSAME?(a, b).
        # Its true branch would prove the second assertion and its false
        # branch the third; both are false.
        program = parse_client_program(
            """
            input s: Symboltable
            input a: Identifier
            input b: Identifier
            input v: Attributelist
            let t := ADD(s, a, v)
            assert RETRIEVE(ADD(t, a, v), b) = RETRIEVE(t, b)
            assert RETRIEVE(t, b) = v
            assert RETRIEVE(t, b) = RETRIEVE(s, b)
            """,
            SYMBOLTABLE_SPEC,
        )
        (_, split), (_, same), (_, other) = verify_client(program).outcomes
        assert split.proved
        condition = split.transcript[0].description
        assert condition.startswith("case split on ISSAME?")
        condition = condition[len("case split on ") :]
        assert not same.proved and not other.proved
        # Each fails in the branch that refutes it, over the same
        # constants as the proved goal.
        assert [str(f) for f in same.failing_facts] == [f"{condition} = false"]
        assert [str(f) for f in other.failing_facts] == [f"{condition} = true"]

    def test_k_assertions_make_one_constant_per_input(self, monkeypatch):
        made = []
        fresh = skolem.fresh_constant

        def counting(name, sort):
            made.append(name)
            return fresh(name, sort)

        monkeypatch.setattr(skolem, "fresh_constant", counting)
        lines = ["input q: Queue", "input i: Item", "let r0 := ADD(q, i)"]
        for k in range(1, 6):
            lines.append(f"let r{k} := REMOVE(r{k - 1})")
            lines.append(f"assert IS_EMPTY?(ADD(r{k}, i)) = false")
        report = verify_client(parse_client_program("\n".join(lines), QUEUE_SPEC))
        assert len(report.outcomes) == 5
        assert sorted(made) == ["i", "q"]


class TestReportRendering:
    def test_str_lists_verdicts(self):
        program = parse_client_program(
            """
            input i: Item
            let q := ADD(NEW, i)
            assert FRONT(q) = i
            """,
            QUEUE_SPEC,
        )
        text = str(verify_client(program))
        assert "proved" in text
