"""The DSL parsers raise only their declared error types.

Whatever text they are given — arbitrary strings, or the repository's
specification and program files with random edits — the only exceptions
that may escape ``parse_specification``, ``parse_specifications``,
``parse_term`` and ``parse_client_program`` are :class:`LexError` and
:class:`ParseError`.  (``LexError`` is a kind of ``ParseError``; both are
named so a regression that splits them apart still reads clearly.)

Run with ``HYPOTHESIS_PROFILE=nightly`` for a longer search.
"""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adt.queue import QUEUE_SPEC
from repro.spec.lexer import LexError
from repro.spec.parser import (
    ParseError,
    parse_specification,
    parse_specifications,
    parse_term,
)
from repro.verify.client import parse_client_program

_ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC_TEXTS = sorted(p.read_text() for p in (_ROOT / "specs").glob("*.spec"))
PROGRAM_TEXTS = sorted(
    p.read_text() for p in (_ROOT / "specs" / "programs").glob("*.prove")
)
DECLARED = (LexError, ParseError)

#: Pieces of DSL (and of things the DSL does not allow) to splice in.
FRAGMENTS = st.sampled_from(
    [
        "(", ")", ",", ":", "=", "->", "[", "]", "x", " ", "\n", "--",
        "if", "then", "else", "error", "true", "false", "type", "uses",
        "operations", "vars", "axioms", "input", "let", "assert", ":=",
        "Queue", "Item", "Boolean", "NEW", "ADD", "FRONT", "q", "i",
        "0", "42", "'a'", '"b"', "'", "a..b", "IS_EMPTY?", "²", "é",
        "٣", "@",
    ]
) | st.text(max_size=4)

FUZZ = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def mutated(draw, texts):
    """One of ``texts`` after a few random deletions, insertions and
    duplications."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        edit = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "insert":
            text = text[:start] + draw(FRAGMENTS) + text[start:]
        else:
            text = text[:end] + text[start:end] + text[end:]
    return text


def _only_declared_errors(parse, text):
    try:
        parse(text)
    except DECLARED:
        pass


@FUZZ
@given(st.text())
def test_arbitrary_text_specification(text):
    _only_declared_errors(parse_specification, text)


@FUZZ
@given(mutated(SPEC_TEXTS))
def test_mutated_specification(text):
    _only_declared_errors(parse_specification, text)
    _only_declared_errors(parse_specifications, text)


@FUZZ
@given(st.text() | mutated(["FRONT(REMOVE(ADD(ADD(NEW, 'a'), 'b')))"]))
def test_term(text):
    _only_declared_errors(lambda source: parse_term(source, QUEUE_SPEC), text)


@FUZZ
@given(st.text() | mutated(PROGRAM_TEXTS))
def test_client_program(text):
    _only_declared_errors(
        lambda source: parse_client_program(source, QUEUE_SPEC), text
    )


@pytest.mark.parametrize("where", ["term", "program", "specification"])
def test_deep_nesting_is_a_parse_error(where):
    deep = "REMOVE(" * 3000 + "NEW" + ")" * 3000
    with pytest.raises(ParseError, match="nested too deeply"):
        if where == "term":
            parse_term(deep, QUEUE_SPEC)
        elif where == "program":
            parse_client_program(f"let q := {deep}", QUEUE_SPEC)
        else:
            queue = (_ROOT / "specs" / "queue.spec").read_text()
            parse_specification(queue.replace("REMOVE(NEW)", deep, 1))
