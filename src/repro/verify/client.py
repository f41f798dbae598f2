"""Verification of client programs against algebraic specifications.

Section 5: "For verifications of programs that use abstract types, the
algebraic specification of the types used provides a set of powerful
rules of inference ... a technique for factoring the proof is provided."

A *client program* is a straight-line sequence of let-bindings over the
operations of one or more specifications, with input variables, followed
by assertions (equations between program expressions).  Verification is
the paper's factoring, executed:

1. symbolically evaluate the program — every binding becomes a term over
   the inputs;
2. discharge each assertion with the equational prover, using *only* the
   specifications' axioms as rules of inference.

The inputs are quantified over the whole program, so one prover proves
every assertion and each input is one skolem constant throughout: an
assertion about ``FRONT(REMOVE(q))`` meets the terms its neighbours
already simplified (see :meth:`EquationalProver.skolemize`).

No implementation is consulted anywhere: a proof here holds for every
correct implementation of the types ("provided that the implementations
of the abstract operations that it uses are consistent with their
specifications").

Programs can be built with the Python API or parsed from a small text
form::

    input i: Item
    input j: Item
    let q  := ADD(ADD(NEW, i), j)
    let f  := FRONT(q)
    let r  := REMOVE(q)
    assert f = i
    assert FRONT(r) = j
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.algebra.sorts import Sort
from repro.algebra.substitution import Substitution
from repro.algebra.terms import Term, Var
from repro.spec.lexer import TokenKind, tokenize
from repro.spec.parser import ParseError, _Parser
from repro.spec.specification import Specification
from repro.rewriting.rules import RuleSet
from repro.verify.prover import EquationalProver, ProofResult


class ClientProgramError(Exception):
    """Raised for malformed client programs."""


@dataclass(frozen=True)
class Assertion:
    """One equation the program claims about its bindings."""

    lhs: Term
    rhs: Term
    label: str = ""

    def __str__(self) -> str:
        prefix = f"[{self.label}] " if self.label else ""
        return f"{prefix}{self.lhs} = {self.rhs}"


class ClientProgram:
    """A straight-line program over abstract operations.

    Build programmatically::

        program = ClientProgram(QUEUE_SPEC)
        i = program.input("i", ITEM)
        q = program.let("q", app(ADD, app(NEW), i))
        program.assert_equal(app(FRONT, q), i)
    """

    def __init__(self, *specs: Specification) -> None:
        if not specs:
            raise ClientProgramError("a client program needs at least one spec")
        self.specs = specs
        self._inputs: dict[str, Var] = {}
        self._bindings: dict[str, Term] = {}
        self._order: list[str] = []
        self.assertions: list[Assertion] = []

    # ------------------------------------------------------------------
    def input(self, name: str, sort: Sort) -> Var:
        """Declare an input variable (universally quantified)."""
        if name in self._inputs or name in self._bindings:
            raise ClientProgramError(f"{name!r} is already defined")
        variable = Var(name, sort)
        self._inputs[name] = variable
        return variable

    def let(self, name: str, term: Term) -> Term:
        """Bind ``name`` to ``term``; returns the *expanded* term (all
        earlier bindings substituted), which is what later expressions
        should reference."""
        if name in self._inputs or name in self._bindings:
            raise ClientProgramError(f"{name!r} is already defined")
        expanded = self._expand(term)
        self._bindings[name] = expanded
        self._order.append(name)
        return expanded

    def assert_equal(self, lhs: Term, rhs: Term, label: str = "") -> None:
        left = self._expand(lhs)
        right = self._expand(rhs)
        if left.sort != right.sort:
            raise ClientProgramError(
                f"assertion sides have different sorts: {left.sort} vs "
                f"{right.sort}"
            )
        self.assertions.append(Assertion(left, right, label))

    def _expand(self, term: Term) -> Term:
        """Replace references to bound names (as variables) with their
        definitions."""
        mapping = {
            Var(name, value.sort): value
            for name, value in self._bindings.items()
        }
        return Substitution(mapping).apply(term)

    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[Var, ...]:
        return tuple(self._inputs.values())

    def binding(self, name: str) -> Term:
        try:
            return self._bindings[name]
        except KeyError:
            raise ClientProgramError(f"no binding {name!r}") from None

    def rules(self) -> RuleSet:
        merged: list = []
        seen: set[tuple] = set()
        for spec in self.specs:
            for axiom in spec.all_axioms():
                key = (axiom.lhs, axiom.rhs)
                if key not in seen:
                    seen.add(key)
                    merged.append(axiom)
        return RuleSet.from_axioms(merged)

    def __str__(self) -> str:
        lines = [
            f"input {v.name}: {v.sort}" for v in self._inputs.values()
        ]
        lines.extend(
            f"let {name} := {self._bindings[name]}" for name in self._order
        )
        lines.extend(f"assert {a}" for a in self.assertions)
        return "\n".join(lines)


@dataclass
class ClientVerificationReport:
    program: ClientProgram
    outcomes: list[tuple[Assertion, ProofResult]] = field(default_factory=list)

    @property
    def all_proved(self) -> bool:
        return all(result.proved for _, result in self.outcomes)

    @property
    def failures(self) -> list[Assertion]:
        return [a for a, result in self.outcomes if not result.proved]

    def __str__(self) -> str:
        lines = []
        for assertion, result in self.outcomes:
            verdict = "proved" if result.proved else "NOT PROVED"
            lines.append(f"assert {assertion}: {verdict}")
        return "\n".join(lines)


def verify_client(
    program: ClientProgram,
    fuel: int = 100_000,
    max_fact_splits: int = 16,
) -> ClientVerificationReport:
    """Discharge every assertion of ``program`` from the axioms alone."""
    prover = EquationalProver(
        program.rules(),
        max_fact_splits=max_fact_splits,
        fuel=fuel,
    )
    report = ClientVerificationReport(program)
    for assertion in program.assertions:
        lhs, rhs, _ = prover.skolemize(assertion.lhs, assertion.rhs)
        report.outcomes.append((assertion, prover.prove(lhs, rhs)))
    return report


# ----------------------------------------------------------------------
# The text form
# ----------------------------------------------------------------------
def parse_client_program(
    source: str, *specs: Specification
) -> ClientProgram:
    """Parse the ``input/let/assert`` text form against ``specs``."""
    program = ClientProgram(*specs)
    operations = {}
    sorts = {}
    for spec in specs:
        for op in spec.full_signature().operations:
            operations[op.name] = op
        for sort in spec.full_signature().sorts:
            sorts[str(sort)] = sort

    parser = _Parser(tokenize(source), {})
    scope: dict[str, Var] = {}

    def next_keyword() -> Optional[str]:
        token = parser._peek()
        if token.kind is TokenKind.EOF:
            return None
        if token.kind is not TokenKind.IDENT or token.text not in (
            "input",
            "let",
            "assert",
        ):
            raise ParseError(
                f"expected input/let/assert, found {token}"
            )
        return token.text

    while True:
        keyword = next_keyword()
        if keyword is None:
            break
        keyword_token = parser._next()
        try:
            if keyword == "input":
                name = parser._expect(TokenKind.IDENT, "input name").text
                parser._expect(TokenKind.COLON, "':'")
                sort_name = parser._expect(TokenKind.IDENT, "sort").text
                sort = sorts.get(sort_name)
                if sort is None:
                    raise ParseError(f"unknown sort {sort_name!r}")
                scope[name] = program.input(name, sort)
            elif keyword == "let":
                name = parser._expect(TokenKind.IDENT, "binding name").text
                colon = parser._next()
                equals = parser._next()
                if colon.kind is not TokenKind.COLON or equals.kind is not TokenKind.EQUALS:
                    raise ParseError(f"expected ':=' after let {name}")
                term = parser._parse_term(operations, scope, expected=None)
                bound = program.let(name, term)
                scope[name] = Var(name, bound.sort)
            else:  # assert
                lhs = parser._parse_term(operations, scope, expected=None)
                parser._expect(TokenKind.EQUALS, "'='")
                rhs = parser._parse_term(operations, scope, expected=lhs.sort)
                program.assert_equal(lhs, rhs)
        except ClientProgramError as exc:
            # A well-formed line that redefines a name or equates terms
            # of different sorts.
            raise parser._error(keyword_token, exc) from None
        except RecursionError:
            raise parser._too_deep() from None
    return program
