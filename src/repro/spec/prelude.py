"""Predefined specifications the paper's types build on.

Guttag's examples take several types as given:

* ``Boolean`` — ranges of the ``IS_...?`` observers, and the sort of
  if-then-else conditions.  Specified here algebraically (TRUE/FALSE
  constructors, NOT/AND/OR defined by axioms).
* ``Identifier`` — "SAME? is part of the specification of an
  independently defined type Identifier"; the Array implementation also
  assumes a ``HASH: Identifier -> [1..n]`` operation.  We give
  Identifier literal inhabitants (strings) and implement ``ISSAME?`` and
  ``HASH`` as imported (builtin) operations.
* ``Nat`` — hash values and bounded-queue capacities.
* ``Item`` — the Queue schema's parameter type; opaque literals.
* ``Attributelist`` — the attributes stored in a symbol table; opaque
  literals, as in the paper, which never inspects them.

Each is exposed both as a :class:`~repro.spec.specification.Specification`
and as module-level :class:`~repro.algebra.signature.Operation` constants
for building terms by hand.
"""

from __future__ import annotations

from repro.algebra.signature import Operation, Signature
from repro.algebra.sorts import BOOLEAN, NAT, Sort
from repro.algebra.terms import App, Lit, Term, app, var
from repro.spec.axioms import Axiom
from repro.spec.specification import Specification

# ----------------------------------------------------------------------
# Boolean
# ----------------------------------------------------------------------
TRUE = Operation("true", (), BOOLEAN)
FALSE = Operation("false", (), BOOLEAN)
NOT = Operation("not", (BOOLEAN,), BOOLEAN)
AND = Operation("and", (BOOLEAN, BOOLEAN), BOOLEAN)
OR = Operation("or", (BOOLEAN, BOOLEAN), BOOLEAN)

_b = var("b", BOOLEAN)

BOOLEAN_SPEC = Specification(
    "Boolean",
    Signature(
        [BOOLEAN],
        [TRUE, FALSE, NOT, AND, OR],
    ),
    BOOLEAN,
    axioms=[
        Axiom(app(NOT, app(TRUE)), app(FALSE), "B1"),
        Axiom(app(NOT, app(FALSE)), app(TRUE), "B2"),
        Axiom(app(AND, app(TRUE), _b), _b, "B3"),
        Axiom(app(AND, app(FALSE), _b), app(FALSE), "B4"),
        Axiom(app(OR, app(TRUE), _b), app(TRUE), "B5"),
        Axiom(app(OR, app(FALSE), _b), _b, "B6"),
    ],
)


# The canonical interned TRUE/FALSE nodes.  Every constructor interns,
# so any application of an operation equal to TRUE is this very node and
# ``term is _TRUE_NODE`` decides is_true.
_TRUE_NODE = app(TRUE)
_FALSE_NODE = app(FALSE)


def true_term() -> App:
    return _TRUE_NODE


def false_term() -> App:
    return _FALSE_NODE


def boolean_term(value: bool) -> App:
    """The TRUE or FALSE term for a Python bool."""
    return _TRUE_NODE if value else _FALSE_NODE


def is_true(term: Term) -> bool:
    return term is _TRUE_NODE


def is_false(term: Term) -> bool:
    return term is _FALSE_NODE


# ----------------------------------------------------------------------
# Nat
# ----------------------------------------------------------------------
ZERO = Operation("zero", (), NAT)
SUCC = Operation("succ", (NAT,), NAT)

NAT_SPEC = Specification(
    "Nat",
    Signature([NAT], [ZERO, SUCC]),
    NAT,
)


def nat_term(value: int) -> Term:
    """``value`` as a Peano numeral.  Small values only; literals are the
    efficient representation (:func:`nat_lit`)."""
    if value < 0:
        raise ValueError("naturals cannot be negative")
    term: Term = app(ZERO)
    for _ in range(value):
        term = app(SUCC, term)
    return term


def nat_lit(value: int) -> Lit:
    """``value`` as a Nat literal (used by HASH results)."""
    if value < 0:
        raise ValueError("naturals cannot be negative")
    return Lit(value, NAT)


# ----------------------------------------------------------------------
# Identifier
# ----------------------------------------------------------------------
IDENTIFIER = Sort("Identifier")

#: Size of the hash range used by the Array implementation; the paper
#: writes ``HASH: Identifier -> [1, 2, ..., n]``.
HASH_BUCKETS = 16


def _issame(left: object, right: object) -> bool:
    return left == right


def _hash_identifier(name: object) -> int:
    # Stable across processes (unlike Python's randomised str hash): the
    # bucket an identifier lands in must not change between test runs.
    total = 0
    for char in str(name):
        total = (total * 31 + ord(char)) % (2**31)
    return total % HASH_BUCKETS + 1


ISSAME = Operation(
    "ISSAME?", (IDENTIFIER, IDENTIFIER), BOOLEAN, builtin=_issame
)
HASH = Operation("HASH", (IDENTIFIER,), NAT, builtin=_hash_identifier)

from repro.algebra.terms import Var as _Var

_id = _Var("id", IDENTIFIER)

IDENTIFIER_SPEC = Specification(
    "Identifier",
    Signature([IDENTIFIER, BOOLEAN, NAT], [ISSAME, HASH]),
    IDENTIFIER,
    axioms=[
        # Reflexivity, for *symbolic* identifiers: the builtin decides
        # ISSAME? on literals, but provers reason about arbitrary
        # identifiers (skolem constants), where only this law applies.
        Axiom(app(ISSAME, _id, _id), app(TRUE), "I1"),
    ],
    uses=[BOOLEAN_SPEC, NAT_SPEC],
)


def identifier(name: str) -> Lit:
    """An Identifier literal."""
    return Lit(name, IDENTIFIER)


# ----------------------------------------------------------------------
# Item (Queue schema parameter) and Attributelist
# ----------------------------------------------------------------------
ITEM = Sort("Item")

ITEM_SPEC = Specification("Item", Signature([ITEM]), ITEM)


def item(value: object) -> Lit:
    """An Item literal (any hashable payload)."""
    return Lit(value, ITEM)


ATTRIBUTELIST = Sort("Attributelist")

ATTRIBUTELIST_SPEC = Specification(
    "Attributelist", Signature([ATTRIBUTELIST]), ATTRIBUTELIST
)


def attributes(value: object) -> Lit:
    """An Attributelist literal (any hashable payload)."""
    return Lit(value, ATTRIBUTELIST)
