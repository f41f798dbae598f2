"""Lexer for the specification DSL.

The DSL mirrors the paper's notation as closely as plain text allows::

    type Queue [Item]
    uses Boolean

    operations
      NEW:       -> Queue
      ADD:       Queue Item -> Queue
      FRONT:     Queue -> Item
      REMOVE:    Queue -> Queue
      IS_EMPTY?: Queue -> Boolean

    vars
      q: Queue
      i: Item

    axioms
      (1) IS_EMPTY?(NEW) = true
      (2) IS_EMPTY?(ADD(q, i)) = false
      (3) FRONT(NEW) = error
      (4) FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
      (5) REMOVE(NEW) = error
      (6) REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW
                              else ADD(REMOVE(q), i)

Identifiers start with an ASCII letter or ``_`` and continue with
ASCII letters, digits, ``_`` and ``.``, with an optional trailing ``?``
(the paper's ``IS_EMPTY?``, ``IS.NEWSTACK?``).  Integers are ASCII
digits.  Any other character outside a comment or string literal —
including non-ASCII letters and digits such as ``é`` or ``²`` — is a
:class:`LexError`.  ``--`` starts a comment running to end of line.
String literals (single or double quoted, on one line) and integers
become :class:`~repro.algebra.terms.Lit` leaves.

Tokens come from one compiled pattern, matched at each position in
turn; columns count characters from 1.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    IDENT = auto()
    INT = auto()
    STRING = auto()
    ARROW = auto()       # ->
    COLON = auto()       # :
    COMMA = auto()       # ,
    EQUALS = auto()      # =
    LPAREN = auto()      # (
    RPAREN = auto()      # )
    LBRACKET = auto()    # [
    RBRACKET = auto()    # ]
    CROSS = auto()       # x (domain separator) — lexed as IDENT, promoted by parser
    EOF = auto()


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.text!r} at line {self.line}, column {self.column}"


class ParseError(Exception):
    """Raised on syntax or sort errors in a specification text."""


class LexError(ParseError):
    """Raised on characters the DSL does not use (a kind of
    :class:`ParseError`, so callers need catch only that)."""


_PUNCTUATION = {
    "->": TokenKind.ARROW,
    ":": TokenKind.COLON,
    ",": TokenKind.COMMA,
    "=": TokenKind.EQUALS,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
}

#: One alternative per token class; ``lastgroup`` names the match.
#: Layout and comments are skipped, a quote with no closing quote on its
#: line is an unterminated string, and anything else fails to match.
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r]+)
    | (?P<newline>\n)
    | (?P<comment>--[^\n]*)
    | (?P<punct>->|[:,=()\[\]])
    | '(?P<squote>[^'\n]*)'
    | "(?P<dquote>[^"\n]*)"
    | (?P<quote>['"])
    | (?P<int>[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*\??)
    """,
    re.VERBOSE,
)

#: Token kinds of the value-carrying groups (punctuation maps by text).
_GROUP_KINDS = {
    "ident": TokenKind.IDENT,
    "int": TokenKind.INT,
    "squote": TokenKind.STRING,
    "dquote": TokenKind.STRING,
}

# Tokens are built with tuple.__new__, skipping the NamedTuple's
# Python-level constructor.
_new_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` into a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    line = 1
    line_start = 0  # offset of the current line's first character
    pos = 0
    n = len(source)
    while pos < n:
        found = match(source, pos)
        if found is None:
            raise LexError(
                f"unexpected character {source[pos]!r} at line {line}, "
                f"column {pos - line_start + 1}"
            )
        group = found.lastgroup
        column = pos - line_start + 1
        pos = found.end()
        if group == "punct":
            text = found.group()
            kind = _PUNCTUATION[text]
        elif group in _GROUP_KINDS:
            text = found.group(group)
            kind = _GROUP_KINDS[group]
        else:
            if group == "newline":
                line += 1
                line_start = pos
            elif group == "quote":
                raise LexError(
                    f"unterminated string at line {line}, column {column}"
                )
            continue  # layout or a comment
        append(_new_token(Token, (kind, text, line, column)))
    append(_new_token(Token, (TokenKind.EOF, "", line, pos - line_start + 1)))
    return tokens
