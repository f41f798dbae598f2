"""Recursive-descent parser for the specification DSL.

See :mod:`repro.spec.lexer` for the surface syntax.  Parsing needs an
*environment* of already-defined specifications so that ``uses Boolean``
can resolve the Boolean operations; :data:`STANDARD_ENVIRONMENT` holds
the prelude types.

The grammar::

    spec        ::= "type" IDENT params? uses? sections
    params      ::= "[" IDENT ("," IDENT)* "]"
    uses        ::= "uses" IDENT ("," IDENT)*
    sections    ::= (opsection | varsection | axsection)*
    opsection   ::= "operations" opdecl+
    opdecl      ::= IDENT ":" domain? "->" IDENT
    domain      ::= IDENT (("x"|",")? IDENT)*
    varsection  ::= "vars" vardecl+
    vardecl     ::= IDENT ("," IDENT)* ":" IDENT
    axsection   ::= "axioms" axiom+
    axiom       ::= label? term "=" term
    label       ::= "(" (IDENT|INT) ")"
    term        ::= "if" term "then" term "else" term
                  | "error"
                  | INT | STRING
                  | IDENT ("(" term ("," term)* ")")?

``error`` takes the sort demanded by its context; a literal takes the
sort demanded by its context (both are resolved during sort inference).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.algebra.signature import Operation, Signature, SignatureError
from repro.algebra.sorts import BOOLEAN, Sort, SortError
from repro.algebra.terms import App, Err, Ite, Lit, Term, Var
from repro.spec.axioms import Axiom
from repro.spec.lexer import ParseError, Token, TokenKind, tokenize
from repro.spec.specification import Specification, SpecificationError


_KEYWORDS = {"type", "uses", "operations", "vars", "axioms", "if", "then", "else", "error"}


class _Parser:
    def __init__(self, tokens: Sequence[Token], environment: Mapping[str, Specification]):
        self._tokens = list(tokens)
        self._pos = 0
        self._environment = dict(environment)

    # -- token plumbing --------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _expect(self, kind: TokenKind, what: str) -> Token:
        token = self._next()
        if token.kind is not kind:
            raise ParseError(f"expected {what}, found {token}")
        return token

    def _error(self, token: Token, problem: object) -> ParseError:
        """A :class:`ParseError` for a sort or signature ``problem`` the
        text causes at ``token``."""
        return ParseError(
            f"{problem} at line {token.line}, column {token.column}"
        )

    def _too_deep(self) -> ParseError:
        """The error for input nested deeper than the recursive descent
        can follow (it ran out of Python stack)."""
        return ParseError(f"input nested too deeply near {self._peek()}")

    def _expect_keyword(self, word: str) -> Token:
        token = self._next()
        if token.kind is not TokenKind.IDENT or token.text != word:
            raise ParseError(f"expected {word!r}, found {token}")
        return token

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.IDENT and token.text == word

    def _at_section_or_eof(self) -> bool:
        token = self._peek()
        if token.kind is TokenKind.EOF:
            return True
        return token.kind is TokenKind.IDENT and token.text in (
            "operations",
            "vars",
            "axioms",
            "type",
        )

    # -- grammar -----------------------------------------------------------
    def parse_spec(self) -> Specification:
        type_token = self._expect_keyword("type")
        name_token = self._expect(TokenKind.IDENT, "type name")
        name = name_token.text

        parameter_tokens: list[Token] = []
        if self._peek().kind is TokenKind.LBRACKET:
            self._next()
            parameter_tokens.append(self._expect(TokenKind.IDENT, "parameter sort"))
            while self._peek().kind is TokenKind.COMMA:
                self._next()
                parameter_tokens.append(
                    self._expect(TokenKind.IDENT, "parameter sort")
                )
            self._expect(TokenKind.RBRACKET, "']'")

        uses: list[Specification] = []
        if self._at_keyword("uses"):
            self._next()
            uses.append(self._resolve_use())
            while self._peek().kind is TokenKind.COMMA:
                self._next()
                uses.append(self._resolve_use())

        signature = Signature()
        toi = self._new_sort(name_token)
        signature.add_sort(toi)
        parameters = tuple(self._new_sort(token) for token in parameter_tokens)
        for param in parameters:
            signature.add_sort(param)
        known_sorts: dict[str, Sort] = {str(s): s for s in signature.sorts}
        for used in uses:
            for sort in used.full_signature().sorts:
                signature.add_sort(sort)
                known_sorts[str(sort)] = sort

        full_ops: dict[str, Operation] = {}
        for used in uses:
            for op in used.full_signature().operations:
                full_ops[op.name] = op

        variables: dict[str, Var] = {}
        axioms: list[Axiom] = []

        while not (
            self._peek().kind is TokenKind.EOF or self._at_keyword("type")
        ):
            if self._at_keyword("operations"):
                self._next()
                for op in self._parse_operations(signature, known_sorts):
                    full_ops[op.name] = op
            elif self._at_keyword("vars"):
                self._next()
                self._parse_vars(variables, known_sorts)
            elif self._at_keyword("axioms"):
                self._next()
                axioms.extend(self._parse_axioms(full_ops, variables, known_sorts))
            else:
                raise ParseError(
                    f"expected a section keyword (operations/vars/axioms), "
                    f"found {self._peek()}"
                )

        try:
            return Specification(name, signature, toi, axioms, uses, parameters)
        except (SpecificationError, SignatureError) as exc:
            raise self._error(type_token, exc) from None

    def _new_sort(self, token: Token) -> Sort:
        try:
            return Sort(token.text)
        except ValueError as exc:
            raise self._error(token, exc) from None

    def _resolve_use(self) -> Specification:
        token = self._expect(TokenKind.IDENT, "used specification name")
        spec = self._environment.get(token.text)
        if spec is None:
            known = ", ".join(sorted(self._environment)) or "<none>"
            raise ParseError(
                f"unknown specification {token.text!r} in uses clause "
                f"(known: {known})"
            )
        return spec

    def _parse_operations(
        self, signature: Signature, known_sorts: dict[str, Sort]
    ) -> list[Operation]:
        declared: list[Operation] = []
        while not self._at_section_or_eof():
            name_token = self._expect(TokenKind.IDENT, "operation name")
            self._expect(TokenKind.COLON, "':' after operation name")
            domain: list[Sort] = []
            while self._peek().kind is not TokenKind.ARROW:
                token = self._next()
                if token.kind is TokenKind.COMMA:
                    continue
                if token.kind is TokenKind.IDENT and token.text == "x":
                    continue
                if token.kind is not TokenKind.IDENT:
                    raise ParseError(f"expected a sort in domain, found {token}")
                domain.append(self._sort_named(token, known_sorts))
            self._expect(TokenKind.ARROW, "'->'")
            range_token = self._expect(TokenKind.IDENT, "range sort")
            range_sort = self._sort_named(range_token, known_sorts)
            operation = Operation(name_token.text, tuple(domain), range_sort)
            try:
                signature.add_operation(operation)
            except SignatureError as exc:
                raise self._error(name_token, exc) from None
            declared.append(operation)
        return declared

    def _sort_named(self, token: Token, known_sorts: dict[str, Sort]) -> Sort:
        sort = known_sorts.get(token.text)
        if sort is None:
            known = ", ".join(sorted(known_sorts)) or "<none>"
            raise ParseError(
                f"unknown sort {token.text!r} at line {token.line} "
                f"(known: {known})"
            )
        return sort

    def _parse_vars(
        self, variables: dict[str, Var], known_sorts: dict[str, Sort]
    ) -> None:
        while not self._at_section_or_eof():
            names = [self._expect(TokenKind.IDENT, "variable name").text]
            while self._peek().kind is TokenKind.COMMA:
                self._next()
                names.append(self._expect(TokenKind.IDENT, "variable name").text)
            self._expect(TokenKind.COLON, "':' after variable name(s)")
            sort_token = self._expect(TokenKind.IDENT, "variable sort")
            sort = self._sort_named(sort_token, known_sorts)
            for name in names:
                if name in _KEYWORDS:
                    raise ParseError(f"variable name {name!r} is a keyword")
                variables[name] = Var(name, sort)

    def _parse_axioms(
        self,
        operations: Mapping[str, Operation],
        variables: Mapping[str, Var],
        known_sorts: Mapping[str, Sort],
    ) -> list[Axiom]:
        axioms: list[Axiom] = []
        while not self._at_section_or_eof():
            label = ""
            start = self._peek()
            if self._peek().kind is TokenKind.LPAREN:
                # A parenthesised label only when followed by IDENT/INT + ')'.
                save = self._pos
                self._next()
                inner = self._next()
                closing = self._peek()
                if (
                    inner.kind in (TokenKind.IDENT, TokenKind.INT)
                    and closing.kind is TokenKind.RPAREN
                ):
                    self._next()
                    label = inner.text
                else:
                    self._pos = save
            lhs = self._parse_term(operations, variables, expected=None)
            self._expect(TokenKind.EQUALS, "'=' between axiom sides")
            rhs = self._parse_term(operations, variables, expected=lhs.sort)
            try:
                axioms.append(Axiom(lhs, rhs, label))
            except Exception as exc:  # fault-boundary: invalid axiom surfaces as a parse error
                raise self._error(start, f"bad axiom {lhs} = {rhs}: {exc}") from exc
        return axioms

    def _parse_term(
        self,
        operations: Mapping[str, Operation],
        variables: Mapping[str, Var],
        expected: Optional[Sort],
    ) -> Term:
        token = self._peek()
        if token.kind is TokenKind.IDENT and token.text == "if":
            self._next()
            cond = self._parse_term(operations, variables, BOOLEAN)
            self._expect_keyword("then")
            then_branch = self._parse_term(operations, variables, expected)
            self._expect_keyword("else")
            else_branch = self._parse_term(
                operations, variables, then_branch.sort
            )
            try:
                return Ite(cond, then_branch, else_branch)
            except SortError as exc:
                raise self._error(token, exc) from None
        if token.kind is TokenKind.IDENT and token.text == "error":
            self._next()
            if expected is None:
                raise ParseError(
                    f"cannot infer the sort of 'error' at line {token.line}; "
                    f"it may not stand alone on a left-hand side"
                )
            return Err(expected)
        if token.kind is TokenKind.INT:
            self._next()
            if expected is None:
                raise ParseError(
                    f"cannot infer the sort of literal {token.text} at "
                    f"line {token.line}"
                )
            return Lit(int(token.text), expected)
        if token.kind is TokenKind.STRING:
            self._next()
            if expected is None:
                raise ParseError(
                    f"cannot infer the sort of literal {token.text!r} at "
                    f"line {token.line}"
                )
            return Lit(token.text, expected)
        if token.kind is TokenKind.IDENT:
            self._next()
            name = token.text
            # Only consume a following '(' for operations that take
            # arguments: after a nullary constant like `true`, a '('
            # belongs to the next axiom's label.
            arity = operations[name].arity if name in operations else 0
            if self._peek().kind is TokenKind.LPAREN and arity:
                operation = operations[name]
                self._next()
                args: list[Term] = []
                for index in range(operation.arity):
                    if index:
                        self._expect(TokenKind.COMMA, "','")
                    args.append(
                        self._parse_term(
                            operations, variables, operation.domain[index]
                        )
                    )
                self._expect(TokenKind.RPAREN, f"')' closing {name}")
                try:
                    return App(operation, args)
                except SortError as exc:
                    raise self._error(token, exc) from None
            # A bare identifier: a variable if declared, else a constant op.
            if name in variables:
                return variables[name]
            operation = operations.get(name)
            if operation is not None:
                if operation.arity:
                    raise ParseError(
                        f"operation {name!r} at line {token.line} needs "
                        f"{operation.arity} argument(s)"
                    )
                return App(operation, ())
            raise ParseError(
                f"unknown name {name!r} at line {token.line}: not a declared "
                f"variable or operation"
            )
        raise ParseError(f"expected a term, found {token}")


def _standard_environment() -> dict[str, Specification]:
    from repro.spec import prelude

    return {
        spec.name: spec
        for spec in (
            prelude.BOOLEAN_SPEC,
            prelude.NAT_SPEC,
            prelude.IDENTIFIER_SPEC,
            prelude.ITEM_SPEC,
            prelude.ATTRIBUTELIST_SPEC,
        )
    }


def parse_specification(
    source: str,
    environment: Optional[Mapping[str, Specification]] = None,
) -> Specification:
    """Parse one specification from ``source``.

    ``environment`` maps names usable in ``uses`` clauses to their
    specifications; it defaults to the prelude (Boolean, Nat, Identifier,
    Item, Attributelist).
    """
    env = _standard_environment()
    if environment:
        env.update(environment)
    parser = _Parser(tokenize(source), env)
    try:
        spec = parser.parse_spec()
    except RecursionError:
        raise parser._too_deep() from None
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(f"unexpected input after specification: {trailing}")
    return spec


def parse_term(
    source: str,
    spec: Specification,
    expected: Optional[Sort] = None,
    variables: Optional[Mapping[str, "Var"]] = None,
):
    """Parse one term in the context of ``spec``.

    Used by the CLI's ``eval`` command and the examples: operation names
    resolve against ``spec``'s full signature; ``variables`` (name →
    :class:`~repro.algebra.terms.Var`) may declare free variables, which
    ground terms do not need.
    """
    from repro.algebra.terms import Var

    operations = {
        op.name: op for op in spec.full_signature().operations
    }
    parser = _Parser(tokenize(source), {})
    try:
        term = parser._parse_term(operations, dict(variables or {}), expected)
    except RecursionError:
        raise parser._too_deep() from None
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(f"unexpected input after term: {trailing}")
    return term


def parse_specifications(
    source: str,
    environment: Optional[Mapping[str, Specification]] = None,
) -> list[Specification]:
    """Parse several ``type ...`` blocks; each may use earlier ones."""
    env = _standard_environment()
    if environment:
        env.update(environment)
    parser = _Parser(tokenize(source), env)
    specs: list[Specification] = []
    while parser._peek().kind is not TokenKind.EOF:
        try:
            spec = parser.parse_spec()
        except RecursionError:
            raise parser._too_deep() from None
        parser._environment[spec.name] = spec
        specs.append(spec)
    return specs
