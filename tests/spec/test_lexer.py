"""Unit tests for the specification DSL lexer."""

import pathlib

import pytest

from repro.spec.lexer import LexError, Token, TokenKind, tokenize


def kinds(source: str) -> list[TokenKind]:
    return [token.kind for token in tokenize(source)]


def texts(source: str) -> list[str]:
    return [token.text for token in tokenize(source)][:-1]  # drop EOF


class TestBasics:
    def test_empty_input_gives_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_identifiers(self):
        assert texts("NEW ADD q") == ["NEW", "ADD", "q"]

    def test_question_suffix_kept(self):
        assert texts("IS_EMPTY?") == ["IS_EMPTY?"]

    def test_dotted_identifier(self):
        assert texts("IS.NEWSTACK?") == ["IS.NEWSTACK?"]

    def test_question_mark_only_trailing(self):
        # The '?' binds to the preceding identifier, not the following.
        tokens = texts("A?B")
        assert tokens == ["A?", "B"]

    def test_arrow(self):
        assert kinds("->")[:-1] == [TokenKind.ARROW]

    def test_punctuation(self):
        assert kinds("( ) [ ] , : =")[:-1] == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.COMMA,
            TokenKind.COLON,
            TokenKind.EQUALS,
        ]

    def test_integer(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[0].text == "42"

    def test_single_quoted_string(self):
        tokens = tokenize("'hello'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "hello"

    def test_double_quoted_string(self):
        tokens = tokenize('"hi there"')
        assert tokens[0].text == "hi there"


class TestCommentsAndLayout:
    def test_comment_to_end_of_line(self):
        assert texts("NEW -- a comment\nADD") == ["NEW", "ADD"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_end_of_input_column_counts_a_trailing_comment(self):
        eof = tokenize("FRONT(NEW -- c")[-1]
        assert eof.kind is TokenKind.EOF
        assert (eof.line, eof.column) == (1, 15)

    def test_whitespace_between_tokens(self):
        assert texts("a\t b \r\n c") == ["a", "b", "c"]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("@")

    def test_unterminated_string(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("'oops")

    def test_string_may_not_span_lines(self):
        with pytest.raises(LexError):
            tokenize("'one\ntwo'")

    def test_error_reports_position(self):
        with pytest.raises(LexError, match="line 2"):
            tokenize("ok\n  @")


class TestCharacterClasses:
    """Identifiers and integers are ASCII; other characters are errors
    outside strings and comments."""

    @pytest.mark.parametrize("char", ["é", "Ω", "ß"])
    def test_non_ascii_letters_are_not_identifier_characters(self, char):
        with pytest.raises(LexError, match="line 1, column 3"):
            tokenize(f"ab{char}")
        with pytest.raises(LexError, match="line 2, column 1"):
            tokenize(f"ok\n{char}x")

    @pytest.mark.parametrize("char", ["²", "٣", "５"])
    def test_non_ascii_digits_are_not_integers(self, char):
        with pytest.raises(LexError, match=f"unexpected character '{char}'"):
            tokenize(f"F(N) = {char}")
        with pytest.raises(LexError):
            tokenize(f"x{char}")

    def test_non_ascii_text_in_strings_and_comments(self):
        tokens = tokenize("'é²' -- Φ⁻¹ ²\nA")
        assert [(t.kind, t.text) for t in tokens] == [
            (TokenKind.STRING, "é²"),
            (TokenKind.IDENT, "A"),
            (TokenKind.EOF, ""),
        ]

    def test_ascii_identifier_characters(self):
        assert texts("_a.B9? z_") == ["_a.B9?", "z_"]
        assert texts("9lives") == ["9", "lives"]


class TestTokens:
    def test_tokens_are_immutable_records(self):
        token = tokenize("NEW")[0]
        assert (token.kind, token.text, token.line, token.column) == (
            TokenKind.IDENT, "NEW", 1, 1
        )
        assert token == Token(TokenKind.IDENT, "NEW", 1, 1)
        with pytest.raises(AttributeError):
            token.text = "OLD"


def reference_tokenize(source):
    """A character-at-a-time lexer for the same token grammar: the
    oracle for the regex lexer."""
    punctuation = {
        ":": TokenKind.COLON, ",": TokenKind.COMMA, "=": TokenKind.EQUALS,
        "(": TokenKind.LPAREN, ")": TokenKind.RPAREN,
        "[": TokenKind.LBRACKET, "]": TokenKind.RBRACKET,
    }
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
    digits = "0123456789"
    tokens, line, column, i = [], 1, 1, 0
    while i < len(source):
        char, start = source[i], column
        if char == "\n":
            line, column, i = line + 1, 1, i + 1
            continue
        if char in " \t\r":
            j = i + 1
        elif source.startswith("--", i):
            j = source.find("\n", i)
            j = len(source) if j < 0 else j
        elif source.startswith("->", i):
            j = i + 2
            tokens.append(Token(TokenKind.ARROW, "->", line, start))
        elif char in punctuation:
            j = i + 1
            tokens.append(Token(punctuation[char], char, line, start))
        elif char in "'\"":
            j = i + 1
            while j < len(source) and source[j] not in (char, "\n"):
                j += 1
            if j == len(source) or source[j] == "\n":
                raise LexError(f"unterminated string at line {line}, column {start}")
            j += 1
            tokens.append(Token(TokenKind.STRING, source[i + 1 : j - 1], line, start))
        elif char in digits:
            j = i
            while j < len(source) and source[j] in digits:
                j += 1
            tokens.append(Token(TokenKind.INT, source[i:j], line, start))
        elif char in letters:
            j = i
            while j < len(source) and source[j] in letters + digits + ".":
                j += 1
            if j < len(source) and source[j] == "?":
                j += 1
            tokens.append(Token(TokenKind.IDENT, source[i:j], line, start))
        else:
            raise LexError(
                f"unexpected character {char!r} at line {line}, column {start}"
            )
        column += j - i
        i = j
    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens


def _outcome(lex, source):
    try:
        return lex(source)
    except LexError as exc:
        return str(exc)


_SPECS = pathlib.Path(__file__).resolve().parents[2] / "specs"
_FILES = sorted(_SPECS.glob("*.spec")) + sorted((_SPECS / "programs").glob("*"))


@pytest.mark.parametrize("path", _FILES, ids=lambda p: p.name)
def test_token_for_token_on_repository_files(path):
    source = path.read_text()
    # Block programs use characters the DSL does not; the two lexers
    # must then fail alike.  Line by line, the lines that do lex are
    # compared too.
    assert _outcome(tokenize, source) == _outcome(reference_tokenize, source)
    for line in source.splitlines():
        assert _outcome(tokenize, line) == _outcome(reference_tokenize, line)
