from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvechart.dsl.errors import LexError, ParseError
from solvechart.dsl.lexer import Token, TokenKind, decode_string, tokenize


def kinds(tokens: list[Token]) -> list[str]:
    return [token.kind.value for token in tokens]


def test_simple_assignment_token_stream():
    tokens = tokenize('x = ASK("q")')
    assert kinds(tokens) == [
        "identifier",
        "operator",
        "identifier",
        "operator",
        "string-literal",
        "operator",
        "newline",
        "end",
    ]
    assert [t.lexeme for t in tokens[:6]] == ["x", "=", "ASK", "(", '"q"', ")"]


def test_block_produces_indent_and_dedent():
    tokens = tokenize('if a > 0:\n    answer = "yes"')
    stream = kinds(tokens)
    assert "indent" in stream
    assert "dedent" in stream
    assert stream.index("indent") > stream.index("newline")
    # Dedents are synthesized before the end token.
    assert stream[-1] == "end"
    assert "dedent" in stream[stream.index("indent"):]


def test_indent_dedent_balanced():
    source = 'if a:\n    if b:\n        x = 1\n    y = 2\nz = 3\n'
    tokens = tokenize(source)
    stream = kinds(tokens)
    assert stream.count("indent") == stream.count("dedent") == 2


def test_unterminated_string_is_lex_error():
    with pytest.raises(LexError) as err:
        tokenize('v = "unterminated')
    assert err.value.line == 1


def test_illegal_character_reports_position():
    with pytest.raises(LexError) as err:
        tokenize("x = 1 $ 2")
    assert err.value.line == 1
    assert err.value.column == 7


def test_non_decimal_digit_is_illegal_character():
    # str.isdigit() accepts "²", float() does not: it must not reach a number.
    with pytest.raises(LexError, match="illegal character '²'") as err:
        tokenize("answer = 2²")
    assert (err.value.line, err.value.column) == (1, 11)


def test_tab_indentation_rejected():
    with pytest.raises(LexError):
        tokenize('if a:\n\tx = 1')


def test_inconsistent_dedent_rejected():
    source = 'if a:\n        x = 1\n    y = 2\n'
    with pytest.raises(ParseError):
        tokenize(source)


def test_comments_and_blank_lines_are_discarded():
    source = '# leading note\nx = 1  # trailing note\n\n   \ny = 2\n'
    tokens = tokenize(source)
    lexemes = [t.lexeme for t in tokens if t.kind not in (TokenKind.NEWLINE, TokenKind.END)]
    assert lexemes == ["x", "=", "1", "y", "=", "2"]


def test_keywords_are_distinct_from_identifiers():
    tokens = tokenize("if x and not y:\n    z = True")
    keyword_lexemes = [t.lexeme for t in tokens if t.kind == TokenKind.KEYWORD]
    assert keyword_lexemes == ["if", "and", "not", "True"]


def test_two_char_operators_lex_whole():
    tokens = tokenize("a = 1 <= 2 != 3 // 4")
    ops = [t.lexeme for t in tokens if t.kind == TokenKind.OPERATOR]
    assert ops == ["=", "<=", "!=", "//"]


def test_string_escapes_decode():
    tokens = tokenize(r'x = "a\nb\t\"c\\"')
    literal = next(t for t in tokens if t.kind == TokenKind.STRING)
    assert decode_string(literal.lexeme) == 'a\nb\t"c\\'


def test_invalid_escape_rejected():
    with pytest.raises(LexError):
        tokenize(r'x = "\q"')


def test_number_without_leading_digit_rejected():
    with pytest.raises(LexError):
        tokenize("x = .5")


def test_positions_cover_lines():
    tokens = tokenize("a = 1\nb = 2\n")
    assert tokens[0].line == 1
    b_token = next(t for t in tokens if t.lexeme == "b")
    assert b_token.line == 2
    assert b_token.column == 1


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_any_text_lexes_or_errors_cleanly(source: str):
    """Arbitrary text either raises a located lex error or yields a stream
    with balanced layout tokens and non-decreasing positions."""
    try:
        tokens = tokenize(source)
    except (LexError, ParseError) as err:
        assert err.line >= 1
        assert err.column >= 1
        return
    stream = kinds(tokens)
    assert stream[-1] == "end"
    assert stream.count("indent") == stream.count("dedent")
    positions = [(t.line, t.column) for t in tokens]
    assert positions == sorted(positions)
