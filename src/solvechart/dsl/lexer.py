"""Lexer for the solution DSL.

The language is layout-sensitive: block structure is carried by synthesized
INDENT and DEDENT tokens maintained with an indent stack, the way Python's own
tokenizer does it.  Comments run from ``#`` to end of line and are discarded.
Blank lines and comment-only lines produce no tokens at all, so they never
disturb indentation tracking.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .errors import LexError, ParseError

__all__ = ["Token", "TokenKind", "tokenize", "decode_string"]


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    NUMBER = "number-literal"
    STRING = "string-literal"
    OPERATOR = "operator"
    KEYWORD = "keyword"
    NEWLINE = "newline"
    INDENT = "indent"
    DEDENT = "dedent"
    END = "end"


# A named tuple: every lexed program builds one per token, and a tuple builds
# in about half the time of a frozen dataclass.
class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    line: int
    column: int


KEYWORDS = frozenset({"if", "elif", "else", "and", "or", "not", "True", "False"})

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

# The tokenizer recipe of the `re` docs: one alternative per group, tried in
# order after the spaces before each token of a line's content, so
# two-character operators come before their prefixes; one match is one token
# and its spaces.  The line's trailing spaces are cut off first, since spaces
# with no token after them would match ERROR.  A string literal runs up to its
# closing quote, or else up to its first error as UNTERMINATED.  A run of word
# characters (str.isalnum or "_") is a KEYWORD if it is one, an IDENTIFIER if
# it starts with an ASCII letter or "_", and otherwise a WORD, which tokenize
# rejects unless its first character is a letter.  ERROR catches the one
# character at which no token starts.
_STRING_BODY = r'"[^"\\]*(?:\\[' + re.escape("".join(_ESCAPES)) + r'][^"\\]*)*'
_TOKEN_PATTERN = re.compile(" *(?:" + "|".join(f"(?P<{group}>{pattern})" for group, pattern in (
    ("COMMENT", r"#.*"),
    ("STRING", _STRING_BODY + '"'),
    ("UNTERMINATED", _STRING_BODY),
    ("NUMBER", r"\d+(?:\.\d+)?"),
    ("KEYWORD", "(?:" + "|".join(sorted(KEYWORDS)) + r")(?!\w)"),
    ("IDENTIFIER", r"[A-Za-z_]\w*"),
    ("WORD", r"\w+"),
    ("OPERATOR", r"==|!=|<=|>=|//|[-+*/%<>=()\[\],:]"),
    ("ERROR", r"."),
)) + ")")
_ESCAPE_PATTERN = re.compile(r"\\(.)")
# Token kind by pattern group name, None for a match that is no token: a dict
# lookup is several times cheaper than TokenKind[name].
_GROUP_KINDS = {
    **{kind.name: kind for kind in TokenKind},
    "WORD": TokenKind.IDENTIFIER, "COMMENT": None, "UNTERMINATED": None, "ERROR": None,
}


def _lex_error(line: str, match: re.Match[str], line_number: int) -> LexError:
    """The error for a match that is no token: an unterminated string, or else
    an illegal character at its start."""
    group = match.lastgroup
    start, stop = match.span(group)
    if group != "UNTERMINATED":
        return LexError(f"illegal character {line[start]!r}", line_number, start + 1)
    if line[stop:stop + 1] == "\\" and stop + 1 < len(line):
        return LexError(f"invalid escape sequence '\\{line[stop + 1]}'", line_number, stop + 2)
    return LexError("unterminated string literal", line_number, start + 1)


class _LineLexer:
    """Lexes text one line at a time into one token stream; a line's own
    tokens do not depend on the lines above it, only the INDENT or DEDENTs
    before them do."""

    def __init__(self) -> None:
        self.tokens: list[Token] = []
        self._indents = [0]

    def line(self, raw_line: str, line_number: int) -> int | None:
        """Appends the tokens of one line, which holds no newline.

        Returns the index in `tokens` of the line's first token after its
        INDENT or DEDENTs, or None for a blank or comment-only line, which
        adds none.  Raises LexError for a tab in the indentation, an illegal
        character, a bad escape or an unterminated string literal, and
        ParseError for an unindent that matches no outer level.
        """
        line = raw_line.rstrip("\r")
        code = line.rstrip(" ")
        content = code.lstrip(" ")
        width = len(code) - len(content)
        if content.startswith("\t"):
            raise LexError("tab character in indentation", line_number, width + 1)
        # Blank, or a comment after other white space: the first non-white character decides.
        if content.lstrip()[:1] in ("", "#"):
            return None
        tokens = self.tokens
        indents = self._indents
        # tuple.__new__ is all that Token(...) calls, without its Python frame.
        new = tuple.__new__
        column = width + 1
        if width > indents[-1]:
            indents.append(width)
            tokens.append(new(Token, (TokenKind.INDENT, "", line_number, column)))
        else:
            while width < indents[-1]:
                indents.pop()
                tokens.append(new(Token, (TokenKind.DEDENT, "", line_number, column)))
            if width != indents[-1]:
                raise ParseError("unindent does not match any outer level", line_number, column)
        head = len(tokens)
        for match in _TOKEN_PATTERN.finditer(code, width):
            group = match.lastgroup
            kind = _GROUP_KINDS[group]
            if kind is None:
                if group == "COMMENT":
                    break
                raise _lex_error(line, match, line_number)
            lexeme = match.group(group)
            if group == "WORD" and not lexeme[0].isalpha():
                raise _lex_error(line, match, line_number)
            tokens.append(new(Token, (kind, lexeme, line_number, match.start(group) + 1)))
        tokens.append(new(Token, (TokenKind.NEWLINE, "\n", line_number, len(line) + 1)))
        return head

    def end(self, line_number: int) -> list[Token]:
        """Closes the open blocks, appends END on `line_number` and returns the stream."""
        tokens = self.tokens
        while self._indents[-1] > 0:
            self._indents.pop()
            tokens.append(Token(TokenKind.DEDENT, "", line_number, 1))
        tokens.append(Token(TokenKind.END, "", line_number, 1))
        return tokens


def tokenize(source: str) -> list[Token]:
    """Tokenizes program text into a flat stream ending with an END token.

    Raises LexError for illegal characters, bad escapes, and unterminated
    string literals; ParseError for inconsistent dedents.  Every accepted
    stream has balanced INDENT/DEDENT pairs and non-decreasing positions.
    """
    lexer = _LineLexer()
    lines = source.split("\n")
    for line_number, raw_line in enumerate(lines, 1):
        lexer.line(raw_line, line_number)
    return lexer.end(len(lines) + 1)


def decode_string(lexeme: str) -> str:
    """Decodes a STRING token's raw lexeme (quotes included) to its value."""
    if "\\" not in lexeme:
        return lexeme[1:-1]
    return _ESCAPE_PATTERN.sub(lambda match: _ESCAPES[match.group(1)], lexeme[1:-1])
