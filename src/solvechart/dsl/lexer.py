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

__all__ = ["Token", "TokenKind", "KEYWORDS", "LineLexer", "tokenize", "decode_string"]


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
# order at each position of a line's content, so two-character operators come
# before their prefixes.  STRING runs up to its closing quote or its first
# error; without CLOSE it is no token.  IDENTIFIER is any run of word
# characters (str.isalnum or "_"); tokenize rejects one whose first character
# is neither a letter nor "_".  ERROR catches the one character at which no
# token starts.
_TOKEN_PATTERN = re.compile("|".join(f"(?P<{group}>{pattern})" for group, pattern in (
    ("SPACE", r" +"),
    ("COMMENT", r"#.*"),
    ("STRING", r'"[^"\\]*(?:\\[' + re.escape("".join(_ESCAPES)) + r'][^"\\]*)*(?P<CLOSE>")?'),
    ("NUMBER", r"\d+(?:\.\d+)?"),
    ("IDENTIFIER", r"\w+"),
    ("OPERATOR", r"==|!=|<=|>=|//|[-+*/%<>=()\[\],:]"),
    ("ERROR", r"."),
)))
_ESCAPE_PATTERN = re.compile(r"\\(.)")
# Token kind by name, looked up by pattern group name or "KEYWORD": a dict
# lookup is several times cheaper than TokenKind[name].
_KINDS = {kind.name: kind for kind in TokenKind}


def _lex_error(line: str, match: re.Match[str], line_number: int) -> LexError:
    """The error for a match that is no token: a string without CLOSE, or else
    an illegal character at its start."""
    start, stop = match.span()
    if match.lastgroup != "STRING":
        return LexError(f"illegal character {line[start]!r}", line_number, start + 1)
    if line[stop:stop + 1] == "\\" and stop + 1 < len(line):
        return LexError(f"invalid escape sequence '\\{line[stop + 1]}'", line_number, stop + 2)
    return LexError("unterminated string literal", line_number, start + 1)


class LineLexer:
    """Lexes text one line at a time into one token stream.

    A line's own tokens do not depend on the lines above it; only the INDENT
    or DEDENTs before them do.  After a line of width 0 the indent stack is
    back at its bottom, so from that line's first own token on, the stream
    holds what tokenize gives for the text from that line on, line numbers
    apart.
    """

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
        content = line.lstrip(" ")
        width = len(line) - len(content)
        if content.startswith("\t"):
            raise LexError("tab character in indentation", line_number, width + 1)
        stripped = content.strip()
        if not stripped or stripped.startswith("#"):
            return None
        tokens = self.tokens
        indents = self._indents
        column = width + 1
        if width > indents[-1]:
            indents.append(width)
            tokens.append(Token(TokenKind.INDENT, "", line_number, column))
        else:
            while width < indents[-1]:
                indents.pop()
                tokens.append(Token(TokenKind.DEDENT, "", line_number, column))
            if width != indents[-1]:
                raise ParseError("unindent does not match any outer level", line_number, column)
        head = len(tokens)
        # tuple.__new__ is all that Token(...) calls, without its Python frame.
        new = tuple.__new__
        for match in _TOKEN_PATTERN.finditer(line, width):
            group = match.lastgroup
            if group == "SPACE" or group == "COMMENT":
                continue
            if group == "ERROR" or group == "STRING" and match.group("CLOSE") is None:
                raise _lex_error(line, match, line_number)
            lexeme = match.group()
            if group == "IDENTIFIER":
                if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                    raise _lex_error(line, match, line_number)
                if lexeme in KEYWORDS:
                    group = "KEYWORD"
            tokens.append(new(Token, (_KINDS[group], lexeme, line_number, match.start() + 1)))
        tokens.append(Token(TokenKind.NEWLINE, "\n", line_number, len(line) + 1))
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
    lexer = LineLexer()
    lines = source.split("\n")
    for line_number, raw_line in enumerate(lines, 1):
        lexer.line(raw_line, line_number)
    return lexer.end(len(lines) + 1)


def decode_string(lexeme: str) -> str:
    """Decodes a STRING token's raw lexeme (quotes included) to its value."""
    return _ESCAPE_PATTERN.sub(lambda match: _ESCAPES[match.group(1)], lexeme[1:-1])
