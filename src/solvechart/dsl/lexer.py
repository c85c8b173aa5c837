"""Lexer for the solution DSL.

The language is layout-sensitive: block structure is carried by synthesized
INDENT and DEDENT tokens maintained with an indent stack, the way Python's own
tokenizer does it.  Comments run from ``#`` to end of line and are discarded.
Blank lines and comment-only lines produce no tokens at all, so they never
disturb indentation tracking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import LexError, ParseError

__all__ = ["Token", "TokenKind", "KEYWORDS", "tokenize", "decode_string"]


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


@dataclass(frozen=True, slots=True)
class Token:
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


def _lex_error(line: str, match: re.Match[str], line_number: int) -> LexError:
    """The error for a match that is no token: a string without CLOSE, or else
    an illegal character at its start."""
    start, stop = match.span()
    if match.lastgroup != "STRING":
        return LexError(f"illegal character {line[start]!r}", line_number, start + 1)
    if line[stop:stop + 1] == "\\" and stop + 1 < len(line):
        return LexError(f"invalid escape sequence '\\{line[stop + 1]}'", line_number, stop + 2)
    return LexError("unterminated string literal", line_number, start + 1)


def tokenize(source: str) -> list[Token]:
    """Tokenizes program text into a flat stream ending with an END token.

    Raises LexError for illegal characters, bad escapes, and unterminated
    string literals; ParseError for inconsistent dedents.  Every accepted
    stream has balanced INDENT/DEDENT pairs and non-decreasing positions.
    """
    tokens: list[Token] = []
    indent_stack = [0]
    line_number = 0
    for raw_line in source.split("\n"):
        line_number += 1
        line = raw_line.rstrip("\r")
        content = line.lstrip(" ")
        width = len(line) - len(content)
        if content.startswith("\t"):
            raise LexError("tab character in indentation", line_number, width + 1)
        stripped = content.strip()
        if not stripped or stripped.startswith("#"):
            continue
        column = width + 1
        if width > indent_stack[-1]:
            indent_stack.append(width)
            tokens.append(Token(TokenKind.INDENT, "", line_number, column))
        else:
            while width < indent_stack[-1]:
                indent_stack.pop()
                tokens.append(Token(TokenKind.DEDENT, "", line_number, column))
            if width != indent_stack[-1]:
                raise ParseError("unindent does not match any outer level", line_number, column)
        for match in _TOKEN_PATTERN.finditer(line, width):
            group = match.lastgroup
            if group == "SPACE" or group == "COMMENT":
                continue
            if group == "ERROR" or group == "STRING" and match.group("CLOSE") is None:
                raise _lex_error(line, match, line_number)
            lexeme = match.group()
            kind = TokenKind[group]
            if kind is TokenKind.IDENTIFIER:
                if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                    raise _lex_error(line, match, line_number)
                if lexeme in KEYWORDS:
                    kind = TokenKind.KEYWORD
            tokens.append(Token(kind, lexeme, line_number, match.start() + 1))
        tokens.append(Token(TokenKind.NEWLINE, "\n", line_number, len(line) + 1))
    final_column = 1
    while indent_stack[-1] > 0:
        indent_stack.pop()
        tokens.append(Token(TokenKind.DEDENT, "", line_number + 1, final_column))
    tokens.append(Token(TokenKind.END, "", line_number + 1, final_column))
    return tokens


def decode_string(lexeme: str) -> str:
    """Decodes a STRING token's raw lexeme (quotes included) to its value."""
    return _ESCAPE_PATTERN.sub(lambda match: _ESCAPES[match.group(1)], lexeme[1:-1])
