"""Solution-program DSL: lexer, parser, canonical formatter, and validation."""

from __future__ import annotations

from .errors import LexError, ParseError
from .formatter import format_expression, format_program
from .lexer import Token, TokenKind, tokenize
from .nodes import (
    AGENT_CALLEES,
    CALLEES,
    Assignment,
    Binary,
    BoolLit,
    Call,
    Expression,
    Identifier,
    If,
    ListLit,
    NumberLit,
    SolutionProgram,
    Statement,
    StringLit,
    Unary,
)
from .parser import make_program, parse_program, parse_suffix

__all__ = [
    "AGENT_CALLEES",
    "CALLEES",
    "Assignment",
    "Binary",
    "BoolLit",
    "Call",
    "Expression",
    "Identifier",
    "If",
    "LexError",
    "ListLit",
    "NumberLit",
    "ParseError",
    "SolutionProgram",
    "Statement",
    "StringLit",
    "Token",
    "TokenKind",
    "Unary",
    "format_expression",
    "format_program",
    "make_program",
    "parse_program",
    "parse_suffix",
    "tokenize",
]
