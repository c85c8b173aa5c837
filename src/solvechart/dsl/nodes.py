"""AST node types for solution programs.

All nodes are frozen dataclasses holding tuples, so structural equality is
dataclass equality and parsed programs are safe to share.  A program's
warnings are bookkeeping, not structure, and are excluded from comparison:
two programs are equal iff their statements are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

__all__ = [
    "AGENT_CALLEES",
    "BINARY_PRECEDENCE",
    "CALLEES",
    "UNARY_PRECEDENCE",
    "Assignment",
    "Binary",
    "BoolLit",
    "Call",
    "Expression",
    "Identifier",
    "If",
    "ListLit",
    "NumberLit",
    "SolutionProgram",
    "Statement",
    "StringLit",
    "Unary",
]

# The closed callable surface: each callee's argument count, None for a variadic
# one (at least one argument).  Agent operators are spelled in capitals.
CALLEES = {"ASK": 1, "SUBSTEP": 1, "abs": 1, "round": 1, "min": None, "max": None, "sum": None}
AGENT_CALLEES = frozenset(filter(str.isupper, CALLEES))

ANSWER_VARIABLE = "answer"

# Binding strength, loosest first; the parser and the formatter both read
# these.  Binary operators are left-associative, so a right operand at the
# same level needs parentheses.  A unary operator's operand binds at its own
# level: "not" takes a comparison, "-" only another unary or an atom.
BINARY_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "//": 6, "%": 6,
}
UNARY_PRECEDENCE = {"not": 3, "-": 7}


@dataclass(frozen=True)
class NumberLit:
    value: float


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Identifier:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "not"
    operand: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class ListLit:
    items: tuple["Expression", ...]


@dataclass(frozen=True)
class Call:
    callee: str
    args: tuple["Expression", ...]


Expression = Union[NumberLit, StringLit, BoolLit, Identifier, Unary, Binary, ListLit, Call]


@dataclass(frozen=True)
class Assignment:
    target: str
    expr: Expression


@dataclass(frozen=True)
class If:
    # One entry per if/elif arm; arms and bodies are never empty.
    branches: tuple[tuple[Expression, tuple["Statement", ...]], ...]
    else_body: tuple["Statement", ...] | None = None


Statement = Union[Assignment, If]


@dataclass(frozen=True)
class SolutionProgram:
    statements: tuple[Statement, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

