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
    "CALLEES",
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

# The callable surface is closed: two agent operators plus five builtins.
AGENT_CALLEES = frozenset({"ASK", "SUBSTEP"})
BUILTIN_CALLEES = frozenset({"abs", "min", "max", "sum", "round"})
CALLEES = AGENT_CALLEES | BUILTIN_CALLEES

ANSWER_VARIABLE = "answer"


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

