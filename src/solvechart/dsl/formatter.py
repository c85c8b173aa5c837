"""Canonical pretty-printer for solution programs.

The canonical form uses four-space indentation, one statement per line, and
the minimal parentheses forced by precedence.  Formatting then reparsing
yields a structurally equal AST, and formatting is idempotent, so the
canonical text is a stable identity for a program.
"""

from __future__ import annotations

from .nodes import (
    BINARY_PRECEDENCE,
    UNARY_PRECEDENCE,
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

__all__ = ["format_expression", "format_program", "format_string"]

_INDENT = "    "
_ATOM_PRECEDENCE = 9

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    # Shortest fixed-point form that parses back to the same float.  The DSL
    # has no exponent syntax, so scientific notation is never emitted.
    for precision in range(1, 1080):
        text = f"{value:.{precision}f}"
        if float(text) == value:
            return text
    raise ValueError(f"cannot format number {value!r}")


def format_string(value: str) -> str:
    """value as a DSL string literal: double-quoted, with backslash escapes."""
    for char, escape in _STRING_ESCAPES.items():  # the backslash first, so no escape is escaped twice
        value = value.replace(char, escape)
    return f'"{value}"'


def _expr(node: Expression, minimum: int) -> str:
    precedence, text = _render(node)
    if precedence < minimum:
        return f"({text})"
    return text


def _render(node: Expression) -> tuple[int, str]:
    if isinstance(node, NumberLit):
        return _ATOM_PRECEDENCE, _format_number(node.value)
    if isinstance(node, StringLit):
        return _ATOM_PRECEDENCE, format_string(node.value)
    if isinstance(node, BoolLit):
        return _ATOM_PRECEDENCE, "True" if node.value else "False"
    if isinstance(node, Identifier):
        return _ATOM_PRECEDENCE, node.name
    if isinstance(node, ListLit):
        items = ", ".join(_expr(item, 0) for item in node.items)
        return _ATOM_PRECEDENCE, f"[{items}]"
    if isinstance(node, Call):
        args = ", ".join(_expr(arg, 0) for arg in node.args)
        return _ATOM_PRECEDENCE, f"{node.callee}({args})"
    if isinstance(node, Unary):
        precedence = UNARY_PRECEDENCE[node.op]
        separator = " " if node.op == "not" else ""
        return precedence, f"{node.op}{separator}{_expr(node.operand, precedence)}"
    if isinstance(node, Binary):
        precedence = BINARY_PRECEDENCE[node.op]
        left = _expr(node.left, precedence)
        right = _expr(node.right, precedence + 1)
        return precedence, f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


def format_expression(node: Expression) -> str:
    """Renders one expression with minimal parentheses."""
    return _expr(node, 0)


def _statement_lines(stmt: Statement, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(stmt, Assignment):
        return [f"{pad}{stmt.target} = {format_expression(stmt.expr)}"]
    if isinstance(stmt, If):
        lines: list[str] = []
        for index, (condition, body) in enumerate(stmt.branches):
            head = "if" if index == 0 else "elif"
            lines.append(f"{pad}{head} {format_expression(condition)}:")
            for child in body:
                lines.extend(_statement_lines(child, depth + 1))
        if stmt.else_body is not None:
            lines.append(f"{pad}else:")
            for child in stmt.else_body:
                lines.extend(_statement_lines(child, depth + 1))
        return lines
    raise TypeError(f"not a statement node: {stmt!r}")


def format_program(program: SolutionProgram) -> str:
    """Renders a program in canonical form; an empty program is empty text."""
    lines: list[str] = []
    for stmt in program.statements:
        lines.extend(_statement_lines(stmt, 0))
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
