"""Recursive-descent parser, static validation and the reply-suffix scan for solution programs.

Grammar sketch (layout tokens come from the lexer):

    program    : statement* END
    statement  : IDENT "=" expression NEWLINE
               | "if" expression ":" block ("elif" expression ":" block)*
                 ("else" ":" block)?
    block      : NEWLINE INDENT statement+ DEDENT
    expression : precedence climb over  or, and, not, comparisons,
                 + -, * / // %, unary -, atoms

Calls are restricted to a closed callee set; anything else is a parse error,
not a runtime one.

A token with a fixed spelling (an operator, a keyword or NEWLINE) is tested
by its lexeme alone: no other token has one of theirs, as a string's lexeme
keeps its quotes and an identifier is never a keyword.  Kinds are tested only
for identifiers, literals and the lexeme-less INDENT, DEDENT and END.
"""

from __future__ import annotations

import math

from ..errors import SolveChartError
from .errors import ParseError
from .lexer import Token, TokenKind, _LineLexer, decode_string, tokenize
from .nodes import (
    AGENT_CALLEES,
    ANSWER_VARIABLE,
    BINARY_PRECEDENCE,
    UNARY_PRECEDENCE,
    Assignment,
    Binary,
    BoolLit,
    CALLEES,
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

__all__ = ["MAX_AGENT_CALLS", "MAX_DEPTH", "UNASSIGNED_WARNING", "parse_program", "parse_suffix", "make_program"]

# Deepest nesting accepted: the most levels on a path from a statement down to
# a leaf, where each if block, parenthesis, bracket, call, unary operator and
# binary operator on the path is a level.  The formatter and the engine
# recurse on the tree, so this keeps them well inside Python's recursion limit.
MAX_DEPTH = 100

# Most ASK and SUBSTEP call sites in one program.  The language has no loops,
# so call sites bound the agent calls a run makes; the paper's programs make
# 1-4.  The engine's fallback ASK is not a call site.
MAX_AGENT_CALLS = 64


class _Parser:
    """Parses `tokens` from index `start`.  On a ParseError, `head` is the
    index of the first token of the top-level statement that failed."""

    def __init__(self, tokens: list[Token], start: int = 0) -> None:
        self.tokens = tokens
        self.pos = start
        self.head = start
        self.depth = 0
        self.agent_calls = 0

    # -- token plumbing -----------------------------------------------------

    def _take(self, lexeme: str) -> Token | None:
        """Consumes and returns the current token if it is spelled `lexeme`."""
        token = self.tokens[self.pos]
        if token.lexeme != lexeme:
            return None
        self.pos += 1
        return token

    def _expect(self, lexeme: str, what: str | None = None) -> Token:
        """Consumes and returns the current token, which must be spelled `lexeme`."""
        token = self._take(lexeme)
        if token is None:
            raise self._unexpected(what or lexeme)
        return token

    def _error(self, message: str) -> ParseError:
        token = self.tokens[self.pos]
        return ParseError(message, token.line, token.column)

    def _unexpected(self, what: str) -> ParseError:
        token = self.tokens[self.pos]
        return self._error(f"expected {what}, found {token.lexeme or token.kind.value!r}")

    def _check_depth(self, token: Token, levels: int) -> None:
        if levels > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", token.line, token.column)

    def _enter(self, token: Token) -> None:
        """Opens one nesting level at `token`; the caller restores `depth`."""
        self.depth += 1
        self._check_depth(token, self.depth)

    # -- statements ---------------------------------------------------------

    def parse(self) -> tuple[Statement, ...]:
        statements: list[Statement] = []
        while self.tokens[self.pos].kind is not TokenKind.END:
            self.head = self.pos
            statements.append(self._statement())
        if self.agent_calls > MAX_AGENT_CALLS:
            # Not a ParseError: the suffix scan must refuse this program, not fall back to a shorter suffix.
            raise SolveChartError(f"program has {self.agent_calls} agent call sites, more than {MAX_AGENT_CALLS}")
        return tuple(statements)

    def _statement(self) -> Statement:
        tokens, pos = self.tokens, self.pos
        token = tokens[pos]
        if token.lexeme == "if":
            return self._if_statement()
        if token.kind is not TokenKind.IDENTIFIER:
            raise self._error("expected a statement")
        # The paper's usual statement, `name = SUBSTEP("...")` or ASK, in one step: the tree, call count and
        # depth check of the general path below, which takes every other shape and raises every error.  Each
        # test passes only on a token that a NEWLINE follows, so no index runs past END.
        if (
            tokens[pos + 1].lexeme == "="
            and tokens[pos + 2].lexeme in AGENT_CALLEES
            and tokens[pos + 3].lexeme == "("
            and tokens[pos + 4].kind is TokenKind.STRING
            and tokens[pos + 5].lexeme == ")"
            and tokens[pos + 6].lexeme == "\n"
            and self.depth < MAX_DEPTH  # the call's parenthesis is one level
        ):
            self.pos = pos + 7
            self.agent_calls += 1
            question = StringLit(decode_string(tokens[pos + 4].lexeme))
            return Assignment(token.lexeme, Call(tokens[pos + 2].lexeme, (question,)))
        self.pos = pos + 1
        self._expect("=")
        expr, _ = self._expression()
        self._expect("\n", "end of line")
        return Assignment(token.lexeme, expr)

    def _if_statement(self) -> If:
        self._enter(self._expect("if"))
        branches = [(self._expression_then_colon(), self._block())]
        while self._take("elif"):
            branches.append((self._expression_then_colon(), self._block()))
        else_body = None
        if self._take("else"):
            self._expect(":")
            else_body = self._block()
        self.depth -= 1
        return If(tuple(branches), else_body)

    def _expression_then_colon(self) -> Expression:
        condition, _ = self._expression()
        self._expect(":")
        return condition

    def _block(self) -> tuple[Statement, ...]:
        self._expect("\n", "end of line")
        if self.tokens[self.pos].kind is not TokenKind.INDENT:
            raise self._unexpected("an indented block")
        self.pos += 1
        statements = [self._statement()]
        while self.tokens[self.pos].kind is not TokenKind.DEDENT:
            statements.append(self._statement())
        self.pos += 1
        return tuple(statements)

    # -- expressions --------------------------------------------------------

    # Each expression method returns the expression and its height: the most
    # nesting levels on a path down from it.  `depth` counts the levels open
    # above the current token, checked as each opens; this bounds the
    # parser's own recursion.  A binary operator is known only after its left
    # operand is built, so its level is checked from the height it builds.

    def _expression(self, minimum: int = 0) -> tuple[Expression, int]:
        """Precedence climbing: one expression whose operators bind at least `minimum`."""
        tokens = self.tokens
        token = tokens[self.pos]
        prefix = UNARY_PRECEDENCE.get(token.lexeme)
        if prefix is not None and prefix >= minimum:
            self.pos += 1
            self._enter(token)
            operand, height = self._expression(prefix)
            self.depth -= 1
            left: Expression = Unary(token.lexeme, operand)
            height += 1
        else:
            left, height = self._atom()
        while True:
            op = tokens[self.pos]
            precedence = BINARY_PRECEDENCE.get(op.lexeme)
            if precedence is None or precedence < minimum:
                break
            self.pos += 1
            self._enter(op)
            right, right_height = self._expression(precedence + 1)
            self.depth -= 1
            height = 1 + max(height, right_height)
            self._check_depth(op, self.depth + height)
            left = Binary(op.lexeme, left, right)
        return left, height

    def _atom(self) -> tuple[Expression, int]:
        token = self.tokens[self.pos]
        kind, lexeme = token.kind, token.lexeme
        if kind is TokenKind.NUMBER:
            value = float(lexeme)
            if not math.isfinite(value):
                raise self._error("number literal is too large")
            self.pos += 1
            return NumberLit(value), 0
        if kind is TokenKind.STRING:
            self.pos += 1
            return StringLit(decode_string(lexeme)), 0
        if kind is TokenKind.IDENTIFIER:
            self.pos += 1
            if self.tokens[self.pos].lexeme == "(":
                return self._call(token)
            return Identifier(lexeme), 0
        if lexeme == "True" or lexeme == "False":
            self.pos += 1
            return BoolLit(lexeme == "True"), 0
        if lexeme == "(":
            self.pos += 1
            self._enter(token)
            inner, height = self._expression()
            self._expect(")")
            self.depth -= 1
            return inner, height + 1
        if lexeme == "[":
            self.pos += 1
            items, height = self._sequence(token, "]")
            return ListLit(items), height
        raise self._unexpected("an expression")

    def _call(self, name: Token) -> tuple[Expression, int]:
        callee = name.lexeme
        if callee not in CALLEES:
            raise ParseError(f"unknown callee {callee!r}", name.line, name.column)
        args, height = self._sequence(self._expect("("), ")")
        arity = CALLEES[callee]
        if arity is None and not args:
            raise ParseError(f"{callee} needs at least one argument", name.line, name.column)
        if arity is not None and len(args) != arity:
            raise ParseError(
                f"{callee} takes exactly {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
                name.line, name.column,
            )
        if callee in AGENT_CALLEES:
            self.agent_calls += 1
        return Call(callee, args), height

    def _sequence(self, opener: Token, closer: str) -> tuple[tuple[Expression, ...], int]:
        """The comma-separated expressions after `opener`, through `closer`."""
        self._enter(opener)
        items: list[Expression] = []
        height = 0
        if self.tokens[self.pos].lexeme != closer:
            while True:
                item, item_height = self._expression()
                items.append(item)
                height = max(height, item_height)
                if not self._take(","):
                    break
        self._expect(closer)
        self.depth -= 1
        return tuple(items), height + 1


# -- validation --------------------------------------------------------------

UNASSIGNED_WARNING = f"program may finish without assigning '{ANSWER_VARIABLE}'"
_UNREACHABLE_WARNING = f"unreachable statements after an unconditional '{ANSWER_VARIABLE}' assignment"


def _assigns_answer(stmt: Statement) -> bool:
    """Whether every path through `stmt` assigns the answer variable."""
    if isinstance(stmt, Assignment):
        return stmt.target == ANSWER_VARIABLE
    if stmt.else_body is None:
        return False
    bodies = [body for _, body in stmt.branches] + [stmt.else_body]
    return all(any(map(_assigns_answer, body)) for body in bodies)


def make_program(statements: tuple[Statement, ...]) -> SolutionProgram:
    """Builds a program from statements, deriving its warnings.

    The first top-level statement that always assigns the answer variable
    settles both warnings: without one, the program may finish unassigned,
    and any statement after it is unreachable.
    """
    for index, stmt in enumerate(statements, 1):
        if _assigns_answer(stmt):
            return SolutionProgram(statements, warnings=(_UNREACHABLE_WARNING,) if index < len(statements) else ())
    return SolutionProgram(statements, warnings=(UNASSIGNED_WARNING,))


def parse_program(source: str) -> SolutionProgram:
    """Parses program text; the result carries the static-validation warnings."""
    parser = _Parser(tokenize(source))
    return make_program(parser.parse())


def parse_suffix(text: str) -> tuple[str, SolutionProgram] | None:
    """The longest suffix of `text` that parses as a non-empty program, blank
    and comment lines above its code kept, with that program, or None.  Over
    MAX_AGENT_CALLS call sites it raises, and does not try a shorter suffix.

    One scan, linear in the text, rests on one invariant: a line's tokens
    after its INDENT or DEDENTs do not depend on the lines above it, and a
    line of width 0 leaves the indent stack at its bottom.  So each line is
    lexed once into one stream, and a line that fails to lex fails every
    suffix through it and starts a fresh stream.  Only a line of width 0
    starts a suffix (any other opens with an INDENT), and from its first
    token on the stream is that suffix's own.  The parser keeps nothing
    between top-level statements that a ParseError depends on, so every
    start up to the line on which a failing statement begins fails the same
    way, and the scan resumes after that line.
    """
    lines = text.split("\n")
    # `floor` is the line after the last that failed to lex; `heads` holds the stream index of each start.
    lexer, floor, heads = _LineLexer(), 0, []
    for index, raw_line in enumerate(lines):
        try:
            head = lexer.line(raw_line, index + 1)
        except ParseError:
            lexer, floor, heads = _LineLexer(), index + 1, []
            continue
        if head is not None and not raw_line.startswith(" "):
            heads.append(head)
    tokens = lexer.end(len(lines) + 1)
    failed_line = 0
    for head in heads:
        if tokens[head].line <= failed_line:
            continue
        parser = _Parser(tokens, head)
        try:
            program = make_program(parser.parse())
        except ParseError:
            failed_line = tokens[parser.head].line
            continue
        # Back over this line's DEDENTs to the previous code line's NEWLINE: its 1-based number indexes the next line.
        previous = head - 1
        while previous >= 0 and tokens[previous].kind is TokenKind.DEDENT:
            previous -= 1
        return "\n".join(lines[tokens[previous].line if previous >= 0 else floor:]), program
    return None
