"""Recursive-descent parser and static validation for solution programs.

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
"""

from __future__ import annotations

import math

from .errors import ParseError
from .lexer import Token, TokenKind, decode_string, tokenize
from .nodes import (
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

__all__ = ["MAX_DEPTH", "UNASSIGNED_WARNING", "parse_program", "make_program"]

# Deepest nesting accepted: the most levels on a path from a statement down to
# a leaf, where each if block, parenthesis, bracket, call, unary operator and
# binary operator on the path is a level.  The formatter and the engine
# recurse on the tree, so this keeps them well inside Python's recursion limit.
MAX_DEPTH = 100

# Builtins with a fixed argument count; the variadic ones need at least one.
_EXACT_ARITY = {"ASK": 1, "SUBSTEP": 1, "abs": 1, "round": 1}


class _Parser:
    """Parses `tokens` from index `start`.  On a ParseError, `head` is the
    index of the first token of the top-level statement that failed."""

    def __init__(self, tokens: list[Token], start: int = 0) -> None:
        self.tokens = tokens
        self.pos = start
        self.head = start
        self.depth = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.END:
            self.pos += 1
        return token

    def _check(self, kind: TokenKind, lexeme: str | None = None) -> bool:
        token = self._peek()
        if token.kind is not kind:
            return False
        return lexeme is None or token.lexeme == lexeme

    def _match(self, kind: TokenKind, lexeme: str | None = None) -> Token | None:
        if self._check(kind, lexeme):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, lexeme: str | None = None, what: str | None = None) -> Token:
        token = self._peek()
        if self._check(kind, lexeme):
            return self._advance()
        wanted = what or (lexeme if lexeme is not None else kind.value)
        found = token.lexeme or token.kind.value
        raise ParseError(f"expected {wanted}, found {found!r}", token.line, token.column)

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

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
        while not self._check(TokenKind.END):
            self.head = self.pos
            statements.append(self._statement())
        return tuple(statements)

    def _statement(self) -> Statement:
        if self._check(TokenKind.KEYWORD, "if"):
            return self._if_statement()
        if self._check(TokenKind.IDENTIFIER):
            name = self._advance()
            self._expect(TokenKind.OPERATOR, "=")
            expr, _ = self._expression()
            self._expect(TokenKind.NEWLINE, what="end of line")
            return Assignment(name.lexeme, expr)
        raise self._error("expected a statement")

    def _if_statement(self) -> If:
        self._enter(self._expect(TokenKind.KEYWORD, "if"))
        branches = [(self._expression_then_colon(), self._block())]
        while self._check(TokenKind.KEYWORD, "elif"):
            self._advance()
            branches.append((self._expression_then_colon(), self._block()))
        else_body = None
        if self._match(TokenKind.KEYWORD, "else"):
            self._expect(TokenKind.OPERATOR, ":")
            else_body = self._block()
        self.depth -= 1
        return If(tuple(branches), else_body)

    def _expression_then_colon(self) -> Expression:
        condition, _ = self._expression()
        self._expect(TokenKind.OPERATOR, ":")
        return condition

    def _block(self) -> tuple[Statement, ...]:
        self._expect(TokenKind.NEWLINE, what="end of line")
        self._expect(TokenKind.INDENT, what="an indented block")
        statements = [self._statement()]
        while not self._check(TokenKind.DEDENT):
            statements.append(self._statement())
        self._advance()
        return tuple(statements)

    # -- expressions --------------------------------------------------------

    # Each expression method returns the expression and its height: the most
    # nesting levels on a path down from it.  `depth` counts the levels open
    # above the current token, checked as each opens; this bounds the
    # parser's own recursion.  A binary operator is known only after its left
    # operand is built, so its level is checked from the height it builds.

    def _expression(self, minimum: int = 0) -> tuple[Expression, int]:
        """Precedence climbing: one expression whose operators bind at least `minimum`.

        Operators are looked up by lexeme alone: no other token has one of
        theirs, as a string's lexeme keeps its quotes and a keyword is never
        an identifier.
        """
        token = self._peek()
        prefix = UNARY_PRECEDENCE.get(token.lexeme)
        if prefix is not None and prefix >= minimum:
            self._enter(self._advance())
            operand, height = self._expression(prefix)
            self.depth -= 1
            left: Expression = Unary(token.lexeme, operand)
            height += 1
        else:
            left, height = self._atom()
        while True:
            precedence = BINARY_PRECEDENCE.get(self._peek().lexeme)
            if precedence is None or precedence < minimum:
                break
            op = self._advance()
            self._enter(op)
            right, right_height = self._expression(precedence + 1)
            self.depth -= 1
            height = 1 + max(height, right_height)
            self._check_depth(op, self.depth + height)
            left = Binary(op.lexeme, left, right)
        return left, height

    def _atom(self) -> tuple[Expression, int]:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            value = float(token.lexeme)
            if not math.isfinite(value):
                raise self._error("number literal is too large")
            self._advance()
            return NumberLit(value), 0
        if token.kind is TokenKind.STRING:
            self._advance()
            return StringLit(decode_string(token.lexeme)), 0
        if token.kind is TokenKind.KEYWORD and token.lexeme in ("True", "False"):
            self._advance()
            return BoolLit(token.lexeme == "True"), 0
        if token.kind is TokenKind.IDENTIFIER:
            self._advance()
            if self._check(TokenKind.OPERATOR, "("):
                return self._call(token)
            return Identifier(token.lexeme), 0
        if self._check(TokenKind.OPERATOR, "("):
            self._enter(self._advance())
            inner, height = self._expression()
            self._expect(TokenKind.OPERATOR, ")")
            self.depth -= 1
            return inner, height + 1
        if self._check(TokenKind.OPERATOR, "["):
            items, height = self._sequence(self._advance(), "]")
            return ListLit(items), height
        raise self._error(f"expected an expression, found {token.lexeme or token.kind.value!r}")

    def _call(self, name: Token) -> tuple[Expression, int]:
        if name.lexeme not in CALLEES:
            raise ParseError(f"unknown callee {name.lexeme!r}", name.line, name.column)
        args, height = self._sequence(self._expect(TokenKind.OPERATOR, "("), ")")
        exact = _EXACT_ARITY.get(name.lexeme)
        if exact is not None and len(args) != exact:
            raise ParseError(
                f"{name.lexeme} takes exactly {exact} argument{'s' if exact != 1 else ''}, got {len(args)}",
                name.line, name.column,
            )
        if exact is None and not args:
            raise ParseError(f"{name.lexeme} needs at least one argument", name.line, name.column)
        return Call(name.lexeme, args), height

    def _sequence(self, opener: Token, closer: str) -> tuple[tuple[Expression, ...], int]:
        """The comma-separated expressions after `opener`, through `closer`."""
        self._enter(opener)
        items: list[Expression] = []
        height = 0
        if not self._check(TokenKind.OPERATOR, closer):
            while True:
                item, item_height = self._expression()
                items.append(item)
                height = max(height, item_height)
                if not self._match(TokenKind.OPERATOR, ","):
                    break
        self._expect(TokenKind.OPERATOR, closer)
        self.depth -= 1
        return tuple(items), height + 1


# -- validation --------------------------------------------------------------

UNASSIGNED_WARNING = f"program may finish without assigning '{ANSWER_VARIABLE}'"


def _always_assigns_answer(statements: tuple[Statement, ...]) -> bool:
    for stmt in statements:
        if isinstance(stmt, Assignment):
            if stmt.target == ANSWER_VARIABLE:
                return True
        elif isinstance(stmt, If) and stmt.else_body is not None:
            all_arms = all(_always_assigns_answer(body) for _, body in stmt.branches)
            if all_arms and _always_assigns_answer(stmt.else_body):
                return True
    return False


def _validate(statements: tuple[Statement, ...]) -> tuple[str, ...]:
    warnings: list[str] = []
    if not _always_assigns_answer(statements):
        warnings.append(UNASSIGNED_WARNING)
    settled = False
    for stmt in statements:
        if settled:
            warnings.append(f"unreachable statements after an unconditional '{ANSWER_VARIABLE}' assignment")
            break
        if isinstance(stmt, Assignment):
            settled = stmt.target == ANSWER_VARIABLE
        else:
            settled = _always_assigns_answer((stmt,))
    return tuple(warnings)


def make_program(statements: tuple[Statement, ...]) -> SolutionProgram:
    """Builds a program from statements, deriving its warnings."""
    return SolutionProgram(statements, warnings=_validate(statements))


def parse_program(source: str) -> SolutionProgram:
    """Parses program text; the result carries the static-validation warnings."""
    parser = _Parser(tokenize(source))
    return make_program(parser.parse())
