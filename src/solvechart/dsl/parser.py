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

from .errors import ParseError
from .lexer import Token, TokenKind, decode_string, tokenize
from .nodes import (
    ANSWER_VARIABLE,
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

__all__ = ["parse_program", "make_program"]

_COMPARISON_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})
_ADDITIVE_OPS = frozenset({"+", "-"})
_MULTIPLICATIVE_OPS = frozenset({"*", "/", "//", "%"})

# Builtins with a fixed argument count; the variadic ones need at least one.
_EXACT_ARITY = {"ASK": 1, "SUBSTEP": 1, "abs": 1, "round": 1}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

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

    # -- statements ---------------------------------------------------------

    def parse(self) -> tuple[Statement, ...]:
        statements: list[Statement] = []
        while not self._check(TokenKind.END):
            statements.append(self._statement())
        return tuple(statements)

    def _statement(self) -> Statement:
        if self._check(TokenKind.KEYWORD, "if"):
            return self._if_statement()
        if self._check(TokenKind.IDENTIFIER):
            name = self._advance()
            self._expect(TokenKind.OPERATOR, "=")
            expr = self._expression()
            self._expect(TokenKind.NEWLINE, what="end of line")
            return Assignment(name.lexeme, expr)
        raise self._error("expected a statement")

    def _if_statement(self) -> If:
        self._expect(TokenKind.KEYWORD, "if")
        branches = [(self._expression_then_colon(), self._block())]
        while self._check(TokenKind.KEYWORD, "elif"):
            self._advance()
            branches.append((self._expression_then_colon(), self._block()))
        else_body = None
        if self._match(TokenKind.KEYWORD, "else"):
            self._expect(TokenKind.OPERATOR, ":")
            else_body = self._block()
        return If(tuple(branches), else_body)

    def _expression_then_colon(self) -> Expression:
        condition = self._expression()
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

    def _expression(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        left = self._and_expr()
        while self._check(TokenKind.KEYWORD, "or"):
            self._advance()
            left = Binary("or", left, self._and_expr())
        return left

    def _and_expr(self) -> Expression:
        left = self._not_expr()
        while self._check(TokenKind.KEYWORD, "and"):
            self._advance()
            left = Binary("and", left, self._not_expr())
        return left

    def _not_expr(self) -> Expression:
        if self._match(TokenKind.KEYWORD, "not"):
            return Unary("not", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expression:
        left = self._additive()
        while self._check(TokenKind.OPERATOR) and self._peek().lexeme in _COMPARISON_OPS:
            op = self._advance().lexeme
            left = Binary(op, left, self._additive())
        return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while self._check(TokenKind.OPERATOR) and self._peek().lexeme in _ADDITIVE_OPS:
            op = self._advance().lexeme
            left = Binary(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while self._check(TokenKind.OPERATOR) and self._peek().lexeme in _MULTIPLICATIVE_OPS:
            op = self._advance().lexeme
            left = Binary(op, left, self._unary())
        return left

    def _unary(self) -> Expression:
        if self._match(TokenKind.OPERATOR, "-"):
            return Unary("-", self._unary())
        return self._atom()

    def _atom(self) -> Expression:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return NumberLit(float(token.lexeme))
        if token.kind is TokenKind.STRING:
            self._advance()
            return StringLit(decode_string(token.lexeme))
        if token.kind is TokenKind.KEYWORD and token.lexeme in ("True", "False"):
            self._advance()
            return BoolLit(token.lexeme == "True")
        if token.kind is TokenKind.IDENTIFIER:
            self._advance()
            if self._check(TokenKind.OPERATOR, "("):
                return self._call(token)
            return Identifier(token.lexeme)
        if self._match(TokenKind.OPERATOR, "("):
            inner = self._expression()
            self._expect(TokenKind.OPERATOR, ")")
            return inner
        if self._match(TokenKind.OPERATOR, "["):
            return self._list_literal()
        raise self._error(f"expected an expression, found {token.lexeme or token.kind.value!r}")

    def _call(self, name: Token) -> Expression:
        if name.lexeme not in CALLEES:
            raise ParseError(f"unknown callee {name.lexeme!r}", name.line, name.column)
        self._expect(TokenKind.OPERATOR, "(")
        args: list[Expression] = []
        if not self._check(TokenKind.OPERATOR, ")"):
            args.append(self._expression())
            while self._match(TokenKind.OPERATOR, ","):
                args.append(self._expression())
        self._expect(TokenKind.OPERATOR, ")")
        exact = _EXACT_ARITY.get(name.lexeme)
        if exact is not None and len(args) != exact:
            raise ParseError(
                f"{name.lexeme} takes exactly {exact} argument{'s' if exact != 1 else ''}, got {len(args)}",
                name.line, name.column,
            )
        if exact is None and not args:
            raise ParseError(f"{name.lexeme} needs at least one argument", name.line, name.column)
        return Call(name.lexeme, tuple(args))

    def _list_literal(self) -> Expression:
        items: list[Expression] = []
        if not self._check(TokenKind.OPERATOR, "]"):
            items.append(self._expression())
            while self._match(TokenKind.OPERATOR, ","):
                items.append(self._expression())
        self._expect(TokenKind.OPERATOR, "]")
        return ListLit(tuple(items))


# -- validation --------------------------------------------------------------


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
        warnings.append(f"program may finish without assigning '{ANSWER_VARIABLE}'")
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
