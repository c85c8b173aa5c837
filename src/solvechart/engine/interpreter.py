"""Tree-walking interpreter with a complete execution trace.

Execution is deterministic given the agent's replies and always terminates:
the language has no loops, so each AST node is visited at most once.  The
trace records every assignment, branch decision, and agent exchange in
evaluation order.  With fallback enabled, any execution failure is converted
into a single direct ASK of the original question.

A program's leading independent agent calls share one Lookahead, so a live
agent may send them together; every call is still made, recorded and
traced at its own statement, in program order.  execute runs those leading
assignments itself, straight from the scan that found them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from ..agents.base import AgentError, AgentHandle, AgentQuery, Lookahead
from ..dsl.formatter import format_expression, format_string
from ..dsl.nodes import (
    ANSWER_VARIABLE,
    AGENT_CALLEES,
    Assignment,
    Binary,
    BoolLit,
    Call,
    Expression,
    Identifier,
    ListLit,
    NumberLit,
    SolutionProgram,
    Statement,
    StringLit,
    Unary,
)
from ..errors import ErrorKind, SolveChartError
from ..files import json_text
from ..values import Value, coerce_numeric, is_number, stringify

__all__ = [
    "AgentCallRecord",
    "EngineConfig",
    "EngineError",
    "ExecutionResult",
    "ExecutionTrace",
    "MAX_TEXT_CHARS",
    "TraceStep",
    "execute",
]

MAX_TEXT_CHARS = 100_000  # the longest text "+" may build
LOOKAHEAD_CALLS = 4  # the most leading agent calls that share one Lookahead


class EngineError(SolveChartError):
    """Execution failure, tagged with the kind of violation."""


@dataclass(frozen=True)
class TraceStep:
    kind: str  # "agent_call" | "assignment" | "branch" | "fallback"
    detail: str
    value: Value | None = None


@dataclass(frozen=True)
class AgentCallRecord:
    operator: str
    question: str
    raw_answer: str


class ExecutionTrace:
    """A run's steps in order, and its agent exchanges.

    A run appends one tuple per step to `_log`: ("agent_call", operator,
    question, raw answer, value); ("if" or "elif", condition, decision) for
    a tested branch; or (kind, detail, value) for a step whose detail is
    already text.  The TraceStep and AgentCallRecord objects, and their
    text, are built the first time steps, agent_calls or to_json_text is read,
    so a run whose trace nobody reads builds none of them.
    """

    __slots__ = ("_log", "_built")

    def __init__(self) -> None:
        self._log: list[tuple] = []
        self._built: tuple[list[TraceStep], list[AgentCallRecord]] | None = None

    @property
    def steps(self) -> list[TraceStep]:
        return self._build()[0]

    @property
    def agent_calls(self) -> list[AgentCallRecord]:
        return self._build()[1]

    def _build(self) -> tuple[list[TraceStep], list[AgentCallRecord]]:
        if self._built is None:
            steps: list[TraceStep] = []
            calls: list[AgentCallRecord] = []
            for entry in self._log:
                kind = entry[0]
                if kind == "agent_call":
                    _, operator, question, raw_answer, value = entry
                    calls.append(AgentCallRecord(operator, question, raw_answer))
                    # As format_expression renders the call, without making a Call node.
                    steps.append(TraceStep(kind, f"{operator}({format_string(question)})", value))
                elif kind == "if" or kind == "elif":
                    _, condition, decision = entry
                    outcome = "taken" if decision else "skipped"
                    steps.append(TraceStep("branch", f"{kind} {format_expression(condition)} -> {outcome}", decision))
                else:
                    steps.append(TraceStep(*entry))
            self._built = steps, calls
        return self._built

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionTrace):
            return NotImplemented
        return self._build() == other._build()

    def __repr__(self) -> str:
        return f"ExecutionTrace(steps={self.steps!r}, agent_calls={self.agent_calls!r})"

    def to_json_text(self) -> str:
        return json_text({"steps": self.steps, "agent_calls": self.agent_calls})


@dataclass(frozen=True)
class EngineConfig:
    # fallback_to_ask turns any execution failure into one direct ASK of the
    # original question; it needs `question` to be set.
    fallback_to_ask: bool = False
    chart_id: str = ""
    question: str | None = None


@dataclass(frozen=True)
class ExecutionResult:
    answer: Value
    trace: ExecutionTrace
    fallback_used: bool = False


def _mismatch(op: str, *values: Value) -> EngineError:
    names = ", ".join(type(v).__name__ for v in values)
    return EngineError(f"cannot apply {op!r} to {names}", ErrorKind.TYPE_MISMATCH)


def _require_finite(value: float, op: str) -> float:
    if not math.isfinite(value):
        raise EngineError(f"{op!r} produced a non-finite number", ErrorKind.NON_FINITE)
    return value


def _values_equal(left: Value, right: Value) -> bool:
    if isinstance(left, bool) != isinstance(right, bool):
        raise _mismatch("==", left, right)
    if isinstance(left, bool):
        return left is right
    if is_number(left) and is_number(right):
        return left == right
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return False
        return all(_values_equal(a, b) for a, b in zip(left, right))
    raise _mismatch("==", left, right)


# Arithmetic takes two numbers, ordering two numbers or two texts; "+", "==",
# "!=", "and" and "or" have rules of their own in _binary.
_ARITHMETIC = {"-": operator.sub, "*": operator.mul, "/": operator.truediv, "//": operator.floordiv, "%": operator.mod}
_ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class _Evaluator:
    def __init__(self, agent: AgentHandle, config: EngineConfig, trace: ExecutionTrace) -> None:
        self.agent = agent
        self.config = config
        self.log = trace._log

    # -- expressions --------------------------------------------------------

    def eval(self, expr: Expression, env: dict[str, Value]) -> Value:
        if isinstance(expr, (NumberLit, StringLit, BoolLit)):
            return expr.value
        if isinstance(expr, Identifier):
            if expr.name not in env:
                raise EngineError(f"variable {expr.name!r} is not bound", ErrorKind.UNBOUND_VARIABLE)
            return env[expr.name]
        if isinstance(expr, ListLit):
            return [self.eval(item, env) for item in expr.items]
        if isinstance(expr, Unary):
            return self._unary(expr, env)
        if isinstance(expr, Binary):
            return self._binary(expr, env)
        if isinstance(expr, Call):
            return self._call(expr, env)
        raise TypeError(f"not an expression node: {expr!r}")

    def _unary(self, expr: Unary, env: dict[str, Value]) -> Value:
        value = self.eval(expr.operand, env)
        if expr.op == "-":
            if not is_number(value):
                raise _mismatch("-", value)
            return _require_finite(-value, "-")
        if not isinstance(value, bool):
            raise _mismatch("not", value)
        return not value

    def _binary(self, expr: Binary, env: dict[str, Value]) -> Value:
        op = expr.op
        if op in ("and", "or"):
            left = self.eval(expr.left, env)
            if not isinstance(left, bool):
                raise _mismatch(op, left)
            # Short circuit: False decides "and" and True decides "or"; the right
            # side is then never evaluated, so its agent calls are never issued.
            if left is (op == "or"):
                return left
            right = self.eval(expr.right, env)
            if not isinstance(right, bool):
                raise _mismatch(op, right)
            return right
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if op == "+":
            return self._add(left, right)
        if op in ("==", "!="):
            equal = _values_equal(left, right)
            return equal if op == "==" else not equal
        if op in _ARITHMETIC:
            if not (is_number(left) and is_number(right)):
                raise _mismatch(op, left, right)
            if op in ("/", "//", "%") and right == 0.0:
                raise EngineError(f"{op!r} by zero", ErrorKind.DIVISION_BY_ZERO)
            return _require_finite(_ARITHMETIC[op](left, right), op)
        if op in _ORDERING:
            if not ((is_number(left) and is_number(right)) or (isinstance(left, str) and isinstance(right, str))):
                raise _mismatch(op, left, right)
            return _ORDERING[op](left, right)
        raise TypeError(f"unknown operator {op!r}")

    def _add(self, left: Value, right: Value) -> Value:
        if is_number(left) and is_number(right):
            return _require_finite(left + right, "+")
        # Text concatenation coerces a numeric side to text so computed
        # values can be embedded in follow-up questions.
        if not all(isinstance(side, str) or is_number(side) for side in (left, right)):
            raise _mismatch("+", left, right)
        left, right = (side if isinstance(side, str) else stringify(side) for side in (left, right))
        # With no loops, text "+" is the only way a value outgrows the program's
        # source, so this one check bounds the memory a program can use.
        if len(left) + len(right) > MAX_TEXT_CHARS:
            raise EngineError(
                f"'+' would make text of {len(left) + len(right)} characters, over {MAX_TEXT_CHARS}",
                ErrorKind.TEXT_TOO_LONG,
            )
        return left + right

    def _call(self, expr: Call, env: dict[str, Value]) -> Value:
        if expr.callee in AGENT_CALLEES:
            return self._agent_call(expr, env)
        args = [self.eval(arg, env) for arg in expr.args]
        name = expr.callee
        if name in ("abs", "round"):
            if not is_number(args[0]):
                raise _mismatch(name, args[0])
            return _require_finite(abs(args[0]), name) if name == "abs" else float(round(args[0]))
        if len(args) == 1:
            items = args[0]
            if not isinstance(items, list):
                raise _mismatch(name, items)
        else:
            items = args
        for item in items:
            if not is_number(item):
                raise _mismatch(name, item)
        if name == "sum":
            total = 0.0
            for item in items:
                total = _require_finite(total + item, name)
            return total
        if not items:
            raise EngineError(f"{name} of an empty list", ErrorKind.TYPE_MISMATCH)
        return max(items) if name == "max" else min(items)

    def _agent_call(self, expr: Call, env: dict[str, Value]) -> Value:
        question = self.eval(expr.args[0], env)
        if not isinstance(question, str):
            raise _mismatch(expr.callee, question)
        return self.ask_agent(expr.callee, question)

    def ask_agent(self, operator: str, question: str, ahead: Lookahead | None = None) -> Value:
        try:
            query = AgentQuery(question, self.config.chart_id, operator, ahead)
            reply = self.agent.answer(query)
        except AgentError as err:
            raise EngineError(f"{operator} failed: {err}", ErrorKind.AGENT_FAILURE) from err
        value = coerce_numeric(reply.answer)
        self.log.append(("agent_call", operator, question, reply.answer, value))
        return value

    # -- statements ---------------------------------------------------------

    def assign(self, target: str, value: Value, env: dict[str, Value]) -> None:
        env[target] = value
        self.log.append(("assignment", target, value))

    def run_block(self, statements: tuple[Statement, ...], env: dict[str, Value]) -> None:
        for stmt in statements:
            self.run_statement(stmt, env)

    def run_statement(self, stmt: Statement, env: dict[str, Value]) -> None:
        if isinstance(stmt, Assignment):
            self.assign(stmt.target, self.eval(stmt.expr, env), env)
            return
        for index, (condition, body) in enumerate(stmt.branches):
            decision = self.eval(condition, env)
            if not isinstance(decision, bool):
                raise _mismatch("if", decision)
            self.log.append(("if" if index == 0 else "elif", condition, decision))
            if decision:
                self.run_block(body, env)
                return
        if stmt.else_body is not None:
            self.log.append(("branch", "else -> taken", True))
            self.run_block(stmt.else_body, env)


def _leading_calls(statements: tuple[Statement, ...]) -> list[tuple[str, str, str]]:
    """(target, operator, question) of each leading agent-call assignment, at most LOOKAHEAD_CALLS.

    They are the first top-level assignments whose value is an agent call on
    a non-blank string literal; a blank one ends the run, so it fails at its
    own statement.
    """
    calls = []
    for stmt in statements[:LOOKAHEAD_CALLS]:
        if not (isinstance(stmt, Assignment) and isinstance(stmt.expr, Call) and stmt.expr.callee in AGENT_CALLEES):
            break
        question = stmt.expr.args[0]
        if not (isinstance(question, StringLit) and question.value.strip()):
            break
        calls.append((stmt.target, stmt.expr.callee, question.value))
    return calls


def execute(program: SolutionProgram, agent: AgentHandle, config: EngineConfig | None = None) -> ExecutionResult:
    """Runs a program to completion and returns its answer plus trace.

    Raises EngineError when execution fails and fallback is disabled.  With
    config.fallback_to_ask set, the failure is recorded in the trace and the
    original question is asked directly instead.
    """
    config = config or EngineConfig()
    trace = ExecutionTrace()
    evaluator = _Evaluator(agent, config, trace)
    env: dict[str, Value] = {}
    leading = _leading_calls(program.statements)
    # One Lookahead for a run of two or more; each member's query carries it, no other query does.
    ahead = Lookahead([call[1:] for call in leading]) if len(leading) > 1 else None
    try:
        # These assignments run as run_statement would run them, without its dispatch.
        for index, (target, callee, question) in enumerate(leading):
            if ahead is not None:
                ahead.at = index
            evaluator.assign(target, evaluator.ask_agent(callee, question, ahead), env)
        evaluator.run_block(program.statements[len(leading):], env)
        if ANSWER_VARIABLE not in env:
            raise EngineError(
                f"program finished without assigning '{ANSWER_VARIABLE}'", ErrorKind.ANSWER_UNASSIGNED
            )
        return ExecutionResult(env[ANSWER_VARIABLE], trace, fallback_used=False)
    except EngineError as err:
        if not config.fallback_to_ask or config.question is None:
            raise
        evaluator.log.append(("fallback", f"execution failed ({err}); asking directly", None))
        answer = evaluator.ask_agent("ASK", config.question)
        return ExecutionResult(answer, trace, fallback_used=True)
