"""Engine behavior against the independent naive reference evaluator:
random programs, plus every operator and builtin over operands of every type."""

from __future__ import annotations

import dataclasses
import random

import pytest

from gen_programs import AGENT_ANSWERS, random_program
from reference_interp import ref_execute, values_identical
from solvechart.agents.base import AgentAnswer, AgentError
from solvechart.dsl.nodes import (
    AGENT_CALLEES,
    BINARY_PRECEDENCE,
    CALLEES,
    Assignment,
    Binary,
    BoolLit,
    Call,
    ListLit,
    NumberLit,
    StringLit,
)
from solvechart.dsl.parser import make_program
from solvechart.engine.interpreter import EngineConfig, execute
from solvechart.engine import EngineError
from solvechart.errors import ErrorKind


class StubAgent:
    def answer(self, query):
        if query.question not in AGENT_ANSWERS:
            raise AgentError("unknown question", ErrorKind.UNANSWERABLE)
        return AgentAnswer(AGENT_ANSWERS[query.question], 0.0, "stub")


AGENT = StubAgent()


def ast_size(node) -> int:
    """Counts the statements and expression nodes in a node or a (nested) tuple of them."""
    if isinstance(node, tuple):
        return sum(ast_size(child) for child in node)
    if not dataclasses.is_dataclass(node):
        return 0
    return 1 + sum(ast_size(getattr(node, field.name)) for field in dataclasses.fields(node))


def engine_outcome(program):
    try:
        result = execute(program, AGENT, EngineConfig())
    except EngineError as err:
        return ("error", err.kind.name), None
    calls = [(c.operator, c.question, c.raw_answer) for c in result.trace.agent_calls]
    return ("value", result.answer), calls


@pytest.mark.parametrize("seed", range(300))
def test_engine_matches_reference(seed: int):
    program = random_program(random.Random(seed))
    (ref_kind, ref_payload), ref_calls = ref_execute(program, AGENT_ANSWERS)
    engine_result, engine_calls = engine_outcome(program)
    if ref_kind == "error":
        assert engine_result == ("error", ref_payload)
    else:
        assert engine_result[0] == "value"
        assert values_identical(engine_result[1], ref_payload)
        assert engine_calls == ref_calls


@pytest.mark.parametrize("seed", range(2000, 2100))
def test_step_count_bounded_by_ast_size(seed: int):
    program = random_program(random.Random(seed))
    try:
        result = execute(program, AGENT, EngineConfig())
    except EngineError:
        return
    assert len(result.trace.steps) <= 2 * ast_size(program.statements)


# Operands of every type, with zero, a negative, a fraction and a number whose
# products overflow.
OPERANDS = {
    "0": NumberLit(0.0),
    "2.5": NumberLit(2.5),
    "-3": NumberLit(-3.0),
    "1e308": NumberLit(1e308),
    '"a"': StringLit("a"),
    '"b"': StringLit("b"),
    '""': StringLit(""),
    "True": BoolLit(True),
    "False": BoolLit(False),
    "[1]": ListLit((NumberLit(1.0),)),
    "[]": ListLit(()),
}
PAIRS = [(a, b) for a in OPERANDS for b in OPERANDS]


def truth_table_disagreements(cases: list[tuple[str, object]]) -> list[str]:
    """The cases, as `label: engine != reference`, whose outcomes differ."""
    disagreements = []
    for label, expr in cases:
        program = make_program((Assignment("answer", expr),))
        (ref_kind, ref_payload), _ = ref_execute(program, AGENT_ANSWERS)
        engine_result, _ = engine_outcome(program)
        if ref_kind == "error":
            agree = engine_result == ("error", ref_payload)
        else:
            agree = engine_result[0] == "value" and values_identical(engine_result[1], ref_payload)
        if not agree:
            disagreements.append(f"{label}: {engine_result} != {(ref_kind, ref_payload)}")
    return disagreements


@pytest.mark.parametrize("op", sorted(BINARY_PRECEDENCE))
def test_binary_operator_truth_table(op: str):
    cases = [(f"{a} {op} {b}", Binary(op, OPERANDS[a], OPERANDS[b])) for a, b in PAIRS]
    assert truth_table_disagreements(cases) == []


@pytest.mark.parametrize("callee", sorted(set(CALLEES) - AGENT_CALLEES))
def test_builtin_truth_table(callee: str):
    cases = [(f"{callee}({a})", Call(callee, (OPERANDS[a],))) for a in OPERANDS]
    if callee in ("min", "max", "sum"):
        cases += [(f"{callee}({a}, {b})", Call(callee, (OPERANDS[a], OPERANDS[b]))) for a, b in PAIRS]
    assert truth_table_disagreements(cases) == []
