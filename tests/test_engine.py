from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvechart.agents.base import AgentAnswer, AgentError
from solvechart.dsl.formatter import format_expression, format_program
from solvechart.dsl.nodes import Assignment, Binary, Call, NumberLit, SolutionProgram, StringLit
from solvechart.dsl.parser import parse_program
from solvechart.engine.interpreter import MAX_TEXT_CHARS, EngineConfig, execute
from solvechart.engine import EngineError
from solvechart.errors import ErrorKind
from solvechart.values import coerce_numeric, stringify


class MapAgent:
    """Answers from a fixed question->text table; raises on anything else."""

    def __init__(self, table: dict[str, str]) -> None:
        self.table = table
        self.calls = 0

    def answer(self, query):
        self.calls += 1
        if query.question not in self.table:
            raise AgentError(f"no answer for {query.question!r}", ErrorKind.UNANSWERABLE)
        return AgentAnswer(self.table[query.question], 0.0, "map")


NO_AGENT = MapAgent({})


def run(source: str, agent=None, **config):
    program = parse_program(source)
    return execute(program, agent or MapAgent({}), EngineConfig(**config))


def test_constant_fold():
    result = run("answer = 1 + 1")
    assert result.answer == 2.0
    assert result.fallback_used is False


def test_election_program_end_to_end(election_program_source, election_agent):
    result = execute(parse_program(election_program_source), election_agent, EngineConfig())
    assert result.answer == "Republican"
    raw = [(c.operator, c.raw_answer) for c in result.trace.agent_calls]
    assert raw == [("SUBSTEP", "50"), ("SUBSTEP", "43")]


# -- coercion and rendering -------------------------------------------------

@pytest.mark.parametrize(
    "raw,expected",
    [
        ("50", 50.0),
        ("1,234.5", 1234.5),
        ("Republican", "Republican"),
        ("45%", 45.0),
        (" 7 ", 7.0),
        ("+3", 3.0),
        ("-0.5", -0.5),
        ("1e3", "1e3"),
        ("", ""),
        ("12%%", "12%%"),
        ("3.", 3.0),
        ("50 %", 50.0),
        ("nan", "nan"),
        ("inf", "inf"),
    ],
)
def test_coerce_numeric(raw, expected):
    assert coerce_numeric(raw) == expected


@pytest.mark.parametrize(
    "value,expected",
    [
        (7.0, "7"),
        (True, "Yes"),
        (False, "No"),
        (0.333333333, "0.333333"),
        (-2.5, "-2.5"),
        (0.0, "0"),
        (-0.0000001, "0"),
        ([1.0, 2.5, "x"], "1, 2.5, x"),
        ([], ""),
        (1e16, "10000000000000000"),
    ],
)
def test_stringify(value, expected):
    assert stringify(value) == expected


# -- operator semantics -----------------------------------------------------

def test_text_concat_coercion():
    assert run('answer = "year " + 2012').answer == "year 2012"
    assert run('answer = 7 + " items"').answer == "7 items"
    assert run('answer = "a" + "b"').answer == "ab"


def test_comparisons():
    assert run("answer = 7 < 9").answer is True
    assert run('answer = "a" < "b"').answer is True
    assert run("answer = 3 >= 3").answer is True


def test_equality_rules():
    assert run("answer = 2 == 2.0").answer is True
    assert run('answer = "a" != "b"').answer is True
    assert run("answer = True == True").answer is True
    assert run("answer = [1, 2] == [1, 2]").answer is True
    assert run("answer = [1] == [1, 2]").answer is False


def test_equality_cross_type_is_mismatch():
    with pytest.raises(EngineError) as err:
        run('answer = 1 == "1"')
    assert err.value.kind is ErrorKind.TYPE_MISMATCH
    with pytest.raises(EngineError):
        run("answer = True == 1")


def test_ordering_text_vs_number_is_mismatch():
    with pytest.raises(EngineError) as err:
        run('answer = "5" < 7')
    assert err.value.kind is ErrorKind.TYPE_MISMATCH


def test_arithmetic_on_text_is_mismatch():
    with pytest.raises(EngineError) as err:
        run('answer = -"x"')
    assert err.value.kind is ErrorKind.TYPE_MISMATCH
    with pytest.raises(EngineError):
        run('answer = "x" * 2')
    with pytest.raises(EngineError):
        run("answer = True + 1")


def test_division_variants_and_zero():
    assert run("answer = 7 / 2").answer == 3.5
    assert run("answer = 7 // 2").answer == 3.0
    assert run("answer = 7 % 2").answer == 1.0
    for op in ("/", "//", "%"):
        with pytest.raises(EngineError) as err:
            run(f"answer = 1 {op} 0")
        assert err.value.kind is ErrorKind.DIVISION_BY_ZERO


def test_overflow_is_non_finite_error():
    big = NumberLit(1e308)
    with pytest.raises(EngineError) as err:
        execute(SolutionProgram((Assignment("answer", Binary("*", big, big)),)), NO_AGENT)
    assert err.value.kind is ErrorKind.NON_FINITE


DOUBLING_PROGRAM = 's = "ab"\n' + "s = s + s\n" * 22 + "answer = s\n"  # would end at 2**23 = 8,388,608 characters


def test_text_doubling_stops_at_the_bound():
    tracemalloc.start()
    try:
        with pytest.raises(EngineError) as err:
            run(DOUBLING_PROGRAM)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.kind is ErrorKind.TEXT_TOO_LONG
    assert peak < 1_000_000  # the 8.4M-character text was never built


def test_text_bound_falls_back_to_ask():
    agent = MapAgent({"How long?": "7"})
    result = run(DOUBLING_PROGRAM, agent, fallback_to_ask=True, question="How long?")
    assert result.answer == 7.0
    assert result.fallback_used is True
    (fallback,) = [step for step in result.trace.steps if step.kind == "fallback"]
    assert "text-too-long" in fallback.detail
    assert max(len(step.value) for step in result.trace.steps if isinstance(step.value, str)) <= MAX_TEXT_CHARS


def test_text_bound_is_inclusive():
    half = "a" * (MAX_TEXT_CHARS // 2)
    assert len(run(f's = "{half}"\nanswer = s + s').answer) == MAX_TEXT_CHARS
    with pytest.raises(EngineError) as err:
        run(f's = "{half}"\nanswer = s + s + 1')
    assert err.value.kind is ErrorKind.TEXT_TOO_LONG


def test_unbound_variable():
    with pytest.raises(EngineError) as err:
        run("answer = mystery")
    assert err.value.kind is ErrorKind.UNBOUND_VARIABLE


def test_answer_unassigned():
    with pytest.raises(EngineError) as err:
        run("x = 1")
    assert err.value.kind is ErrorKind.ANSWER_UNASSIGNED


def test_condition_must_be_boolean():
    with pytest.raises(EngineError) as err:
        run("if 1:\n    answer = 1")
    assert err.value.kind is ErrorKind.TYPE_MISMATCH


def test_builtins():
    assert run("answer = abs(-4)").answer == 4.0
    assert run("answer = round(2.5)").answer == 2.0
    assert run("answer = round(3.5)").answer == 4.0
    assert run("answer = min([3, 1, 2])").answer == 1.0
    assert run("answer = max(3, 1, 2)").answer == 3.0
    assert run("answer = sum([1, 2, 3])").answer == 6.0
    assert run("answer = sum([])").answer == 0.0


def test_builtin_type_errors():
    with pytest.raises(EngineError):
        run('answer = abs("x")')
    with pytest.raises(EngineError):
        run("answer = sum(1)")
    with pytest.raises(EngineError):
        run('answer = min(["a", "b"])')
    with pytest.raises(EngineError) as err:
        run("answer = min([])")
    assert err.value.kind is ErrorKind.TYPE_MISMATCH


# -- agent interaction ------------------------------------------------------

def test_agent_answers_coerce():
    agent = MapAgent({"q": "45%"})
    assert run('answer = ASK("q")', agent).answer == 45.0


def test_agent_question_must_be_text():
    with pytest.raises(EngineError) as err:
        run("answer = ASK(5)")
    assert err.value.kind is ErrorKind.TYPE_MISMATCH


def test_agent_failure_without_fallback():
    with pytest.raises(EngineError) as err:
        run('answer = ASK("unknown")')
    assert err.value.kind is ErrorKind.AGENT_FAILURE


def test_short_circuit_skips_agent_calls():
    agent = MapAgent({"q": "1"})
    result = run('answer = False and ASK("q") == 1', agent)
    assert result.answer is False
    assert agent.calls == 0
    result = run('answer = True or ASK("q") == 1', agent)
    assert result.answer is True
    assert agent.calls == 0


def test_short_circuit_right_side_still_checked():
    with pytest.raises(EngineError):
        run("answer = True and 1")


def test_trace_completeness_counts_evaluated_calls(election_agent):
    source = (
        'a = SUBSTEP("what is the value of Republican in 2012")\n'
        "if a > 100:\n"
        '    b = SUBSTEP("what is the value of Democrat in 2012")\n'
        "answer = a\n"
    )
    result = execute(parse_program(source), election_agent, EngineConfig())
    # The branch is skipped, so its SUBSTEP never reaches the agent.
    assert len(result.trace.agent_calls) == 1


def test_trace_records_assignments_and_branches(election_program_source, election_agent):
    result = execute(parse_program(election_program_source), election_agent, EngineConfig())
    kinds = [step.kind for step in result.trace.steps]
    assert kinds == [
        "agent_call",
        "assignment",
        "agent_call",
        "assignment",
        "assignment",
        "branch",
        "assignment",
    ]
    branch = next(s for s in result.trace.steps if s.kind == "branch")
    assert "taken" in branch.detail


def test_determinism(election_program_source, election_agent):
    program = parse_program(election_program_source)
    first = execute(program, election_agent, EngineConfig())
    second = execute(program, election_agent, EngineConfig())
    assert first.answer == second.answer
    assert first.trace.steps == second.trace.steps
    assert first.trace.agent_calls == second.trace.agent_calls


def test_trace_serializes_to_json_dict(election_program_source, election_agent):
    result = execute(parse_program(election_program_source), election_agent, EngineConfig())
    doc = json.loads(result.trace.to_json_text())
    assert set(doc) == {"steps", "agent_calls"}
    assert doc["agent_calls"][0]["raw_answer"] == "50"


def test_trace_read_twice_or_after_a_fallback_equals_a_fresh_runs():
    # Every step kind: agent calls, assignments, an if and an elif tested, else taken, then the fallback.
    source = 'a = SUBSTEP("x")\nb = ASK("say \\"y\\"")\nif a > b:\n    answer = "A"\nelif a == b:\n    answer = "B"\n' \
        "else:\n    answer = [a, b] / 0\n"
    agent = MapAgent({"x": "1", 'say "y"': "2%", "q?": "yes"})
    trace = run(source, agent, fallback_to_ask=True, question="q?").trace
    first = (list(trace.steps), list(trace.agent_calls), trace.to_json_text())
    assert [(step.kind, step.detail, step.value) for step in first[0]] == [
        ("agent_call", 'SUBSTEP("x")', 1.0),
        ("assignment", "a", 1.0),
        ("agent_call", 'ASK("say \\"y\\"")', 2.0),
        ("assignment", "b", 2.0),
        ("branch", "if a > b -> skipped", False),
        ("branch", "elif a == b -> skipped", False),
        ("branch", "else -> taken", True),
        ("fallback", "execution failed (type-mismatch: cannot apply '/' to list, float); asking directly", None),
        ("agent_call", 'ASK("q?")', "yes"),
    ]
    assert [(call.operator, call.question, call.raw_answer) for call in first[1]] == [
        ("SUBSTEP", "x", "1"), ("ASK", 'say "y"', "2%"), ("ASK", "q?", "yes"),
    ]
    assert (trace.steps, trace.agent_calls, trace.to_json_text()) == first
    for fresh in (run(source, agent, fallback_to_ask=True, question="q?").trace for _ in range(2)):
        assert fresh.to_json_text() == first[2]  # JSON read first here, steps first above
        assert fresh == trace and json.loads(fresh.to_json_text()) == json.loads(trace.to_json_text())
    other = run(source.replace('"x"', '"z"'), MapAgent({"z": "1", 'say "y"': "2%", "q?": "yes"}),
                fallback_to_ask=True, question="q?").trace
    assert other != trace


# -- fallback ---------------------------------------------------------------

def test_fallback_degrades_to_single_ask():
    agent = MapAgent({"original?": "42"})
    result = run(
        "answer = 1 / 0",
        agent,
        fallback_to_ask=True,
        question="original?",
    )
    assert result.fallback_used is True
    assert result.answer == 42.0
    assert [s.kind for s in result.trace.steps if s.kind == "fallback"] == ["fallback"]
    assert result.trace.agent_calls[-1].operator == "ASK"


def test_blank_agent_question_takes_fallback():
    agent = MapAgent({"original?": "42"})
    result = run('answer = SUBSTEP("  ")', agent, fallback_to_ask=True, question="original?")
    assert result.fallback_used is True
    assert result.answer == 42.0
    with pytest.raises(EngineError) as err:
        run('answer = SUBSTEP("")', agent)
    assert err.value.kind is ErrorKind.AGENT_FAILURE
    assert "unanswerable" in str(err.value)


def test_fallback_requires_question():
    with pytest.raises(EngineError):
        run("answer = 1 / 0", fallback_to_ask=True)


def test_fallback_records_failure_reason():
    agent = MapAgent({"q?": "ok"})
    result = run("answer = nope", agent, fallback_to_ask=True, question="q?")
    fallback_step = next(s for s in result.trace.steps if s.kind == "fallback")
    assert "unbound" in fallback_step.detail.lower()


def test_fallback_failure_propagates():
    # The direct ASK itself failing surfaces as an engine error.
    with pytest.raises(EngineError):
        run("answer = 1 / 0", MapAgent({}), fallback_to_ask=True, question="missing")


@settings(max_examples=200, deadline=None)
@given(st.text().filter(str.strip))  # the agent refuses a blank question before the trace
def test_trace_quotes_agent_questions_as_the_formatter_does(question):
    agent = MapAgent({question: "1"})
    for op in ("SUBSTEP", "ASK"):
        call = Call(op, (StringLit(question),))
        result = execute(SolutionProgram((Assignment("answer", call),)), agent, EngineConfig())
        assert result.trace.steps[0].detail == format_expression(call)

    fallback = run("answer = 1 / 0", agent, fallback_to_ask=True, question=question)
    assert fallback.trace.steps[-1].kind == "agent_call"
    assert fallback.trace.steps[-1].detail == format_expression(Call("ASK", (StringLit(question),)))


def test_trace_quotes_a_question_with_every_escape():
    source = 'answer = SUBSTEP("say \\"hi\\" \\\\ there\\n\\tnow\\r")'
    result = run(source, MapAgent({'say "hi" \\ there\n\tnow\r': "1"}))
    assert format_program(parse_program(source)) == "answer = " + result.trace.steps[0].detail + "\n"
    assert result.trace.steps[0].detail == 'SUBSTEP("say \\"hi\\" \\\\ there\\n\\tnow\\r")'
