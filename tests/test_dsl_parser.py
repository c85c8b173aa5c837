from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvechart.dsl.errors import ParseError
from solvechart.dsl.formatter import format_program
from solvechart.dsl.nodes import (
    Assignment,
    Binary,
    Call,
    Identifier,
    If,
    NumberLit,
    StringLit,
    Unary,
)
from solvechart.agents.base import AgentAnswer
from solvechart.dsl.parser import MAX_AGENT_CALLS, MAX_DEPTH, UNASSIGNED_WARNING, parse_program, parse_suffix
from solvechart.engine.interpreter import EngineConfig, execute
from solvechart.errors import SolveChartError
from solvechart.solgen.extract import extract_program


def test_election_program_shape(election_program_source):
    program = parse_program(election_program_source)
    assert len(program.statements) == 4
    first_three = program.statements[:3]
    assert all(isinstance(s, Assignment) for s in first_three)
    assert [s.target for s in first_three] == ["rep_2012", "dem_2012", "difference_in_2012"]
    last = program.statements[3]
    assert isinstance(last, If)
    assert len(last.branches) == 1
    assert last.else_body is not None
    condition = last.branches[0][0]
    assert isinstance(condition, Binary) and condition.op == ">"
    assert program.warnings == ()


def test_single_ask_assignment():
    program = parse_program('answer = ASK("Which color indicates 65+ years?")')
    assert len(program.statements) == 1
    stmt = program.statements[0]
    assert isinstance(stmt, Assignment)
    assert stmt.target == "answer"
    assert isinstance(stmt.expr, Call)
    assert stmt.expr.callee == "ASK"
    assert stmt.expr.args == (StringLit("Which color indicates 65+ years?"),)


def test_unknown_callee_rejected():
    with pytest.raises(ParseError) as err:
        parse_program('x = FOO("q")')
    assert "unknown callee" in str(err.value)
    assert err.value.line == 1


def test_agent_call_arity_enforced():
    with pytest.raises(ParseError):
        parse_program('x = ASK("a", "b")')
    with pytest.raises(ParseError):
        parse_program("x = round()")
    with pytest.raises(ParseError):
        parse_program("x = min()")
    for callee in ("ASK", "SUBSTEP", "abs", "round"):
        with pytest.raises(ParseError, match=f"{callee} takes exactly 1 argument, got 2"):
            parse_program(f'x = {callee}("a", "b")')


def test_min_accepts_one_or_more_args():
    parse_program("answer = min([1, 2])")
    parse_program("answer = min(1, 2, 3)")


def test_elif_chain_builds_branches():
    source = (
        "if a > 1:\n"
        "    answer = 1\n"
        "elif a > 0:\n"
        "    answer = 2\n"
        "elif a > -1:\n"
        "    answer = 3\n"
        "else:\n"
        "    answer = 4\n"
    )
    program = parse_program(source)
    stmt = program.statements[0]
    assert isinstance(stmt, If)
    assert len(stmt.branches) == 3
    assert stmt.else_body is not None and len(stmt.else_body) == 1


def test_bad_indentation_is_parse_error():
    with pytest.raises(ParseError):
        parse_program("if a:\nanswer = 1")


def test_empty_block_rejected():
    with pytest.raises(ParseError):
        parse_program("if a:\n")


def test_precedence_shapes():
    program = parse_program("answer = 1 + 2 * 3")
    expr = program.statements[0].expr
    assert isinstance(expr, Binary) and expr.op == "+"
    assert isinstance(expr.right, Binary) and expr.right.op == "*"

    program = parse_program("answer = not a and b")
    expr = program.statements[0].expr
    assert isinstance(expr, Binary) and expr.op == "and"
    assert isinstance(expr.left, Unary) and expr.left.op == "not"


def test_comparison_is_left_associative():
    program = parse_program("answer = 1 < 2 < 3")
    expr = program.statements[0].expr
    assert isinstance(expr, Binary) and expr.op == "<"
    assert isinstance(expr.left, Binary) and expr.left.op == "<"
    assert expr.right == NumberLit(3.0)


def test_unary_minus_binds_tighter_than_multiplication():
    program = parse_program("answer = -2 * 3")
    expr = program.statements[0].expr
    assert isinstance(expr, Binary) and expr.op == "*"
    assert isinstance(expr.left, Unary)


def test_missing_answer_warning():
    program = parse_program("x = 1")
    assert any("answer" in warning for warning in program.warnings)


def test_branch_covering_answer_has_no_warning():
    source = (
        "if a > 0:\n"
        "    answer = 1\n"
        "else:\n"
        "    answer = 2\n"
    )
    program = parse_program("a = 1\n" + source)
    assert program.warnings == ()


def test_if_without_else_warns_about_answer():
    source = "a = 1\nif a > 0:\n    answer = 1\n"
    program = parse_program(source)
    assert any("answer" in warning for warning in program.warnings)


@pytest.mark.parametrize("missing", range(3))
def test_every_arm_must_assign_answer(missing):
    bodies = ["answer = 1"] * 3
    bodies[missing] = "x = 1"
    source = f"a = 1\nif a > 0:\n    {bodies[0]}\nelif a < 0:\n    {bodies[1]}\nelse:\n    {bodies[2]}\n"
    assert parse_program(source).warnings == (UNASSIGNED_WARNING,)
    assert parse_program(source.replace("x = 1", "answer = 2")).warnings == ()


def test_dead_code_after_answer_warns():
    program = parse_program("answer = 1\nx = 2")
    assert any("unreachable" in warning for warning in program.warnings)


def test_parse_ignores_layout(election_program_source):
    direct = parse_program(election_program_source)
    spaced = parse_program(election_program_source.replace(" = ", "  =  "))
    assert direct == spaced


def test_parse_error_location_inside_source():
    source = "a = 1\nb = (2\n"
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert 1 <= err.value.line <= 3


def test_identifier_cannot_be_keyword_target():
    with pytest.raises(ParseError):
        parse_program("if = 1")


def test_list_literal_parses():
    program = parse_program("answer = sum([1, 2.5, x])")
    call = program.statements[0].expr
    assert isinstance(call, Call) and call.callee == "sum"
    items = call.args[0].items
    assert items[0] == NumberLit(1.0)
    assert items[2] == Identifier("x")


# One source per kind of nesting, `n` levels deep, and the lexeme that opens
# each level.
NESTINGS = {
    "parentheses": (lambda n: "answer = " + "(" * n + "1" + ")" * n, "("),
    "operator chain": (lambda n: "answer = 1" + " + 1" * n, "+"),
    # The group's parenthesis and chain are n - 1 levels; the chain over it is one more.
    "chain over a group": (lambda n: "answer = (1" + " + 1" * (n - 2) + ") + 1", "+"),
    "unary minus": (lambda n: "answer = " + "-" * n + "1", "-"),
    "not": (lambda n: "answer = " + "not " * n + "True", "not"),
    "lists": (lambda n: "answer = " + "[" * n + "1" + "]" * n, "["),
    "calls": (lambda n: "answer = " + "abs(" * n + "1" + ")" * n, "("),
    "if blocks": (lambda n: "".join("    " * i + "if True:\n" for i in range(n)) + "    " * n + "answer = 1\n", "if"),
}

# Five nested groups, each a chain over the group inside it: no group is more
# than 5 levels below the statement, but the tree under the outermost chain
# is about 585 levels deep.
NESTED_GROUPS = "(" * 5 + "1" + "".join(" + 1" * (100 - j) + ")" for j in range(5, 0, -1)) + " + 1" * 100


class _NoAgent:
    def answer(self, query):
        raise AssertionError("no agent call expected")


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_at_the_limit_formats_and_runs(kind):
    build, _ = NESTINGS[kind]
    program = parse_program(build(MAX_DEPTH))
    assert parse_program(format_program(program)) == program
    assert execute(program, _NoAgent()).answer is not None


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_beyond_the_limit_is_parse_error_at_the_opener(kind):
    build, opener = NESTINGS[kind]
    source = build(MAX_DEPTH + 1)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as err:
        parse_program(source)
    at = source.rindex(opener)
    line_start = source.rfind("\n", 0, at) + 1
    assert (err.value.line, err.value.column) == (source.count("\n", 0, at) + 1, at - line_start + 1)


def test_unbounded_nesting_is_parse_error():
    # These used to raise RecursionError in the parser, the formatter or the engine.
    for source in ("answer = " + "(" * 200, "answer = " + " + ".join(["1"] * 500), "answer = " + NESTED_GROUPS):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse_program(source)


class _CountingAgent:
    def __init__(self) -> None:
        self.calls = 0

    def answer(self, query):
        self.calls += 1
        return AgentAnswer("1", 0.0, "stub")


def test_agent_call_sites_are_capped_and_the_fallback_ask_is_not_one():
    # Every ASK or SUBSTEP counts, in untaken branches and nested calls too.
    sites = ['a = SUBSTEP("q")', "if a > 5:", '    a = ASK("q") + max(SUBSTEP("q"), 1)', "else:", '    a = [ASK("q")]']
    at_limit = "\n".join(sites + ['b = SUBSTEP("q")'] * (MAX_AGENT_CALLS - 4) + ["answer = a / 0", ""])
    program = parse_program(at_limit)
    agent = _CountingAgent()
    result = execute(program, agent, EngineConfig(fallback_to_ask=True, question="q"))
    assert result.fallback_used is True
    assert agent.calls == MAX_AGENT_CALLS - 2 + 1  # the untaken branch's two sites, then the fallback ASK
    over = f"program has {MAX_AGENT_CALLS + 1} agent call sites, more than {MAX_AGENT_CALLS}"
    with pytest.raises(SolveChartError, match=over) as err:
        parse_program('c = ASK("q")\n' + at_limit)
    assert not isinstance(err.value, ParseError)


def test_one_step_agent_call_statements_count_toward_the_cap():
    # Each `name = SUBSTEP("...")` line is taken in one step, by parse_program and by the reply scan alike.
    lines = [f'v{index} = SUBSTEP("q{index}")' for index in range(MAX_AGENT_CALLS + 1)]
    assert len(parse_program("\n".join(lines[1:] + ["answer = v1"])).statements) == MAX_AGENT_CALLS + 1
    over = f"program has {MAX_AGENT_CALLS + 1} agent call sites, more than {MAX_AGENT_CALLS}"
    for accept in (parse_program, extract_program):
        with pytest.raises(SolveChartError, match=over) as err:
            accept("\n".join(lines + ["answer = v0"]))
        assert not isinstance(err.value, ParseError)


def test_parse_suffix_gives_the_longest_parsing_suffix_or_none():
    assert parse_suffix("Sure, no code.\n\n  answer") is None
    text, program = parse_suffix("Sure:\n# the sum\nanswer = 1 +\nanswer = 2\n")
    assert text == "answer = 2\n"
    assert program == parse_program(text)
    assert parse_suffix("if x:\n    a = 1\n# c\nanswer = a\n")[0] == "if x:\n    a = 1\n# c\nanswer = a\n"


def test_number_literal_must_be_finite():
    assert parse_program("answer = 1" + "0" * 308).statements[0].expr == NumberLit(1e308)
    for digits in ("1" + "0" * 309, "9" * 400):
        with pytest.raises(ParseError, match="number literal is too large") as err:
            parse_program("x = 2\nanswer = " + digits)
        assert (err.value.line, err.value.column) == (2, 10)


_FRAGMENTS = (
    "answer", "x", "=", "ASK", "(", ")", "[", "]", ",", ":", '"q"', "1", "2.5", "9" * 400,
    "+", "-", "*", "//", "%", "<", "==", "and", "or", "not", "True", "if", "else",
    "\n", "\n    ", "(" * 40, "- " * 40, " + 1" * 40,
)


@settings(max_examples=300, deadline=None)
@given(
    st.text(max_size=60)
    | st.lists(st.sampled_from(_FRAGMENTS), max_size=16).map(lambda parts: "answer = " + " ".join(parts))
)
def test_any_text_parses_or_raises_parse_error_and_round_trips(source: str):
    try:
        program = parse_program(source)
    except ParseError:
        return
    assert parse_program(format_program(program)) == program
