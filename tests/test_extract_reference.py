"""Extraction against its reference (tests/extract_reference.py).

The linear suffix scan must return the reference loop's text, or raise its
error, on replies built from prose, program lines, indented if/elif/else
bodies, blank and comment lines, lines that fail to lex or to indent, fences
and CRLF line ends.  Arbitrary text must raise nothing but SolveChartError,
and long replies must fail in linear time.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extract_reference import reference_extract
from solvechart.agents.replay import Cassette
from solvechart.dsl import ParseError, parse_program
from solvechart.dsl.parser import UNASSIGNED_WARNING
from solvechart.errors import SolveChartError
from solvechart.solgen.extract import ExtractionError, extract_program
from solvechart.solgen.generate import _try_accept, generate_solution

PROSE = ["Here is the program:", "Sure, the lookup is direct.", "answer is 3.", "x = = 1", "???", "if x", "else"]
CODE = ["answer = 1", "x = 2", 'answer = ASK("q")', "answer = x + 1", "y = min(1, 2)  # note", "answer = (1"]
HEADERS = ["if x > 1:", "elif x:", "else:", "if y:"]
BODIES = ["    answer = 1", "    x = 2", "        y = 3", "    if y:", "  answer = 2", "    else:"]
LAYOUT = ["", "   ", "# note", "    # indented note", "\x0c"]
BROKEN = ["x = $", 'v = "open', "\tx = 1", "x\t= 1", " \t", "   answer = 1", 'y = "bad\\q"']
FENCES = ["```", "```python", "``` ", "```\r"]
LINES = PROSE + CODE + HEADERS + BODIES + LAYOUT + BROKEN + FENCES


@st.composite
def replies(draw) -> str:
    lines = draw(st.lists(st.sampled_from(LINES), max_size=14))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def outcome(reply: str, extract) -> tuple:
    try:
        return ("text", extract(reply))
    except ExtractionError as err:
        return ("error", str(err))


def reference_accept(reply: str) -> tuple:
    try:
        program = parse_program(reference_extract(reply))
    except (ExtractionError, ParseError) as err:
        return None, str(err)
    if UNASSIGNED_WARNING in program.warnings:
        return None, UNASSIGNED_WARNING
    return program, None


def assert_agrees(reply: str) -> None:
    assert outcome(reply, extract_program) == outcome(reply, reference_extract)
    program, fault = _try_accept(reply)
    expected_program, expected_fault = reference_accept(reply)
    assert (program, fault) == (expected_program, expected_fault)
    if program is not None:
        assert program.warnings == expected_program.warnings


@settings(max_examples=1500, deadline=None)
@given(replies())
def test_extract_matches_reference(reply):
    assert_agrees(reply)


@pytest.mark.parametrize(
    "reply",
    [
        "Sure.\nx = 1\nanswer = x",
        "Sure.\n\n# the program\nanswer = 1",
        "if x:\nanswer = 1",
        "answer = 1\n  x = 2\nanswer = 2",
        "if x:\n    answer = 1\nelse:\n    answer = 2",
        "if x:\n    answer = 1\n  else:\n    answer = 2\nanswer = 3",
        "x = 1\n\t\nanswer = 2",
        "x = $\n\n# note\nanswer = 1",
        "if x:\n    answer = 1\nelif y\nanswer = 2",
        "answer = 1\r\nanswer = 2\r\n",
        "```\r\nanswer = 1\r\n```",
        "```python\r\n\r\nanswer = 1\r\n\r\n```",
        "```\nanswer = 1",
        "",
        "\n \n",
    ],
)
def test_extract_matches_reference_on_named_cases(reply):
    assert_agrees(reply)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=" \t\r\n#\"\\=:()[],.x1`?é")))
def test_extract_raises_only_solvechart_errors(reply):
    try:
        extract_program(reply)
    except SolveChartError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(replies(), st.text()))
def test_generate_from_cassette_raises_only_solvechart_errors(reply):
    cassette = Cassette([{"chart_id": "c", "question": "q", "answer": reply}])
    try:
        program = generate_solution("q", cassette, chart_id="c")
    except SolveChartError:
        return
    assert UNASSIGNED_WARNING not in program.warnings


@pytest.mark.parametrize(
    "reply",
    [
        "x = 1\n" * 20_000 + "???",
        "x = 1\n" * 20_000 + "x = = 1",
        "if x:\nx = 1\n" * 10_000 + "x = = 1",
    ],
    ids=["lex-error-last", "parse-error-last", "every-if-fails"],
)
def test_extract_fails_long_replies_in_linear_time(reply):
    # The reference loop re-parses every suffix: minutes for these replies.
    began = time.perf_counter()
    with pytest.raises(ExtractionError):
        extract_program(reply)
    assert time.perf_counter() - began < 5.0
