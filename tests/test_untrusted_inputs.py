"""Arbitrary input at the untrusted boundary fails only as SolveChartError.

Datasets, tables, cassettes, config files and program files are read from
arbitrary bytes, and programs run against an agent that answers with
arbitrary text.  Extraction and generation from arbitrary replies are
covered in test_extract_reference.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen_programs import random_program
from solvechart.agents.base import AgentAnswer
from solvechart.agents.replay import Cassette
from solvechart.agents.table import load_table
from solvechart.cli import parse_args
from solvechart.dsl import format_program, parse_program
from solvechart.engine.interpreter import MAX_TEXT_CHARS, EngineConfig, execute
from solvechart.errors import SolveChartError
from solvechart.evaluation.dataset import load_dataset

# Keys the readers look for, so generated documents get past their first checks.
_KEYS = ["id", "question", "gold", "chart_id", "table_path", "title", "x_label", "y_label", "series", "name",
         "points", "category", "value", "answer"]

_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
            | st.sampled_from(["a", "A", "a.", "1", "tables/x.json", "/abs/t.json", 10**400]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner,
                                                                max_size=6),
    max_leaves=24,
)


def _spliced(documents):
    """JSON text of a drawn document, sometimes with a few arbitrary bytes spliced in."""
    return _spliced_bytes(documents.map(lambda doc: json.dumps(doc).encode("utf-8")))


@st.composite
def _spliced_bytes(draw, data):
    """Drawn bytes, sometimes with a few arbitrary bytes spliced in."""
    raw = draw(data)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.binary(max_size=3)) + raw[at + draw(st.integers(0, 3)):]
    return raw


_POINT = st.fixed_dictionaries({"category": _SCALARS, "value": _SCALARS})
_SERIES = st.fixed_dictionaries({"name": _SCALARS, "points": st.lists(_POINT, max_size=4)})
_TABLE = st.fixed_dictionaries({"title": _SCALARS, "x_label": _SCALARS, "y_label": _SCALARS,
                                "series": st.lists(_SERIES, max_size=3)})
_ENTRY = st.fixed_dictionaries({"chart_id": _SCALARS, "question": _SCALARS, "answer": _SCALARS})
_MOSTLY_TEXT = st.integers(0, 9).flatmap(lambda pick: _SCALARS if pick == 0 else st.text(max_size=8))
_ITEM = st.fixed_dictionaries({key: _MOSTLY_TEXT for key in _KEYS[:4]}, optional={"table_path": _MOSTLY_TEXT})
# Every optional `eval` flag, under its config key, plus one key it ignores.
_CONFIG = st.dictionaries(
    st.sampled_from(["mode", "agent", "llm", "llm_replay", "workers", "tolerance", "fallback", "output", "trace_dir",
                     "dim"]),
    _SCALARS | st.sampled_from(["agent-only", "programmatic", "2", "0.5", "-1", "inf"]),
    max_size=5,
)
_PROGRAM = st.integers(0, 2**32 - 1).map(lambda seed: format_program(random_program(random.Random(seed))).encode())
_DATASET = (st.lists(_ITEM, max_size=5) | st.lists(_ITEM | _JSON, max_size=3)).map(
    lambda docs: "\n".join(map(json.dumps, docs)).encode("utf-8"))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("untrusted") / "input"


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=200) | _DATASET | _spliced(_ITEM))
def test_load_dataset_fails_only_as_solvechart_error(scratch, raw):
    scratch.write_bytes(raw)
    try:
        items = load_dataset(scratch)
    except SolveChartError:
        return
    for item in items:
        assert all(isinstance(text, str) for text in (item.id, item.question, item.gold, item.chart_id))
        assert item.id and item.question
        assert item.table_path is None or isinstance(item.table_path, str)


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=200) | _spliced(_TABLE) | _spliced(_JSON))
def test_load_table_fails_only_as_solvechart_error(scratch, raw):
    scratch.write_bytes(raw)
    try:
        load_table(scratch)
    except SolveChartError:
        pass


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=200) | _spliced(st.lists(_ENTRY, max_size=4)) | _spliced(_JSON))
def test_cassette_load_fails_only_as_solvechart_error(scratch, raw):
    scratch.write_bytes(raw)
    try:
        cassette = Cassette.load(scratch)
    except SolveChartError:
        return
    for entry in cassette.entries:
        assert cassette.lookup(entry["chart_id"], entry["question"]) is not None


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=200) | _spliced(_CONFIG) | _spliced(_JSON))
def test_config_file_fails_only_as_solvechart_error(scratch, raw):
    scratch.write_bytes(raw)
    try:
        parse_args(["eval", "--dataset", "d.jsonl", "--config", str(scratch)])
    except SolveChartError:
        pass


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=200) | _PROGRAM | _spliced_bytes(_PROGRAM))
def test_program_file_fails_only_as_solvechart_error(scratch, raw):
    scratch.write_bytes(raw)
    cmd = parse_args(["parse", str(scratch)])
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        try:
            cmd.handler(cmd)
        except SolveChartError:
            return
    # What parses prints in canonical form, which parses to itself.
    assert format_program(parse_program(out.getvalue())) == out.getvalue()


class _TextAgent:
    """Answers every query with the next of its replies, in turn."""

    def __init__(self, replies: list[str]) -> None:
        self.replies, self.calls = replies, 0

    def answer(self, query):
        self.calls += 1
        return AgentAnswer(self.replies[(self.calls - 1) % len(self.replies)], 0.0, "stub")


# Six doublings pass the text bound from replies of about 1,600 characters, and
# stay a few MB even if the bound were gone.
_DOUBLING = parse_program('t = SUBSTEP("cell value")\n' + "t = t + t\n" * 6 + 'answer = t + ASK("category name")\n')

_REPLY = (
    st.text(max_size=20)
    | st.sampled_from(["50", "45%", "1,234.5", "-0", "1e999", "nan", " 7 ", "", "  ", "Yes", "0"])
    | st.builds(lambda unit, times: unit * times, st.text(min_size=1, max_size=3), st.integers(1, 120_000))
)


def _texts(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _texts(item)


@settings(max_examples=300, deadline=None)
@given(
    replies=st.lists(_REPLY, min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    doubling=st.booleans(),
    fallback=st.booleans(),
)
def test_execute_with_arbitrary_agent_text_fails_only_as_solvechart_error(replies, seed, doubling, fallback):
    program = _DOUBLING if doubling else random_program(random.Random(seed))
    config = EngineConfig(fallback_to_ask=fallback, question="q")
    try:
        result = execute(program, _TextAgent(replies), config)
    except SolveChartError:
        return
    # Text is either an agent's reply as given (trimmed) or built within the bound.
    given_texts = {reply.strip() for reply in replies}
    values = [result.answer] + [step.value for step in result.trace.steps if step.value is not None]
    for value in values:
        for text in _texts(value):
            assert len(text) <= MAX_TEXT_CHARS or text in given_texts
