from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

from conftest import json_server
from solvechart.agents.base import AgentAnswer, AgentError, AgentQuery
from solvechart.agents.http import HttpAgent
from solvechart.agents.oracle import OracleAgent
from solvechart.agents.replay import Cassette
from solvechart.agents.table import load_table
from solvechart.errors import ErrorKind, SolveChartError
from solvechart.evaluation.dataset import (
    DatasetFormatError,
    DuplicateIdError,
    EvalItem,
    load_dataset,
)
from solvechart.evaluation.harness import EvalConfig, oracle_agents, run_eval
from solvechart.evaluation.metrics import relaxed_match
from solvechart.solgen.client import LlmConfig
from solvechart.solgen.prompt import chart_hints
from test_dsl_parser import NESTED_GROUPS


def write_jsonl(path, records):
    lines = [json.dumps(r) if isinstance(r, dict) else r for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def record(item_id, question, gold, **extra):
    base = {"id": item_id, "question": question, "gold": gold, "chart_id": "c-" + item_id}
    base.update(extra)
    return base


# -- dataset loading --------------------------------------------------------

def test_load_dataset_preserves_order_and_resolves_paths(tmp_path):
    (tmp_path / "tables").mkdir()
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [
            record("b", "q1", "1", table_path="tables/one.json"),
            "",
            record("a", "q2", "2"),
            record("c", "q3", "3", table_path="/abs/two.json"),
        ],
    )
    items = load_dataset(path)
    assert [item.id for item in items] == ["b", "a", "c"]
    assert items[0].table_path == str(tmp_path / "tables" / "one.json")
    assert items[1].table_path is None
    assert items[2].table_path == "/abs/two.json"


def test_load_dataset_missing_key_reports_line(tmp_path):
    path = write_jsonl(
        tmp_path / "d.jsonl",
        [record("a", "q", "1"), {"id": "b", "question": "q", "chart_id": "c"}],
    )
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2
    assert "gold" in str(excinfo.value)
    assert str(excinfo.value).startswith("line 2:")


def test_load_dataset_duplicate_id(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [record("a", "q", "1"), record("a", "q2", "2")])
    with pytest.raises(DuplicateIdError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2
    assert "'a'" in str(excinfo.value)


def test_load_dataset_bad_json_line(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [record("a", "q", "1"), "{oops"])
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 2
    assert "invalid JSON" in str(excinfo.value)


def test_load_dataset_rejects_non_object_line(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", ["[1, 2]"])
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_load_dataset_rejects_non_string_fields(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [record("a", "q", 50)])
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert "'gold'" in str(excinfo.value)


def test_load_dataset_rejects_empty_id(tmp_path):
    path = write_jsonl(tmp_path / "d.jsonl", [record("", "q", "1")])
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 1


def test_load_dataset_reads_any_line_ending(tmp_path):
    lines = [json.dumps(record(name, "q", "1")) for name in ("a", "b", "c")]
    path = tmp_path / "d.jsonl"
    path.write_bytes((lines[0] + "\r" + lines[1] + "\r\n" + lines[2] + "\n").encode("utf-8"))
    assert [item.id for item in load_dataset(path)] == ["a", "b", "c"]


def test_load_dataset_non_utf8_reports_line(tmp_path):
    path = tmp_path / "d.jsonl"
    good = json.dumps(record("a", "q", "1")).encode("utf-8")
    path.write_bytes(good + b"\r" + good + b"\r\n{\"id\": \"\xff\"}\n")
    with pytest.raises(DatasetFormatError) as excinfo:
        load_dataset(path)
    assert excinfo.value.line == 3
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("name", ["missing.jsonl", "."], ids=["missing-file", "directory"])
def test_load_dataset_unreadable_path_is_a_solvechart_error_naming_it(tmp_path, name):
    path = tmp_path / name
    with pytest.raises(SolveChartError) as excinfo:
        load_dataset(path)
    assert str(excinfo.value).startswith(f"cannot read dataset {path}: ")
    assert isinstance(excinfo.value.__cause__, OSError)


def test_eval_item_validation():
    with pytest.raises(ValueError):
        EvalItem(id="x", question="", gold="1", chart_id="c")


def test_bundled_fixture_dataset_loads(fixtures_dir):
    items = load_dataset(fixtures_dir / "dataset.jsonl")
    assert len(items) == 20
    assert [item.id for item in items] == sorted(item.id for item in items)
    for item in items:
        assert item.table_path is not None
        assert load_table(item.table_path).series_names()


# -- relaxed matching -------------------------------------------------------

@pytest.mark.parametrize(
    "prediction,gold,expected",
    [
        ("51", "50", True),
        ("56", "50", False),
        ("52.5", "50", True),
        ("52.51", "50", False),
        ("47.5", "50", True),
        ("Republican", "republican", True),
        ("  Republican ", "republican", True),
        ("0", "0", True),
        ("0", "0.0", True),
        ("0.0001", "0", False),
        ("45%", "45", True),
        ("45", "45%", True),
        ("1,234", "1234", True),
        ("Apples, Oranges", "apples,oranges", True),
        ("Apples, Oranges", "apples", False),
        ("Apples, 100", "apples, 104", True),
        ("Apples, 100", "apples, 110", False),
        ("45", "forty-five", False),
        ("forty-five", "45", False),
        ("", "", True),
    ],
)
def test_relaxed_match_table(prediction, gold, expected):
    assert relaxed_match(prediction, gold) is expected


def test_relaxed_match_zero_tolerance():
    assert relaxed_match("50", "50", tolerance=0.0) is True
    assert relaxed_match("50.0001", "50", tolerance=0.0) is False


def test_relaxed_match_negative_tolerance():
    with pytest.raises(ValueError):
        relaxed_match("1", "1", tolerance=-0.01)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_relaxed_match_rejects_non_finite_tolerance(tolerance):
    with pytest.raises(ValueError):
        relaxed_match("2", "2", tolerance)


def test_relaxed_match_reflexive():
    for value in ("50", "Republican", "45%", "Apples, Oranges", "0"):
        assert relaxed_match(value, value) is True


def test_relaxed_match_text_branch_symmetric():
    assert relaxed_match("WeD", "wed") is True
    assert relaxed_match("wed", "WeD") is True


# -- harness ----------------------------------------------------------------

TEMPS_QA = (
    ("t1", "What is the value of Mon?", "12"),
    ("t2", "What is the highest value of Temperature?", "21"),
    ("t3", "Which day has the lowest value?", "Wed"),
    ("t4", "What is the average of Mon and Tue?", "13.5"),
)


def temps_items(table_path) -> list[EvalItem]:
    return [
        EvalItem(id=i, question=q, gold=g, chart_id="temps", table_path=str(table_path))
        for i, q, g in TEMPS_QA
    ]


def oracle_factory(item):
    return OracleAgent(load_table(item.table_path))


def temps_cassette() -> Cassette:
    cassette = Cassette.empty()
    for item_id, question, _ in TEMPS_QA[:3]:
        cassette.append("temps", question, f'```\nanswer = ASK("{question}")\n```')
    cassette.append(
        "temps",
        TEMPS_QA[3][1],
        "```\n"
        'mon = SUBSTEP("what is the value of Mon")\n'
        'tue = SUBSTEP("what is the value of Tue")\n'
        "answer = (mon + tue) / 2\n"
        "```",
    )
    return cassette


@pytest.fixture()
def temps_path(fixtures_dir):
    return fixtures_dir / "tables" / "temps.json"


def test_agent_only_run(temps_path):
    config = EvalConfig(mode="agent_only", agent_factory=oracle_factory)
    report = run_eval(temps_items(temps_path), config)
    assert report.accuracy == 0.75
    assert report.empty_dataset is False
    assert [r.id for r in report.items] == ["t1", "t2", "t3", "t4"]
    assert [r.correct for r in report.items] == [True, True, True, False]
    failed = report.items[3]
    assert failed.prediction is None
    assert failed.reason is not None


def test_programmatic_run_covers_arithmetic(temps_path):
    config = EvalConfig(
        mode="programmatic", agent_factory=oracle_factory, llm_client=temps_cassette()
    )
    report = run_eval(temps_items(temps_path), config)
    assert report.accuracy == 1.0
    assert report.items[3].prediction == "13.5"
    assert all(r.fallback_used is False for r in report.items)


def test_empty_dataset_report():
    config = EvalConfig(mode="agent_only", agent_factory=oracle_factory)
    report = run_eval([], config)
    assert report.accuracy == 0.0
    assert report.empty_dataset is True
    assert report.items == ()


def test_worker_count_does_not_change_results(temps_path):
    items = temps_items(temps_path)
    serial = run_eval(items, EvalConfig(mode="agent_only", agent_factory=oracle_factory))
    threaded = run_eval(
        items, EvalConfig(mode="agent_only", agent_factory=oracle_factory, workers=4)
    )
    # The config snapshot records the worker count, so compare the outcomes.
    assert serial.accuracy == threaded.accuracy
    assert [r.to_json_dict() for r in serial.items] == [
        r.to_json_dict() for r in threaded.items
    ]


def test_repeat_runs_byte_identical(temps_path):
    items = temps_items(temps_path)
    config = EvalConfig(
        mode="programmatic", agent_factory=oracle_factory, llm_client=temps_cassette()
    )
    first = run_eval(items, config).to_json_text()
    second = run_eval(items, config).to_json_text()
    assert first == second
    assert first.endswith("\n")
    assert json.loads(first)["accuracy"] == 1.0


def test_generation_miss_is_per_item(temps_path):
    items = temps_items(temps_path)
    cassette = temps_cassette()
    config = EvalConfig(mode="programmatic", agent_factory=oracle_factory, llm_client=Cassette.empty())
    report = run_eval(items, config)
    assert report.accuracy == 0.0
    assert all("cassette-miss" in r.reason for r in report.items)
    del cassette


def test_factory_failure_is_per_item(temps_path):
    items = temps_items(temps_path)

    def flaky(item):
        if item.id == "t2":
            raise AgentError("backend down", ErrorKind.TRANSPORT)
        return oracle_factory(item)

    report = run_eval(items, EvalConfig(mode="agent_only", agent_factory=flaky))
    assert [r.correct for r in report.items] == [True, False, True, False]
    assert "backend down" in report.items[1].reason


def test_runtime_error_uses_ask_fallback(temps_path):
    items = [
        EvalItem(
            id="f1",
            question="What is the value of Fri?",
            gold="18",
            chart_id="temps",
            table_path=str(temps_path),
        )
    ]
    cassette = Cassette.empty()
    cassette.append("temps", "What is the value of Fri?", "```\nanswer = 1 / 0\n```")
    with_fallback = run_eval(
        items,
        EvalConfig(
            mode="programmatic",
            agent_factory=oracle_factory,
            llm_client=cassette,
            fallback_to_ask=True,
        ),
    )
    assert with_fallback.items[0].correct is True
    assert with_fallback.items[0].fallback_used is True

    without = run_eval(
        items,
        EvalConfig(
            mode="programmatic",
            agent_factory=oracle_factory,
            llm_client=cassette,
            fallback_to_ask=False,
        ),
    )
    assert without.items[0].correct is False
    assert "division-by-zero" in without.items[0].reason


class FixedAgent:
    def answer(self, query):
        return AgentAnswer("42", 0.0, "stub")


def test_cassette_model_reads_no_table(tmp_path):
    item = EvalItem(id="x1", question="What is X?", gold="42", chart_id="c",
                    table_path=str(tmp_path / "missing.json"))
    cassette = Cassette.empty()
    cassette.append("c", item.question, '```\nanswer = ASK("What is X?")\n```')
    config = EvalConfig(mode="programmatic", agent_factory=lambda _: FixedAgent(), llm_client=cassette)
    result = run_eval([item], config).items[0]
    assert result.reason is None
    assert result.correct is True


class ForwardingAgent:
    """Not an OracleAgent, so the hints read the item's table themselves."""

    def __init__(self, inner):
        self.inner = inner

    def answer(self, query):
        return self.inner.answer(query)


def test_live_model_gets_chart_hints(temps_path, tmp_path, monkeypatch):
    prompts = []

    def fake_chat_completion(config, bundle):
        prompts.append(bundle.user)
        return '```\nanswer = ASK("What is the value of Mon?")\n```'

    monkeypatch.setattr("solvechart.solgen.generate.chat_completion", fake_chat_completion)
    table = load_table(temps_path)
    bad = tmp_path / "bad.json"
    bad.write_text('{"title": "t"}', encoding="utf-8")
    items = [EvalItem(id="bad", question="What is X?", gold="1", chart_id="bad", table_path=str(bad)),
             *temps_items(temps_path)[:1]]
    shared = ForwardingAgent(OracleAgent(table))
    for factory in (oracle_agents(), lambda item: shared):
        prompts.clear()
        config = EvalConfig(
            mode="programmatic",
            agent_factory=factory,
            llm_client=LlmConfig(endpoint="http://127.0.0.1:9"),
        )
        report = run_eval(items, config)
        assert report.items[0].reason == "malformed chart table: 'series'"  # only its own item fails
        assert report.items[1].correct is True
        assert prompts == [f"Question: {TEMPS_QA[0][1]}\nChart: {chart_hints(table)}"]


def test_refused_model_is_reported_once_as_transport(temps_path):
    config = EvalConfig(
        mode="programmatic",
        agent_factory=oracle_factory,
        llm_client=LlmConfig(endpoint="http://127.0.0.1:9", timeout_s=2.0),
    )
    result = run_eval(temps_items(temps_path)[:1], config).items[0]
    assert result.correct is False
    assert result.reason.startswith("transport: cannot reach http://127.0.0.1:9/v1/chat/completions")
    assert result.reason.count("transport:") == 1


def test_blank_question_to_live_model_fails_only_its_item(temps_path):
    # Nothing listens on port 9, and a blank question is refused before any request.
    config = EvalConfig(
        mode="programmatic",
        agent_factory=oracle_factory,
        llm_client=LlmConfig(endpoint="http://127.0.0.1:9", timeout_s=2.0),
    )
    items = [EvalItem(id="blank", question=" \t", gold="1", chart_id="temps", table_path=str(temps_path))]
    result = run_eval(items, config).items[0]
    assert result.correct is False
    assert result.reason == "unanswerable: question must be non-empty"


def test_oracle_sum_past_the_float_range_fails_only_its_item(tmp_path):
    table = tmp_path / "huge.json"
    table.write_text(json.dumps({"title": "t", "x_label": "x", "y_label": "y", "series": [
        {"name": "A", "points": [{"category": "x", "value": 1e308}, {"category": "y", "value": 1e308},
                                 {"category": "z", "value": -1e308}]}]}), encoding="utf-8")
    items = [
        EvalItem(id=i, question=q, gold=g, chart_id="huge", table_path=str(table))
        for i, q, g in (
            ("sum", "What is the sum of A in x and A in y?", "0"),
            ("diff", "What is the difference of A in x and A in z?", "0"),
            ("next", "What is the difference of A in x and A in y?", "0"),
        )
    ]
    report = run_eval(items, EvalConfig(mode="agent_only", agent_factory=oracle_factory))
    assert [r.correct for r in report.items] == [False, False, True]
    assert all(r.reason.startswith("unanswerable: ") for r in report.items[:2])
    assert all("not finite" in r.reason for r in report.items[:2])


def test_trace_dir_writes_per_item_traces(temps_path, tmp_path):
    items = temps_items(temps_path)
    config = EvalConfig(
        mode="programmatic",
        agent_factory=oracle_factory,
        llm_client=temps_cassette(),
        trace_dir=str(tmp_path / "traces"),
    )
    report = run_eval(items, config)
    for result in report.items:
        assert result.trace_path == str(tmp_path / "traces" / f"{result.id}.json")
        doc = json.loads((tmp_path / "traces" / f"{result.id}.json").read_text())
        assert doc["steps"]


def test_blank_question_fails_only_its_item(temps_path):
    blank = EvalItem(id="b", question=" \t", gold="12", chart_id="temps", table_path=str(temps_path))
    config = EvalConfig(mode="agent_only", agent_factory=oracle_factory)
    report = run_eval([blank, *temps_items(temps_path)[:1]], config)
    first, second = report.items
    assert first.correct is False and "unanswerable" in first.reason
    assert second.correct is True


def test_front_end_rejections_fail_only_their_items():
    # Each of the first four replies used to abort the whole run with a
    # RecursionError or an OverflowError.
    replies = {
        "deep": "answer = " + "(" * 200,
        "long": "answer = " + " + ".join(["1"] * 500),
        "huge": "answer = " + "9" * 400,
        "groups": "answer = " + NESTED_GROUPS,
        "fine": 'answer = ASK("What is X?")',
    }
    cassette = Cassette.empty()
    for name, program in replies.items():
        cassette.append("c", f"{name}?", f"```\n{program}\n```")
    items = [EvalItem(id=name, question=f"{name}?", gold="42", chart_id="c") for name in replies]
    config = EvalConfig(mode="programmatic", agent_factory=lambda _: FixedAgent(), llm_client=cassette)
    results = run_eval(items, config).items
    assert [r.correct for r in results] == [False, False, False, False, True]
    assert all("invalid-program" in r.reason for r in results[:4])


def test_trace_write_failure_fails_only_that_item(temps_path, tmp_path):
    traces = tmp_path / "traces"
    (traces / "t2.json").mkdir(parents=True)
    config = EvalConfig(
        mode="programmatic",
        agent_factory=oracle_factory,
        llm_client=temps_cassette(),
        trace_dir=str(traces),
    )
    report = run_eval(temps_items(temps_path), config)
    assert [r.correct for r in report.items] == [True, False, True, True]
    assert f"cannot write trace {traces / 't2.json'}" in report.items[1].reason


def test_trace_dir_rejects_ids_that_are_not_plain_file_names(temps_path, tmp_path):
    traces = tmp_path / "out" / "traces"
    mon = temps_items(temps_path)[0]
    bad_ids = ["../escaped", "/abs", "a/b", ".", "..", "nul\0byte"]
    items = [replace(mon, id=item_id) for item_id in bad_ids] + [mon]
    config = EvalConfig(
        mode="programmatic",
        agent_factory=oracle_factory,
        llm_client=temps_cassette(),
        trace_dir=str(traces),
    )
    report = run_eval(items, config)
    for result in report.items[:-1]:
        assert result.correct is False and result.trace_path is None
        assert "not a plain file name" in result.reason
    assert report.items[-1].correct is True
    assert sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*.json")) == [
        traces.relative_to(tmp_path) / "t1.json"
    ]


def test_live_backends_from_worker_threads_match_serial(temps_path):
    # Both HTTP backends share one pooled session; worker threads must not
    # cross their replies.
    oracle = OracleAgent(load_table(temps_path))
    programs = temps_cassette()

    def agent_reply(path, body):
        return {"answer": oracle.answer(AgentQuery(body["question"], body["chart_id"], body["operator"])).answer}

    def model_reply(path, body):
        question = body["messages"][1]["content"].splitlines()[0].removeprefix("Question: ")
        return {"choices": [{"message": {"content": programs.lookup("temps", question)}}]}

    items = [replace(item, id=f"{item.id}-{n}") for n in range(4) for item in temps_items(temps_path)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a shared-state race shows
    try:
        with json_server(agent_reply) as (_, agent_url), json_server(model_reply) as (_, model_url):
            agent = HttpAgent(agent_url, timeout_s=5.0)
            reports = [
                run_eval(
                    items,
                    EvalConfig(
                        mode="programmatic",
                        agent_factory=lambda _: agent,
                        llm_client=LlmConfig(endpoint=model_url, timeout_s=5.0),
                        workers=workers,
                    ),
                )
                for workers in (1, 4)
            ]
    finally:
        sys.setswitchinterval(interval)
    serial, threaded = (report.to_json_dict() for report in reports)
    assert serial["accuracy"] == 1.0
    assert threaded["config"] == {**serial["config"], "workers": 4}
    assert threaded["items"] == serial["items"]


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(mode="hybrid", agent_factory=oracle_factory)
    with pytest.raises(ValueError):
        EvalConfig(mode="programmatic", agent_factory=oracle_factory)
    with pytest.raises(ValueError):
        EvalConfig(mode="agent_only", agent_factory=oracle_factory, workers=0)
    for tolerance in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            EvalConfig(mode="agent_only", agent_factory=oracle_factory, tolerance=tolerance)


def test_snapshot_is_limited_and_stable():
    config = EvalConfig(
        mode="agent_only",
        agent_factory=oracle_factory,
        workers=3,
        tolerance=0.1,
        trace_dir="/somewhere",
    )
    assert config.snapshot() == {
        "mode": "agent_only",
        "workers": 3,
        "tolerance": 0.1,
        "fallback_to_ask": True,
    }
