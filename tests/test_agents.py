from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solvechart
from conftest import FIXTURES, json_server
from solvechart.agents import http as agents_http
from solvechart.agents.base import AgentAnswer, AgentError, AgentQuery
from solvechart.agents.http import HttpAgent
from solvechart.agents.oracle import OracleAgent, oracle_answer
from solvechart.agents.replay import Cassette, CassetteFormatError, ReplayAgent
from solvechart.agents.table import ChartTable, Series, TableFormatError, load_table, normalize_question
from solvechart.errors import ErrorKind, SolveChartError
from solvechart.solgen.client import LlmConfig, LlmError, chat_completion
from solvechart.solgen.prompt import build_prompt


def make_table(*series) -> ChartTable:
    return ChartTable(
        title="t",
        x_label="x",
        y_label="y",
        series=tuple(
            Series(name, tuple(category for category, _ in points), tuple(value for _, value in points))
            for name, points in series
        ),
    )


# -- query/answer types -----------------------------------------------------

def test_query_requires_nonempty_question():
    for question in ("", " \t\n"):
        with pytest.raises(AgentError) as err:
            AgentQuery(question, "c", "ASK")
        assert err.value.kind is ErrorKind.UNANSWERABLE


def test_query_requires_known_operator():
    with pytest.raises(ValueError):
        AgentQuery("q", "c", "LOOKUP")


def test_answer_latency_nonnegative():
    with pytest.raises(ValueError):
        AgentAnswer("a", -1.0, "b")


# -- chart tables -----------------------------------------------------------

def test_load_table_fixture(election_table):
    assert election_table.title == "Vote share by party"
    assert election_table.series_names == ("Republican", "Democrat")
    republican = election_table.series[0]
    assert republican.values[republican.categories.index("2012")] == 50.0
    assert oracle_answer(election_table, "value of republican in 2012") == "50"


def test_duplicate_series_names_rejected_case_insensitive():
    with pytest.raises(TableFormatError):
        make_table(("A", [("x", 1.0)]), ("a", [("x", 2.0)]))


def test_duplicate_categories_rejected():
    with pytest.raises(TableFormatError):
        make_table(("A", [("x", 1.0), ("x", 2.0)]))


def test_load_table_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(TableFormatError):
        load_table(bad)


def test_load_table_missing_file_names_path(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(TableFormatError) as err:
        load_table(missing)
    assert str(missing) in str(err.value)


def test_load_table_wrong_shape(tmp_path):
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps({"title": "t"}), encoding="utf-8")
    with pytest.raises(TableFormatError):
        load_table(bad)


def write_table(path: Path, series: list[tuple[str, list[tuple[str, str]]]]) -> Path:
    """Writes a table document whose values are raw JSON text, so NaN and Infinity survive."""
    body = ", ".join(
        '{"name": %s, "points": [%s]}' % (
            json.dumps(name),
            ", ".join('{"category": %s, "value": %s}' % (json.dumps(cat), raw) for cat, raw in points),
        )
        for name, points in series
    )
    path.write_text('{"title": "t", "x_label": "x", "y_label": "y", "series": [%s]}' % body, encoding="utf-8")
    return path


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["nan", "infinity", "minus-infinity", "int-past-float-range"])
def test_load_table_rejects_non_finite_cell(tmp_path, raw):
    path = write_table(tmp_path / "t.json", [("Sales", [("Jan", "1"), ("Feb", raw)])])
    with pytest.raises(TableFormatError) as err:
        load_table(path)
    if not raw.isdigit():
        assert "'Sales'" in str(err.value) and "'Feb'" in str(err.value)


def test_direct_table_rejects_non_finite_cell():
    with pytest.raises(TableFormatError) as err:
        make_table(("A", [("x", 1.0)]), ("B", [("y", float("nan"))]))
    assert "'B'" in str(err.value) and "'y'" in str(err.value)


@pytest.mark.parametrize(
    "series",
    [
        [("A-B", [("x", "1")]), ("A B", [("x", "2")])],
        [("A", [("Jan", "1"), ("jan", "2")])],
        [("A", [("Jan.", "1")]), ("B", [("Jan", "2")])],
        [("?!", [("x", "1")])],
    ],
    ids=["series-forms", "category-case", "category-punctuation", "empty-series-form"],
)
def test_load_table_rejects_names_the_oracle_cannot_tell_apart(tmp_path, series):
    with pytest.raises(TableFormatError):
        load_table(write_table(tmp_path / "t.json", series))


def test_load_table_keeps_one_string_per_label(tmp_path):
    path = write_table(tmp_path / "t.json", [
        ("A", [("Jan", "1"), ("Feb 2012", "2")]),
        ("B", [("Feb 2012", "3"), ("Jan", "4")]),
        ("C", [("Jan", "5")]),
    ])
    a, b, c = (entry.categories for entry in load_table(path).series)
    assert b[1] is a[0] and c[0] is a[0]
    assert b[0] is a[1]


def test_categories_reads_the_list_kept_at_build():
    """200 series x 2,000 labels: categories is the tuple kept at build, read with no walk over the points."""
    labels = [f"c{index}" for index in range(2000)]
    points = [(label, 1.0) for label in labels]
    table = make_table(*((f"s{index}", points) for index in range(200)))
    start = time.perf_counter()
    assert table.categories == tuple(labels)
    assert time.perf_counter() - start < 1.0


def test_load_table_shares_one_category_tuple_per_list(tmp_path):
    path = write_table(tmp_path / "t.json", [
        ("A", [("Jan", "1"), ("Feb", "2")]),
        ("B", [("Mar", "3")]),
        ("C", [("Jan", "4"), ("Feb", "5")]),
        ("D", [("Feb", "6"), ("Jan", "7")]),
    ])
    table = load_table(path)
    a, b, c, d = table.series
    assert c.categories is a.categories
    assert d.categories is not a.categories and b.categories is not a.categories
    assert table.categories == ("Jan", "Feb", "Mar")
    assert c.values == (4.0, 5.0)


def test_ragged_table_keeps_each_series_order(tmp_path):
    """Series with different label sets, or one set in another order, answer by their own positions."""
    path = write_table(tmp_path / "t.json", [
        ("A", [("Feb", "1"), ("Jan", "2")]),
        ("B", [("Jan", "3"), ("Mar", "4"), ("Feb", "5")]),
    ])
    table = load_table(path)
    assert [entry.categories for entry in table.series] == [("Feb", "Jan"), ("Jan", "Mar", "Feb")]
    assert table.categories == ("Feb", "Jan", "Mar")
    assert table.series[1].values == (3.0, 4.0, 5.0)
    assert oracle_answer(table, "value of A in Jan") == "2" and oracle_answer(table, "value of B in Feb") == "5"
    assert oracle_answer(table, "which month has the highest value") == "Feb"


@pytest.mark.parametrize("categories, values", [(("x", "y"), (1.0,)), (("x",), (1.0, 2.0)), ((), (1.0,))],
                         ids=["fewer-values", "fewer-categories", "no-categories"])
def test_direct_table_rejects_series_of_unequal_lengths(categories, values):
    with pytest.raises(TableFormatError) as err:
        ChartTable("t", "x", "y", (Series("A", ("x",), (1.0,)), Series("B", categories, values)))
    assert "'B'" in str(err.value)


# -- templates --------------------------------------------------------------

def test_normalize_question():
    assert normalize_question("What is the VALUE of Democrat, in 2012?!") == (
        "what is the value of democrat in 2012"
    )


def test_match_value_of(election_table):
    # The value-of template with slot text "democrat in 2012": that one cell.
    assert oracle_answer(election_table, "What is the value of Democrat in 2012?") == "43"


def test_match_arg_extreme(election_table):
    # Subject "year" names the category, not the series, of the lowest point.
    assert oracle_answer(election_table, "which year has the lowest value") == "2012"


def test_match_extreme_of_series(fruit_table):
    # "maximum" reads as "highest": Apples run 120, 150, 90.
    assert oracle_answer(fruit_table, "What is the maximum value of Apples?") == "150"
    assert oracle_answer(fruit_table, "What is the min value of Apples?") == "90"


def test_no_match(election_table):
    with pytest.raises(AgentError) as err:
        oracle_answer(election_table, "compare the trends")
    assert err.value.kind is ErrorKind.UNANSWERABLE
    assert err.value.reason == "no template matches 'compare the trends'"


# -- oracle answers ---------------------------------------------------------

def test_oracle_cell_lookup(election_table):
    assert oracle_answer(election_table, "what is the value of Republican in 2012") == "50"


def test_oracle_overall_argmax_series():
    table = make_table(("A", [("x", 4.0)]), ("B", [("x", 9.0)]))
    assert oracle_answer(table, "which series has the highest value") == "B"


@pytest.mark.parametrize(
    "series, question, answer",
    [
        ([("A", [("Jan", -1.0), ("Feb", -0.0), ("Mar", 0.0)]), ("B", [("Apr", 0.0)])],
         "which month has the highest value", "Feb"),
        ([("A", [("Jan", -1.0), ("Feb", 0.0), ("Mar", -0.0)]), ("B", [("Apr", -0.0)])],
         "which month has the highest value", "Feb"),
        ([("A", [("Jan", 1.0)]), ("B", [("Feb", 0.0), ("Mar", -0.0)]), ("C", [("Apr", -0.0)])],
         "which month has the lowest value", "Feb"),
        ([("A", [("Jan", 1.0)]), ("B", [("Feb", 0.0), ("Mar", -0.0)]), ("C", [("Apr", -0.0)])],
         "which series has the lowest value", "B"),
        ([("A", [("Jan", 2.0), ("Feb", 1.0), ("Mar", 2.0)]), ("B", [("Apr", 2.0)])],
         "which month has the highest value", "Jan"),
    ],
    ids=["minus-zero-first", "zero-first", "lowest-zero-first", "lowest-series", "equal-values"],
)
def test_arg_extreme_ties_answer_the_first_point_in_series_order(series, question, answer):
    assert oracle_answer(make_table(*series), question) == answer


def test_oracle_unanswerable(election_table):
    with pytest.raises(AgentError) as err:
        oracle_answer(election_table, "what is the capital of France")
    assert err.value.kind is ErrorKind.UNANSWERABLE


def test_oracle_extremes(fruit_table, temps_table):
    assert oracle_answer(fruit_table, "What is the highest value of Apples?") == "150"
    assert oracle_answer(fruit_table, "What is the lowest value of Oranges?") == "60"
    assert oracle_answer(temps_table, "Which day has the lowest value?") == "Wed"


def test_oracle_single_series_category(temps_table):
    assert oracle_answer(temps_table, "What is the value of Thu?") == "21"


def test_oracle_cell_sum_and_difference(fruit_table, election_table):
    question = "What is the sum of Apples in Jan and Oranges in Jan?"
    assert oracle_answer(fruit_table, question) == "200"
    question = "What is the difference between Republican in 2010 and Democrat in 2010?"
    assert oracle_answer(election_table, question) == "2"


def test_oracle_longest_name_match():
    table = make_table(
        ("Total", [("Jan", 5.0)]),
        ("Total Sales", [("Jan", 9.0)]),
    )
    assert oracle_answer(table, "what is the value of Total Sales in Jan") == "9"


def test_oracle_unknown_name_unanswerable(election_table):
    with pytest.raises(AgentError):
        oracle_answer(election_table, "what is the value of Libertarian in 2012")


def test_oracle_purity(election_table):
    question = "what is the value of Democrat in 2010"
    answers = {oracle_answer(election_table, question) for _ in range(5)}
    assert answers == {"45"}


def test_operator_metadata_not_interpreted(election_agent):
    ask = election_agent.answer(AgentQuery("what is the value of Democrat in 2012", "c", "ASK"))
    substep = election_agent.answer(
        AgentQuery("what is the value of Democrat in 2012", "c", "SUBSTEP")
    )
    assert ask.answer == substep.answer == "43"


# -- cassettes --------------------------------------------------------------

def test_cassette_save_under_missing_directory_names_target(tmp_path):
    target = tmp_path / "no-such-dir" / "c.json"
    cassette = Cassette.empty(target)
    with pytest.raises(SolveChartError) as err:
        cassette.append("c", "q", "a")
    assert str(err.value).startswith(f"cannot write {target}: ")


def test_cassette_roundtrip(tmp_path, election_agent):
    path = tmp_path / "cassette.json"
    recorder = ReplayAgent(Cassette.empty(path), live=election_agent)
    query = AgentQuery("what is the value of Republican in 2012", "election", "SUBSTEP")
    first = recorder.answer(query)
    assert first.answer == "50"
    assert first.backend == "record"

    replayer = ReplayAgent(Cassette.load(path))
    replayed = replayer.answer(query)
    assert replayed.answer == "50"
    assert replayed.backend == "replay"


def test_cassette_load_missing_file_names_path(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(CassetteFormatError) as err:
        Cassette.load(missing)
    assert str(missing) in str(err.value)


def test_cassette_strict_miss(tmp_path):
    agent = ReplayAgent(Cassette.empty())
    with pytest.raises(AgentError) as err:
        agent.answer(AgentQuery("q", "c", "ASK"))
    assert err.value.kind is ErrorKind.CASSETTE_MISS


def test_cassette_key_normalization():
    cassette = Cassette([{"chart_id": "c", "question": "What  is X?", "answer": "1"}])
    assert cassette.lookup("c", "what is x?") == "1"
    assert cassette.lookup("c", "  WHAT IS X?  ") == "1"
    assert cassette.lookup("other", "what is x?") is None


def test_cassette_last_entry_wins():
    cassette = Cassette(
        [
            {"chart_id": "c", "question": "q", "answer": "old"},
            {"chart_id": "c", "question": "q", "answer": "new"},
        ]
    )
    assert cassette.lookup("c", "q") == "new"


def test_cassette_record_mode_grows_file(tmp_path, election_agent):
    path = tmp_path / "c.json"
    recorder = ReplayAgent(Cassette.empty(path), live=election_agent)
    recorder.answer(AgentQuery("what is the value of Democrat in 2012", "e", "ASK"))
    entries = json.loads(path.read_text(encoding="utf-8"))
    assert len(entries) == 1
    recorder.answer(AgentQuery("what is the value of Democrat in 2010", "e", "ASK"))
    entries = json.loads(path.read_text(encoding="utf-8"))
    assert len(entries) == 2
    assert entries[1]["answer"] == "45"


def test_cassette_replays_hit_without_touching_live(tmp_path, election_agent):
    path = tmp_path / "c.json"
    recorder = ReplayAgent(Cassette.empty(path), live=election_agent)
    query = AgentQuery("what is the value of Democrat in 2012", "e", "ASK")
    recorder.answer(query)
    hit = recorder.answer(query)
    assert hit.backend == "replay"
    entries = json.loads(path.read_text(encoding="utf-8"))
    assert len(entries) == 1


def test_cassette_concurrent_appends(tmp_path):
    cassette = Cassette.empty(tmp_path / "c.json")

    def record(start: int) -> None:
        for i in range(start, start + 20):
            cassette.append("c", f"q{i}", str(i))

    threads = [threading.Thread(target=record, args=(base,)) for base in (0, 100, 200)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(cassette) == 60


def test_cassette_rejects_malformed_entries():
    with pytest.raises(CassetteFormatError):
        Cassette([{"chart_id": "c", "question": "q"}])


def test_cassette_load_rejects_non_array(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"chart_id": "c"}', encoding="utf-8")
    with pytest.raises(CassetteFormatError):
        Cassette.load(path)


def test_loaded_cassette_never_writes(tmp_path):
    path = tmp_path / "llm_cassette.json"
    shutil.copyfile(FIXTURES / "llm_cassette.json", path)
    before = path.read_bytes()
    cassette = Cassette.load(path)
    cassette.append("c", "a new question", "a new answer")
    assert cassette.lookup("c", "a new question") == "a new answer"
    assert path.read_bytes() == before


def test_record_cassette_keeps_existing_entries(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('[{"chart_id": "c", "question": "old", "answer": "1"}]', encoding="utf-8")
    cassette = Cassette.record(path)
    assert cassette.lookup("c", "old") == "1"
    cassette.append("c", "new", "2")
    assert [entry["question"] for entry in json.loads(path.read_text(encoding="utf-8"))] == ["old", "new"]


_AWKWARD = st.text(alphabet=st.sampled_from('a Z"\\\n\t]},é€😀'), max_size=12)


@settings(max_examples=60, deadline=None)
@given(
    appends=st.lists(st.tuples(_AWKWARD | st.text(max_size=8), _AWKWARD, _AWKWARD), min_size=1, max_size=6),
    compact_start=st.booleans(),
)
def test_record_cassette_file_is_a_full_save_after_every_append(appends, compact_start):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "c.json"
        expected = []
        if compact_start:  # a hand-written file, laid out unlike save()
            expected.append({"chart_id": "c0", "question": 'say "hi"\n', "answer": "é"})
            path.write_text(json.dumps(expected, separators=(",", ":"), ensure_ascii=False), encoding="utf-8")
        cassette = Cassette.record(path)
        for chart_id, question, answer in appends:
            cassette.append(chart_id, question, answer)
            expected.append({"chart_id": chart_id, "question": question, "answer": answer})
            assert path.read_text(encoding="utf-8") == json.dumps(expected, indent=2) + "\n"


def test_record_cassette_recovers_from_a_failed_append(tmp_path):
    path = tmp_path / "c.json"
    cassette = Cassette.record(path)
    cassette.append("c", "q1", "1")
    path.unlink()
    with pytest.raises(SolveChartError) as err:
        cassette.append("c", "q2", "2")
    assert str(err.value).startswith(f"cannot write {path}: ")
    cassette.append("c", "q3", "3")  # saves the whole cassette again
    assert path.read_text(encoding="utf-8") == json.dumps(cassette.entries, indent=2) + "\n"
    assert len(cassette.entries) == 3


# -- http backend -----------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        mode = self.server.mode  # type: ignore[attr-defined]
        self.server.last_request = (self.path, body)  # type: ignore[attr-defined]
        if mode == "ok":
            payload = json.dumps({"answer": "50"}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        elif mode == "http500":
            self.send_response(500)
            self.end_headers()
        elif mode == "notjson":
            payload = b"plain text"
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        elif mode == "deep":
            payload = b"[" * 100_000
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        elif mode == "missing-key":
            payload = json.dumps({"result": "50"}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.mode = "ok"
    server.last_request = None
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def test_http_agent_protocol(http_server):
    server, url = http_server
    reply = HttpAgent(url).answer(AgentQuery("what?", "c1", "SUBSTEP"))
    assert reply.answer == "50"
    assert reply.backend == "http"
    assert reply.latency_ms >= 0.0
    path, body = server.last_request
    assert path == "/answer"
    assert body == {"question": "what?", "chart_id": "c1", "operator": "SUBSTEP"}


def test_http_operator_parity(http_server):
    _, url = http_server
    agent = HttpAgent(url)
    ask = agent.answer(AgentQuery("q", "c", "ASK"))
    substep = agent.answer(AgentQuery("q", "c", "SUBSTEP"))
    assert ask.answer == substep.answer


def test_http_500_is_transport_error(http_server):
    server, url = http_server
    server.mode = "http500"
    with pytest.raises(AgentError) as err:
        HttpAgent(url).answer(AgentQuery("q", "c", "ASK"))
    assert err.value.kind is ErrorKind.TRANSPORT


def test_http_non_json_is_bad_response(http_server):
    server, url = http_server
    server.mode = "notjson"
    with pytest.raises(AgentError) as err:
        HttpAgent(url).answer(AgentQuery("q", "c", "ASK"))
    assert err.value.kind is ErrorKind.BAD_RESPONSE


def test_http_deeply_nested_body_is_bad_response(http_server):
    server, url = http_server
    server.mode = "deep"
    with pytest.raises(AgentError) as agent_err:
        HttpAgent(url).answer(AgentQuery("q", "c", "ASK"))
    with pytest.raises(LlmError) as model_err:
        chat_completion(LlmConfig(endpoint=url), build_prompt("q"))
    assert agent_err.value.kind is ErrorKind.BAD_RESPONSE
    assert model_err.value.kind is ErrorKind.BAD_RESPONSE


def test_http_missing_answer_key_is_bad_response(http_server):
    server, url = http_server
    server.mode = "missing-key"
    with pytest.raises(AgentError) as err:
        HttpAgent(url).answer(AgentQuery("q", "c", "ASK"))
    assert err.value.kind is ErrorKind.BAD_RESPONSE


def test_http_connection_refused_is_transport():
    with pytest.raises(AgentError) as err:
        HttpAgent("http://127.0.0.1:9", timeout_s=0.5).answer(AgentQuery("q", "c", "ASK"))
    assert err.value.kind is ErrorKind.TRANSPORT


def test_http_backends_reuse_one_connection_per_endpoint():
    def complete(path, body):
        return {"choices": [{"message": {"content": "answer = 1"}}]}

    with json_server(lambda path, body: {"answer": "50"}) as (agent_server, agent_url), \
            json_server(complete) as (model_server, model_url):
        agent, model = HttpAgent(agent_url), LlmConfig(endpoint=model_url)
        for _ in range(3):
            assert agent.answer(AgentQuery("q", "c", "ASK")).answer == "50"
            assert chat_completion(model, build_prompt("q")) == "answer = 1"
    assert (len(agent_server.connections), len(model_server.connections)) == (1, 1)



def _run_with_src(code: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(solvechart.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)


def test_http_client_is_imported_only_when_a_backend_posts():
    # post_json speaks HTTP/1.1 itself, so neither module is imported, not even by an http post.
    probe = (
        "import sys, solvechart.agents, solvechart.evaluation, solvechart.solgen\n"
        "print(sorted(name for name in ('http.client', 'ssl') if name in sys.modules))\n"
        "print(solvechart.agents.HttpAgent(sys.argv[1]).answer(solvechart.agents.AgentQuery('q', 'c', 'ASK')).answer)\n"
        "print(sorted(name for name in ('http.client', 'ssl') if name in sys.modules))\n"
    )
    with json_server(lambda path, body: {"answer": "50"}) as (_, url):
        result = _run_with_src(probe, url)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:3] == ["[]", "50", "[]"]


def test_recording_through_http_imports_neither_requests_nor_urllib3(tmp_path):
    probe = (
        "import sys\n"
        "from solvechart.agents import AgentQuery, Cassette, HttpAgent, ReplayAgent\n"
        "recorder = ReplayAgent(Cassette.record(sys.argv[2]), live=HttpAgent(sys.argv[1]))\n"
        "print(recorder.answer(AgentQuery('q', 'c', 'SUBSTEP')).answer)\n"
        "print(sorted(name for name in ('requests', 'urllib3') if name in sys.modules))\n"
    )
    recorded = tmp_path / "recorded.json"
    with json_server(lambda path, body: {"answer": "50"}) as (_, url):
        result = _run_with_src(probe, url, str(recorded))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["50", "[]"]
    assert json.loads(recorded.read_text(encoding="utf-8")) == [{"chart_id": "c", "question": "q", "answer": "50"}]


def test_concurrent_first_posts_share_the_pool():
    workers = 8
    start = threading.Barrier(workers)
    answers = []

    def ask(url):
        start.wait(timeout=10)
        answers.append(HttpAgent(url).answer(AgentQuery("q", "c", "ASK")).answer)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with json_server(lambda path, body: {"answer": "50"}) as (server, url):
            threads = [threading.Thread(target=ask, args=(url,)) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            opened = len(server.connections)
            assert HttpAgent(url).answer(AgentQuery("q", "c", "ASK")).answer == "50"
            reopened = len(server.connections)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == ["50"] * workers
    assert 1 <= opened <= workers
    assert reopened == opened  # the sequential post took an idle connection


def test_idle_connection_closed_by_the_server_is_replaced():
    with json_server(lambda path, body: {"answer": "50"}) as (server, url):
        agent = HttpAgent(url)
        assert agent.answer(AgentQuery("q", "c", "ASK")).answer == "50"
        server.connections[0].shutdown(socket.SHUT_RDWR)
        time.sleep(0.05)  # lets the close reach the client's idle socket
        assert agent.answer(AgentQuery("q", "c", "ASK")).answer == "50"
        assert len(server.connections) == 2


HELD_FDS = 1100  # descriptors held open, so the next socket's number is past select's FD_SETSIZE of 1024


def test_pool_reuses_a_socket_whose_descriptor_is_past_fd_setsize():
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    if hard != resource.RLIM_INFINITY and hard < HELD_FDS + 100:
        pytest.skip(f"the hard descriptor limit {hard} is below {HELD_FDS + 100}")
    probe = (
        "import os, resource, sys\n"
        "from solvechart.agents import http\n"
        "held, need = int(sys.argv[2]), int(sys.argv[2]) + 100\n"
        "soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
        "if soft != resource.RLIM_INFINITY and soft < need:\n"
        "    resource.setrlimit(resource.RLIMIT_NOFILE, (need, hard))\n"
        "fds = [os.open(os.devnull, os.O_RDONLY) for _ in range(held)]\n"
        "for _ in range(20):\n"
        "    http.post_json(sys.argv[1], '/answer', {}, timeout_s=5)\n"
        "print(http._idle[-1][1].fileno())\n"
    )
    with json_server(lambda path, body: {"answer": "50"}) as (server, url):
        result = _run_with_src(probe, url, str(HELD_FDS))
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) >= 1024
    assert len(server.connections) == 1


def test_body_over_the_cap_is_bad_response_and_drops_its_connection(monkeypatch):
    monkeypatch.setattr(agents_http, "MAX_BODY_BYTES", 100)
    with json_server(lambda path, body: {"answer": "x" * (200 if body["question"] == "big" else 1)}) as (server, url):
        agent = HttpAgent(url)
        with pytest.raises(AgentError) as err:
            agent.answer(AgentQuery("big", "c", "ASK"))
        assert err.value.kind is ErrorKind.BAD_RESPONSE
        assert agent.answer(AgentQuery("small", "c", "ASK")).answer == "x"
        assert len(server.connections) == 2


def test_http_timeouts_map_to_each_backends_kind():
    def slow(path, body):
        time.sleep(0.3)
        return {}

    with json_server(slow) as (_, url):
        with pytest.raises(AgentError) as agent_err:
            HttpAgent(url, timeout_s=0.05).answer(AgentQuery("q", "c", "ASK"))
        with pytest.raises(LlmError) as model_err:
            chat_completion(LlmConfig(endpoint=url, timeout_s=0.05), build_prompt("q"))
    assert agent_err.value.kind is ErrorKind.TIMEOUT
    assert model_err.value.kind is ErrorKind.TIMEOUT
