"""A program's leading agent calls, sent to an HTTP agent together.

The engine hands a program's leading SUBSTEP/ASK calls on string literals
(at most four) one Lookahead; HttpAgent sends them at once and reads the
replies in program order.  Each test here compares a run with a serial run,
which strips the look-ahead from every query, on one loopback server whose
replies wait a fixed delay.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import threading
import time

import pytest

from conftest import FIXTURES, json_server, src_env
from solvechart.agents import AgentAnswer, AgentError, AgentQuery, Cassette, HttpAgent, ReplayAgent, http, oracle_answer
from solvechart.agents.table import load_table
from solvechart.dsl import parse_program
from solvechart.engine import EngineConfig, EngineError, execute
from solvechart.engine.interpreter import LOOKAHEAD_CALLS
from solvechart.errors import ErrorKind
from solvechart.evaluation import EvalConfig, load_dataset, run_eval

DELAY_S = 0.1
Q1 = "what is the value of Republican in 2012"
Q2 = "what is the value of Democrat in 2012"
Q3 = "what is the value of Republican in 2010"
ANSWERS = {Q1: "50", Q2: "43", Q3: "47"}
THREE_SUBSTEPS = f'a = SUBSTEP("{Q1}")\nb = SUBSTEP("{Q2}")\nc = SUBSTEP("{Q3}")\nanswer = a - b + c\n'
FALLBACK = EngineConfig(fallback_to_ask=True, chart_id="election", question="Who won in 2012?")


class _Server:
    """A json_server respond: answers from ANSWERS ("0" otherwise) after a delay, and logs each question.

    A question in drop gets no reply: the handler raises, so the server
    closes the connection.  A question in delays waits its own delay.
    """

    def __init__(self, delays: dict | None = None, drop: tuple = ()) -> None:
        self.delays, self.drop = delays or {}, set(drop)
        self.received: list[str] = []
        self.lock = threading.Lock()

    def __call__(self, path: str, body: dict) -> dict:
        question = body["question"]
        with self.lock:
            self.received.append(question)
        time.sleep(self.delays.get(question, DELAY_S))
        if question in self.drop:
            raise ConnectionAbortedError(question)
        return {"answer": ANSWERS.get(question, "0")}

    def take(self) -> list[str]:
        """The questions received since the last take, sorted: members arrive in any order."""
        with self.lock:
            received, self.received = sorted(self.received), []
        return received


class _Serial:
    """Strips the look-ahead from each query, so every call goes out alone, as before look-ahead."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def answer(self, query: AgentQuery) -> AgentAnswer:
        return self.inner.answer(dataclasses.replace(query, lookahead=None))


class _Log:
    """Answers "1" and logs each query with its look-ahead's calls and index (None without one)."""

    def __init__(self) -> None:
        self.seen: list[tuple] = []

    def answer(self, query: AgentQuery) -> AgentAnswer:
        ahead = query.lookahead
        self.seen.append((query.question, None if ahead is None else (id(ahead), list(ahead.calls), ahead.at)))
        return AgentAnswer("1", 0.0, "log")


def _record_run(url: str, tmp_path, name: str, source: str = THREE_SUBSTEPS, serial: bool = False,
                cassette: list | None = None):
    """One execute through a record ReplayAgent over HttpAgent: (trace text, agent calls, record file bytes)."""
    path = tmp_path / f"{name}.json"
    record = Cassette(cassette or [], path=path)
    agent = ReplayAgent(record, live=HttpAgent(url))
    result = execute(parse_program(source), _Serial(agent) if serial else agent, FALLBACK)
    written = path.read_bytes() if path.exists() else None
    return result.trace.to_json_text(), result.trace.agent_calls, written


def test_leading_substeps_go_out_together():
    server = _Server()
    program = parse_program(THREE_SUBSTEPS)
    with json_server(server) as (_, url):
        started = time.perf_counter()
        result = execute(program, HttpAgent(url), EngineConfig(chart_id="election"))
        elapsed = time.perf_counter() - started
    assert result.answer == 54.0
    assert elapsed < 2 * DELAY_S
    assert server.take() == sorted([Q1, Q2, Q3])


def test_record_run_matches_a_serial_run_byte_for_byte(tmp_path):
    # Replies arrive in another order than the program's; each still pairs with its own call.
    server = _Server(delays={Q1: 0.15, Q2: 0.05, Q3: 0.1})
    with json_server(server) as (_, url):
        serial = _record_run(url, tmp_path, "serial", serial=True)
        sent_serially = server.take()
        started = time.perf_counter()
        together = _record_run(url, tmp_path, "together")
        elapsed = time.perf_counter() - started
    assert together == serial
    assert [call.raw_answer for call in together[1]] == ["50", "43", "47"]
    assert server.take() == sent_serially
    assert elapsed < 0.25  # 0.3 s in series


@pytest.mark.parametrize("failing", [Q1, Q2])
def test_failed_member_falls_back_as_serial_and_records_no_later_member(tmp_path, failing):
    server = _Server(drop=(failing,))
    with json_server(server) as (_, url):
        serial = _record_run(url, tmp_path, "serial", serial=True)
        server.take()
        together = _record_run(url, tmp_path, "together")
    assert together == serial
    trace_text, calls, _ = together
    assert "SUBSTEP failed: transport: cannot reach" in trace_text
    assert [call.question for call in calls] == [Q1] * (failing == Q2) + ["Who won in 2012?"]
    # What look-ahead changes: the members after the failed one were sent, and their replies dropped.
    assert server.take() == sorted([Q1, Q2, Q3, "Who won in 2012?"])


def test_later_member_whose_send_fails_goes_out_alone(monkeypatch):
    server, sends, send = _Server(), [], HttpAgent._send

    def refuse_q2_once(self, operator, question, chart_id):
        sends.append(question)
        if sends == [Q1, Q2]:
            raise AgentError("refused", ErrorKind.TRANSPORT)
        return send(self, operator, question, chart_id)

    monkeypatch.setattr(HttpAgent, "_send", refuse_q2_once)
    with json_server(server) as (_, url):
        result = execute(parse_program(THREE_SUBSTEPS), HttpAgent(url), EngineConfig(chart_id="election"))
    assert result.answer == 54.0
    assert sends == [Q1, Q2, Q3, Q2]
    assert server.take() == sorted([Q1, Q2, Q3])


def test_blank_member_fails_at_its_own_statement():
    server = _Server()
    source = f'a = SUBSTEP("{Q1}")\nb = SUBSTEP("  ")\nc = SUBSTEP("{Q3}")\nanswer = a\n'
    with json_server(server) as (_, url):
        with pytest.raises(EngineError, match="SUBSTEP failed: unanswerable: question must be non-empty") as failed:
            execute(parse_program(source), HttpAgent(url), EngineConfig(chart_id="election"))
    assert failed.value.kind is ErrorKind.AGENT_FAILURE
    assert server.take() == [Q1]


@pytest.mark.parametrize(
    "source, cassette, sent",
    [
        # The third member repeats the first's cassette key, in other case and spacing.
        (f'a = SUBSTEP("{Q1}")\nb = SUBSTEP("{Q2}")\nc = ASK("  {Q1.upper()}")\nd = SUBSTEP("{Q3}")\n'
         "answer = a + b + c + d\n", None, [Q1, Q2, Q3]),
        (THREE_SUBSTEPS, [{"chart_id": "election", "question": Q2, "answer": "43"}], [Q1, Q3]),
    ],
    ids=["duplicate-member", "cassette-holds-member-2"],
)
def test_record_mode_sends_what_a_serial_run_sends(tmp_path, source, cassette, sent):
    server = _Server()
    with json_server(server) as (_, url):
        serial = _record_run(url, tmp_path, "serial", source, serial=True, cassette=cassette)
        sent_serially = server.take()
        together = _record_run(url, tmp_path, "together", source, cassette=cassette)
        assert server.take() == sent_serially
    assert together == serial
    assert sent_serially == sorted(sent)


def test_bare_http_agent_sends_a_duplicate_member_as_a_serial_run_does():
    server = _Server()
    source = f'a = SUBSTEP("{Q1}")\nb = SUBSTEP("{Q1}")\nanswer = a + b\n'
    with json_server(server) as (_, url):
        result = execute(parse_program(source), HttpAgent(url), EngineConfig(chart_id="election"))
    assert result.answer == 100.0
    assert server.take() == [Q1, Q1]


def test_oracle_runs_unchanged(election_agent):
    program = parse_program(THREE_SUBSTEPS)
    assert execute(program, election_agent, FALLBACK) == execute(program, _Serial(election_agent), FALLBACK)


def test_engine_marks_the_leading_literal_calls_only():
    questions = [f"q{index}" for index in range(LOOKAHEAD_CALLS + 2)]
    source = "".join(f'v{index} = SUBSTEP("{q}")\n' for index, q in enumerate(questions)) + "answer = v0\n"
    agent = _Log()
    execute(parse_program(source), agent)
    members = [("SUBSTEP", q) for q in questions[:LOOKAHEAD_CALLS]]
    ahead_ids = {seen[1][0] for seen in agent.seen[:LOOKAHEAD_CALLS]}
    assert len(ahead_ids) == 1  # one object for the run
    assert [seen[1][1:] for seen in agent.seen[:LOOKAHEAD_CALLS]] == [(members, i) for i in range(LOOKAHEAD_CALLS)]
    assert [seen[1] for seen in agent.seen[LOOKAHEAD_CALLS:]] == [None, None]


@pytest.mark.parametrize(
    "source",
    [
        'a = SUBSTEP("q1")\nanswer = a\n',  # one call is not a run
        'a = SUBSTEP("q1")\nb = SUBSTEP("q" + "2")\nanswer = a\n',  # not a literal
        'a = SUBSTEP("q1")\nb = 2\nc = SUBSTEP("q3")\nanswer = a\n',  # not a call
        'a = SUBSTEP("q1")\nb = abs(SUBSTEP("q2"))\nanswer = a\n',  # not the assignment's value
    ],
)
def test_engine_marks_no_run_of_fewer_than_two(source):
    agent = _Log()
    execute(parse_program(source), agent)
    assert [seen[1] for seen in agent.seen] == [None] * len(agent.seen)


def test_fallback_ask_carries_no_lookahead():
    class FailSecond(_Log):
        def answer(self, query):
            reply = super().answer(query)
            if query.question == "q2":
                raise AgentError("no", ErrorKind.UNANSWERABLE)
            return reply

    agent = FailSecond()
    source = 'a = SUBSTEP("q1")\nb = SUBSTEP("q2")\nc = SUBSTEP("q3")\nanswer = a\n'
    result = execute(parse_program(source), agent, EngineConfig(fallback_to_ask=True, question="direct"))
    assert result.fallback_used
    assert [(question, ahead is None) for question, ahead in agent.seen] == [
        ("q1", False), ("q2", False), ("direct", True)
    ]


def test_eval_with_four_workers_matches_one_worker():
    items = load_dataset(FIXTURES / "dataset.jsonl")
    tables = {item.chart_id: load_table(item.table_path) for item in items}

    def respond(path, body):
        time.sleep(0.005)
        return {"answer": oracle_answer(tables[body["chart_id"]], body["question"])}

    llm = Cassette.load(FIXTURES / "llm_cassette.json")
    with json_server(respond) as (_, url):
        reports = [
            run_eval(items, EvalConfig(mode="programmatic", agent_factory=lambda item: HttpAgent(url),
                                       llm_client=llm, workers=workers))
            for workers in (1, 4)
        ]
    assert reports[0].items == reports[1].items
    oracle = run_eval(items, EvalConfig(mode="programmatic", llm_client=llm))
    assert reports[0].items == oracle.items


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_pool_stays_bounded_and_clean_over_failing_runs():
    count = iter(range(1, 1_000))

    def respond(path, body):
        time.sleep(0.002)
        if next(count) % 3 == 0:
            raise ConnectionAbortedError(body["question"])
        return {"answer": ANSWERS.get(body["question"], "0")}

    http._close_idle()
    has_fds = os.path.isdir("/proc/self/fd")
    start = _open_fds() if has_fds else 0
    program = parse_program(THREE_SUBSTEPS)
    with json_server(respond) as (_, url):
        agent = HttpAgent(url)
        fallbacks = 0
        for _ in range(50):
            try:
                fallbacks += execute(program, agent, FALLBACK).fallback_used
            except EngineError:  # the fallback ASK failed too
                fallbacks += 1
        assert fallbacks > 0
        with http._idle_lock:
            idle = [sock for _, sock in http._idle]
        assert len(idle) <= http._MAX_IDLE
        assert all(http._is_open(sock) for sock in idle)
    http._close_idle()
    if not has_fds:
        pytest.skip("no /proc/self/fd to count open descriptors")
    deadline = time.monotonic() + 5
    while _open_fds() != start and time.monotonic() < deadline:
        time.sleep(0.01)  # the server's handler threads close their ends on their own
    assert _open_fds() == start


def test_run_leaves_no_socket_open_at_exit(tmp_path):
    program = tmp_path / "p.txt"
    program.write_text(THREE_SUBSTEPS, encoding="utf-8")
    argv = [sys.executable, "-X", "dev", "-W", "error", "-c",
            "import sys; from solvechart.cli import main; sys.exit(main())"]
    with json_server(_Server()) as (_, url):
        done = subprocess.run([*argv, "run", "--program", str(program), "--agent", url], env=src_env(),
                              capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert "54" in done.stdout
