from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from solvechart.agents.replay import Cassette
from solvechart.dsl import format_program, parse_program
from solvechart.errors import ErrorKind
from solvechart.solgen.client import (
    API_KEY_ENV,
    MAX_TOKENS,
    TEMPERATURE,
    LlmConfig,
    LlmError,
    chat_completion,
)
from solvechart.solgen.extract import ExtractionError, extract_program
from solvechart.solgen.generate import MAX_REPLY_CHARS, GenerationError, _try_accept, generate_solution
from solvechart.solgen.prompt import build_prompt, chart_hints, system_prompt

GOOD_SOURCE = 'first = SUBSTEP("what is the value of Apples in Jan")\nanswer = first'
GOOD_REPLY = f"Here is the program.\n```\n{GOOD_SOURCE}\n```\n"
GARBAGE_REPLY = "I think the chart shows about seven."
NO_ANSWER_REPLY = "```\nx = 1\n```"


# -- prompt -----------------------------------------------------------------

def test_system_prompt_is_deterministic():
    assert system_prompt() == system_prompt()
    assert len(system_prompt()) > 200


def test_system_prompt_states_the_contract():
    text = system_prompt()
    assert "Do not compute the answer; emit a program." in text
    for name in ("ASK", "SUBSTEP", "abs(", "min(", "max(", "sum(", "round("):
        assert name in text
    assert "answer" in text


def test_build_prompt_carries_question_verbatim():
    bundle = build_prompt("How many bars exceed 40%?")
    assert bundle.user == "Question: How many bars exceed 40%?"
    assert bundle.system == system_prompt()


def test_build_prompt_appends_hints():
    bundle = build_prompt("q", chart_hints="Fruit sales; series: Apples, Oranges")
    assert bundle.user.splitlines() == [
        "Question: q",
        "Chart: Fruit sales; series: Apples, Oranges",
    ]


def test_chart_hints_names_title_and_series(election_table):
    assert chart_hints(election_table) == "Vote share by party; series: Republican, Democrat"


def test_build_prompt_blank_hints_ignored():
    assert build_prompt("q", chart_hints="   ").user == "Question: q"
    assert build_prompt("q", chart_hints=None).user == "Question: q"


def test_build_prompt_rejects_empty_question():
    with pytest.raises(ValueError):
        build_prompt("")
    with pytest.raises(ValueError):
        build_prompt("   \n")


def test_build_prompt_deterministic():
    a = build_prompt("same question", chart_hints="same chart")
    b = build_prompt("same question", chart_hints="same chart")
    assert a == b


# -- extraction -------------------------------------------------------------

def test_extract_first_fence():
    assert extract_program("intro\n```\nanswer = 1\n```\noutro") == "answer = 1"


def test_extract_prefers_first_of_two_fences():
    reply = "```\nanswer = 1\n```\nor maybe\n```\nanswer = 2\n```"
    assert extract_program(reply) == "answer = 1"


def test_extract_language_tagged_fence():
    assert extract_program('```python\nanswer = ASK("q")\n```') == 'answer = ASK("q")'


def test_extract_fence_wins_over_suffix():
    reply = 'answer = 3\n```\nanswer = 4\n```'
    assert extract_program(reply) == "answer = 4"


def test_extract_suffix_after_prose():
    reply = 'Sure, the lookup is direct.\nanswer = ASK("What is the value of Thu?")'
    assert extract_program(reply) == 'answer = ASK("What is the value of Thu?")'


def test_extract_suffix_takes_longest_parse():
    reply = "x = 1\nanswer = x + 1"
    assert extract_program(reply) == reply


@pytest.mark.parametrize("opener", ["```", "```python"])
def test_extract_crlf_fence(opener):
    reply = f"{opener}\r\nanswer = 1\r\n```"
    assert extract_program(reply) == "answer = 1"
    program, fault = _try_accept(reply)
    assert fault is None
    assert program == parse_program("answer = 1")


def test_extract_fence_content_returned_even_if_unparseable():
    assert extract_program("```\n???\n```") == "???"


def test_extract_prose_only_fails():
    with pytest.raises(ExtractionError):
        extract_program("I cannot help with that request.")


def test_extract_empty_reply_fails():
    with pytest.raises(ExtractionError):
        extract_program("")
    with pytest.raises(ExtractionError):
        extract_program("\n  \n")


# -- chat endpoint stub -----------------------------------------------------

class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802  (http.server API)
        server = self.server
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        server.requests.append(
            {
                "path": self.path,
                "payload": payload,
                "auth": self.headers.get("Authorization"),
            }
        )
        step = server.script[min(len(server.requests) - 1, len(server.script) - 1)]
        kind = step[0]
        if kind == "http500":
            self.send_error(500)
            return
        if kind == "reply":
            body = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": step[1]}}]}
            ).encode("utf-8")
        elif kind == "notjson":
            body = b"<<surprise>>"
        elif kind == "badshape":
            body = json.dumps({"choices": []}).encode("utf-8")
        else:  # nonstr
            body = json.dumps({"choices": [{"message": {"content": 7}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.script = [("reply", GOOD_REPLY)]
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


# -- chat client ------------------------------------------------------------

def test_chat_completion_protocol(chat_server, monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    server, url = chat_server
    config = LlmConfig(endpoint=url, model="test-model")
    reply = chat_completion(config, build_prompt("q", chart_hints="h"))
    assert reply == GOOD_REPLY
    request = server.requests[0]
    assert request["path"] == "/v1/chat/completions"
    assert request["auth"] is None
    assert request["payload"]["model"] == "test-model"
    assert list(request["payload"]) == ["model", "messages", "temperature", "max_tokens"]
    assert request["payload"]["temperature"] == TEMPERATURE == 0.0
    assert request["payload"]["max_tokens"] == MAX_TOKENS == 512
    roles = [m["role"] for m in request["payload"]["messages"]]
    assert roles == ["system", "user"]
    assert request["payload"]["messages"][1]["content"] == "Question: q\nChart: h"


def test_chat_completion_sends_explicit_key(chat_server):
    server, url = chat_server
    chat_completion(LlmConfig(endpoint=url, api_key="sk-test"), build_prompt("q"))
    assert server.requests[0]["auth"] == "Bearer sk-test"


def test_chat_completion_key_from_environment(chat_server, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sk-env")
    server, url = chat_server
    chat_completion(LlmConfig(endpoint=url), build_prompt("q"))
    assert server.requests[0]["auth"] == "Bearer sk-env"


def test_chat_completion_trailing_slash_endpoint(chat_server):
    server, url = chat_server
    chat_completion(LlmConfig(endpoint=url + "/"), build_prompt("q"))
    assert server.requests[0]["path"] == "/v1/chat/completions"


def test_chat_completion_http_error_is_transport(chat_server):
    server, url = chat_server
    server.script = [("http500",)]
    with pytest.raises(LlmError) as excinfo:
        chat_completion(LlmConfig(endpoint=url), build_prompt("q"))
    assert excinfo.value.kind is ErrorKind.TRANSPORT


def test_chat_completion_rejects_non_json(chat_server):
    server, url = chat_server
    server.script = [("notjson",)]
    with pytest.raises(LlmError) as excinfo:
        chat_completion(LlmConfig(endpoint=url), build_prompt("q"))
    assert excinfo.value.kind is ErrorKind.BAD_RESPONSE


def test_chat_completion_rejects_bad_shape(chat_server):
    server, url = chat_server
    server.script = [("badshape",)]
    with pytest.raises(LlmError) as excinfo:
        chat_completion(LlmConfig(endpoint=url), build_prompt("q"))
    assert excinfo.value.kind is ErrorKind.BAD_RESPONSE


def test_chat_completion_rejects_non_string_content(chat_server):
    server, url = chat_server
    server.script = [("nonstr",)]
    with pytest.raises(LlmError) as excinfo:
        chat_completion(LlmConfig(endpoint=url), build_prompt("q"))
    assert excinfo.value.kind is ErrorKind.BAD_RESPONSE
    assert "not text" in str(excinfo.value)


def test_chat_completion_connection_refused():
    config = LlmConfig(endpoint="http://127.0.0.1:9", timeout_s=2.0)
    with pytest.raises(LlmError) as excinfo:
        chat_completion(config, build_prompt("q"))
    assert excinfo.value.kind is ErrorKind.TRANSPORT


# -- generation from a cassette ---------------------------------------------

def test_generate_from_cassette_matches_source():
    cassette = Cassette.empty()
    cassette.append("c1", "How much more?", GOOD_REPLY)
    program = generate_solution("How much more?", cassette, chart_id="c1")
    assert format_program(program) == format_program(parse_program(GOOD_SOURCE))


def test_generate_cassette_miss():
    with pytest.raises(GenerationError) as excinfo:
        generate_solution("never recorded", Cassette.empty(), chart_id="c1")
    assert excinfo.value.kind is ErrorKind.CASSETTE_MISS


def test_generate_cassette_unusable_reply_no_retry():
    cassette = Cassette.empty()
    cassette.append("c1", "q", "```\n???\n```")
    with pytest.raises(GenerationError) as excinfo:
        generate_solution("q", cassette, chart_id="c1")
    assert excinfo.value.kind is ErrorKind.INVALID_PROGRAM
    assert "recorded reply unusable" in str(excinfo.value)


def test_generate_cassette_rejects_answerless_program():
    cassette = Cassette.empty()
    cassette.append("c1", "q", NO_ANSWER_REPLY)
    with pytest.raises(GenerationError) as excinfo:
        generate_solution("q", cassette, chart_id="c1")
    assert excinfo.value.kind is ErrorKind.INVALID_PROGRAM
    assert "without assigning" in str(excinfo.value)


def test_generate_cassette_accepts_program_with_unreachable_statement():
    cassette = Cassette.empty()
    cassette.append("c1", "q", "answer = 1\nx = 2")
    program = generate_solution("q", cassette, chart_id="c1")
    assert program.warnings == ("unreachable statements after an unconditional 'answer' assignment",)
    assert format_program(program) == "answer = 1\nx = 2\n"


def test_million_statement_reply_is_refused_before_lexing():
    reply = "Here is the program:\n" + "x = 1\n" * 1_000_000 + "answer = x\n"
    cassette = Cassette.empty()
    cassette.append("c1", "q", reply)
    started = time.perf_counter()
    with pytest.raises(GenerationError) as excinfo:
        generate_solution("q", cassette, chart_id="c1")
    assert time.perf_counter() - started < 0.5
    assert excinfo.value.kind is ErrorKind.INVALID_PROGRAM
    assert f"over {MAX_REPLY_CHARS}" in str(excinfo.value)


def test_reply_over_the_agent_call_site_limit_is_invalid_program():
    reply = 'a=SUBSTEP("q")\n' * 6665 + "answer=a\n"
    assert len(reply) < MAX_REPLY_CHARS
    # Unfenced, the suffix scan refuses the whole reply rather than settle on its last 64 lines.
    for text in (reply, f"```\n{reply}```"):
        cassette = Cassette.empty()
        cassette.append("c1", "q", text)
        with pytest.raises(GenerationError) as excinfo:
            generate_solution("q", cassette, chart_id="c1")
        assert excinfo.value.kind is ErrorKind.INVALID_PROGRAM
        assert str(excinfo.value).endswith("program has 6665 agent call sites, more than 64")


def test_reply_bound_is_inclusive():
    program_text = "answer = 1\n"
    padded = program_text + "#" * (MAX_REPLY_CHARS - len(program_text))
    program, fault = _try_accept(padded)
    assert fault is None and format_program(program) == program_text
    assert _try_accept(padded + "\n") == (None, f"reply is {MAX_REPLY_CHARS + 1} characters, over {MAX_REPLY_CHARS}")


# -- live generation --------------------------------------------------------

def test_generate_live_single_shot(chat_server):
    server, url = chat_server
    program = generate_solution("q", LlmConfig(endpoint=url), chart_id="c1")
    assert format_program(program) == format_program(parse_program(GOOD_SOURCE))
    assert len(server.requests) == 1


def test_generate_live_repair_retry(chat_server):
    server, url = chat_server
    server.script = [("reply", NO_ANSWER_REPLY), ("reply", GOOD_REPLY)]
    program = generate_solution("q", LlmConfig(endpoint=url), chart_id="c1")
    assert format_program(program) == format_program(parse_program(GOOD_SOURCE))
    assert len(server.requests) == 2
    retry_user = server.requests[1]["payload"]["messages"][1]["content"]
    assert retry_user.startswith("Question: q")
    assert "could not be used" in retry_user
    assert "without assigning" in retry_user
    assert "fenced code block" in retry_user


def test_generate_live_gives_up_after_one_retry(chat_server):
    server, url = chat_server
    server.script = [("reply", GARBAGE_REPLY), ("reply", GARBAGE_REPLY)]
    with pytest.raises(GenerationError) as excinfo:
        generate_solution("q", LlmConfig(endpoint=url), chart_id="c1")
    assert excinfo.value.kind is ErrorKind.INVALID_PROGRAM
    assert "after retry" in str(excinfo.value)
    assert len(server.requests) == 2


def test_generate_live_transport_failure():
    config = LlmConfig(endpoint="http://127.0.0.1:9", timeout_s=2.0)
    with pytest.raises(LlmError) as excinfo:
        generate_solution("q", config, chart_id="c1")
    assert excinfo.value.kind is ErrorKind.TRANSPORT


def test_generate_live_http_error_maps_to_transport(chat_server):
    server, url = chat_server
    server.script = [("http500",)]
    with pytest.raises(LlmError) as excinfo:
        generate_solution("q", LlmConfig(endpoint=url), chart_id="c1")
    assert excinfo.value.kind is ErrorKind.TRANSPORT


def test_generate_live_malformed_completion_keeps_bad_response(chat_server):
    server, url = chat_server
    server.script = [("badshape",)]
    with pytest.raises(LlmError) as excinfo:
        generate_solution("q", LlmConfig(endpoint=url), chart_id="c1")
    assert excinfo.value.kind is ErrorKind.BAD_RESPONSE
    assert str(excinfo.value).startswith("bad-response: unexpected completion shape")


def test_generate_records_accepted_reply(chat_server, tmp_path):
    server, url = chat_server
    target = Cassette.empty(tmp_path / "gen.json")
    program = generate_solution(
        "How much more?", LlmConfig(endpoint=url), chart_id="c1", record_to=target
    )
    assert len(target) == 1
    assert target.lookup("c1", "How much more?") == GOOD_REPLY
    replayed = generate_solution("How much more?", Cassette.load(tmp_path / "gen.json"), chart_id="c1")
    assert format_program(replayed) == format_program(program)


def test_generate_does_not_record_rejected_replies(chat_server):
    server, url = chat_server
    server.script = [("reply", GARBAGE_REPLY), ("reply", GOOD_REPLY)]
    target = Cassette.empty()
    generate_solution("q", LlmConfig(endpoint=url), chart_id="c1", record_to=target)
    assert len(target) == 1
    assert target.lookup("c1", "q") == GOOD_REPLY
