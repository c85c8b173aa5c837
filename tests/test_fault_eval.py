"""An eval against an HTTP agent, or an HTTP model, that fails in each way a network can.

A loopback stub, keyed by question, resets the connection, answers 500,
drips its reply past the client's deadline, or closes the connection inside
the reply body; every other question gets a good reply: the oracle's answer
from the agent stub, the recorded program from the model stub.  The model
stub faults each way once on a first reply and once on the repair retry
that follows an unusable first reply.  Each eval runs at 1 and 4 workers,
and the checks are those of a healthy run: one result per item, a kinded
reason for each failure, the same report bytes, a bounded idle pool, and no
descriptor left open once it is drained.
"""

from __future__ import annotations

import dataclasses
import json
import os
import socket
import struct
import threading
import time
from typing import Callable

import pytest

from conftest import FIXTURES
from solvechart.agents import AgentError, Cassette, HttpAgent, http, load_table, oracle_answer
from solvechart.errors import ErrorKind
from solvechart.evaluation import EvalConfig, load_dataset, run_eval
from solvechart.solgen import LlmConfig

TIMEOUT_S = 0.3
DRIP_S = 0.02  # between two bytes of a dripped reply, which takes far longer than TIMEOUT_S in all
# Each question is the whole of an item asked directly, so both modes ask it: agent-only as the item's
# question and programmatic as its program's ASK.  The first two are also look-ahead members of other
# items' programs.
FAULTS = {
    "What is the value of Republican in 2012?": "reset",
    "What is the value of Democrat in 2010?": "500",
    "What is the highest value of Apples?": "drip",
    "What is the lowest value of Oranges?": "truncate",
}
# What each fault's item gives as its reason, after the kind.
SIGNS = {
    "reset": "Connection reset", "500": "returned HTTP 500", "drip": "timed out", "truncate": "inside the reply body",
}
# Faults on the model endpoint, by question and by the request they hit: the first, or the repair retry that
# follows UNUSABLE as the first reply.  No question here is faulted on the agent side.
MODEL_FAULTS = {
    "By how much did Republican exceed Democrat in 2012?": ("first", "reset"),
    "What is the average of Apples across Jan, Feb and Mar?": ("first", "500"),
    "What is the ratio of Apples in Feb to Oranges in Feb?": ("first", "drip"),
    "What is the total of Temperature on Mon, Tue and Wed?": ("first", "truncate"),
    "Is Democrat in 2012 greater than Democrat in 2010?": ("repair", "reset"),
    "Which fruit had larger sales in Mar?": ("repair", "500"),
    "What is the range of Temperature values?": ("repair", "drip"),
    "What is the value of Thu?": ("repair", "truncate"),
}
UNUSABLE = "I would need to see the chart before I can write a program."
REPAIR_NOTE = "Your previous reply could not be used"


def _reply(status: str, body: bytes) -> bytes:
    return f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body


class FaultStub:
    """A loopback HTTP/1.1 server, one thread per connection.

    reply(request) gives the fault to inject into the reply to one decoded
    request body, or None, and the JSON body of a good reply.
    """

    def __init__(self, reply: Callable[[dict], tuple[str | None, bytes]]) -> None:
        self.reply = reply
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.stopping = False
        self.threads = [threading.Thread(target=self._accept)]
        self.threads[0].start()

    def _accept(self) -> None:
        while not self.stopping:
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            thread = threading.Thread(target=self._serve, args=(conn,))
            self.threads.append(thread)
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        with conn:
            try:
                while (body := self._request(conn)) is not None and self._answer(conn, json.loads(body)):
                    pass
            except OSError:  # the client gave up on a dripped reply
                pass

    @staticmethod
    def _request(conn: socket.socket) -> bytes | None:
        """The body of the next request on conn, or None once the client has closed it."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        fields = dict(line.lower().split(b":", 1) for line in head.split(b"\r\n")[1:])
        length = int(fields[b"content-length"])
        while len(body) < length:
            body += conn.recv(65536)
        return body

    def _answer(self, conn: socket.socket, request: dict) -> bool:
        """Replies to one request; whether conn stays open for the next."""
        fault, body = self.reply(request)
        if fault == "reset":
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            return False
        if fault == "500":
            conn.sendall(_reply("500 Internal Server Error", b"{}"))
            return True
        reply = _reply("200 OK", body)
        if fault == "truncate":
            conn.sendall(reply[:-3])
            return False
        if fault == "drip":
            for byte in range(len(reply)):
                conn.sendall(reply[byte:byte + 1])
                time.sleep(DRIP_S)
            return False
        conn.sendall(reply)
        return True

    def close(self) -> None:
        """Stops accepting and waits for every connection to close; the pool must be drained first."""
        self.stopping = True
        for thread in self.threads:
            thread.join(timeout=10)
        self.listener.close()
        assert not any(thread.is_alive() for thread in self.threads)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _run_against(stub_reply: Callable[[dict], tuple[str | None, bytes]], items: list, config: Callable) -> list:
    """The reports of run_eval(items, config(stub url, workers)) at 1 and 4 workers, with the pool checked."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open descriptors")
    http._close_idle()
    start = _open_fds()
    stub = FaultStub(stub_reply)
    try:
        reports = [run_eval(items, config(stub.url, workers)) for workers in (1, 4)]
        with http._idle_lock:
            idle = [sock for _, sock in http._idle]
        assert len(idle) <= http._MAX_IDLE
        assert all(http._is_open(sock) for sock in idle)
    finally:
        http._close_idle()
        stub.close()
    deadline = time.monotonic() + 5
    while _open_fds() != start and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _open_fds() == start
    return reports


def _assert_faults_fail_only_their_items(items: list, reports: list, faults: dict[str, str]) -> None:
    """One result per item in order, equal report bytes, a kind leading every reason, each fault's sign in its own."""
    serial, parallel = reports
    assert [result.id for result in serial.items] == [item.id for item in items]
    assert serial.to_json_text() == dataclasses.replace(parallel, config=serial.config).to_json_text()
    kinds = {kind.value for kind in ErrorKind}
    reasons = {result.id: result.reason for result in serial.items if result.reason is not None}
    assert all(reason.partition(": ")[0] in kinds for reason in reasons.values()), reasons
    signs = {item.id: SIGNS[faults[item.question]] for item in items if item.question in faults}
    assert {item_id: sign for item_id, sign in signs.items() if sign in (reasons.get(item_id) or "")} == signs
    assert any(result.correct for result in serial.items)


@pytest.mark.parametrize("mode", ["agent_only", "programmatic"])
def test_faulty_agent_fails_only_its_own_items_the_same_at_any_worker_count(mode):
    items = load_dataset(FIXTURES / "dataset.jsonl")
    tables = {item.chart_id: load_table(item.table_path) for item in items}
    llm = Cassette.load(FIXTURES / "llm_cassette.json") if mode == "programmatic" else None

    def reply(request: dict) -> tuple[str | None, bytes]:
        try:
            answer = oracle_answer(tables[request["chart_id"]], request["question"])
        except AgentError:
            answer = "unanswerable"
        return FAULTS.get(request["question"]), json.dumps({"answer": answer}).encode()

    reports = _run_against(reply, items, lambda url, workers: EvalConfig(
        mode=mode, agent_factory=lambda item: HttpAgent(url, TIMEOUT_S), llm_client=llm, workers=workers))
    _assert_faults_fail_only_their_items(items, reports, FAULTS)


def test_faulty_model_fails_only_its_own_items_the_same_at_any_worker_count():
    """Programmatic eval against a live model endpoint; the oracle answers every agent call."""
    items = load_dataset(FIXTURES / "dataset.jsonl")
    recorded = json.loads((FIXTURES / "llm_cassette.json").read_text(encoding="utf-8"))
    programs = {entry["question"]: entry["answer"] for entry in recorded}
    asked = []  # (question, which request), one per request the stub read

    def reply(request: dict) -> tuple[str | None, bytes]:
        user = request["messages"][1]["content"]
        question = user.split("\n", 1)[0].removeprefix("Question: ")
        attempt = "repair" if REPAIR_NOTE in user else "first"
        asked.append((question, attempt))
        where, fault = MODEL_FAULTS.get(question, (None, None))
        content = UNUSABLE if where == "repair" and attempt == "first" else programs[question]
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        return fault if where == attempt else None, body

    reports = _run_against(reply, items, lambda url, workers: EvalConfig(
        mode="programmatic", llm_client=LlmConfig(endpoint=url, timeout_s=TIMEOUT_S), workers=workers))
    _assert_faults_fail_only_their_items(items, reports, {q: fault for q, (_, fault) in MODEL_FAULTS.items()})
    # Each run asked every question once, and a repair retry only where the first reply was unusable.
    want = [(item.question, "first") for item in items]
    want += [(question, "repair") for question, (where, _) in MODEL_FAULTS.items() if where == "repair"]
    assert sorted(asked) == sorted(want * 2)
