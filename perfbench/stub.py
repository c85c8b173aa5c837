"""Loopback model and answer-agent stub for the eval-live workload.

Serves two ports from one process, both HTTP/1.1 keep-alive with Nagle's
algorithm off (with it on, a reused connection waits out the client's
delayed ACK, about 40 ms per request):

* model: POST /v1/chat/completions answers from a reply table keyed by the
  question on the user message's "Question:" line.  An entry holds one or
  two replies; the second is served when the user message carries more than
  the question and chart lines, i.e. on the repair retry.
* agent: POST /answer answers from a table keyed by chart id and question.

Each reply waits REPLY_DELAY_S first.  GET /stats on either port returns the
connections accepted and the work requests served on that port, which give
connections per request.  Unknown keys get HTTP 404.

This process never imports solvechart, so its speed does not change with the
code under test.  Usage:

    python3 perfbench/stub.py MODEL_TABLE.json AGENT_TABLE.json

It prints one JSON line {"model": port, "agent": port} once both ports
listen, and shuts down when its standard input closes.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REPLY_DELAY_S = 0.010


class CountingServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, handler: type, table: dict) -> None:
        super().__init__(("127.0.0.1", 0), handler)
        self.table = table
        self.connections = 0
        self.requests = 0
        self.lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: CountingServer

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - signature is the base class's
        pass

    def _send(self, status: int, document: dict) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            stats = {"connections": self.server.connections, "requests": self.server.requests}
        self._send(200, stats)

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        with self.server.lock:
            self.server.requests += 1
        time.sleep(REPLY_DELAY_S)
        reply = self.reply(payload)
        if reply is None:
            self._send(404, {"error": "no reply recorded"})
        else:
            self._send(200, reply)

    def reply(self, payload: dict) -> dict | None:
        raise NotImplementedError


class ModelHandler(_Handler):
    def reply(self, payload: dict) -> dict | None:
        if self.path != "/v1/chat/completions":
            return None
        user = payload["messages"][-1]["content"]
        lines = [line for line in user.split("\n") if line.strip()]
        question = lines[0].removeprefix("Question: ")
        entry = self.server.table.get(question)
        if entry is None:
            return None
        retry = any(not line.startswith(("Question: ", "Chart: ")) for line in lines)
        replies = entry["replies"]
        content = replies[-1] if retry else replies[0]
        return {"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]}


class AgentHandler(_Handler):
    def reply(self, payload: dict) -> dict | None:
        if self.path != "/answer":
            return None
        answer = self.server.table.get(payload.get("chart_id"), {}).get(payload.get("question"))
        return None if answer is None else {"answer": answer}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        model_table = json.load(handle)
    with open(sys.argv[2], encoding="utf-8") as handle:
        agent_table = json.load(handle)
    servers = {"model": CountingServer(ModelHandler, model_table),
               "agent": CountingServer(AgentHandler, agent_table)}
    threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers.values()]
    for thread in threads:
        thread.start()
    print(json.dumps({name: s.server_address[1] for name, s in servers.items()}), flush=True)
    sys.stdin.read()
    for server in servers.values():
        server.shutdown()
        server.server_close()
    for thread in threads:
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
