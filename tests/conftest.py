from __future__ import annotations

import json
import os
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import solvechart
from solvechart.agents.oracle import OracleAgent
from solvechart.agents.table import ChartTable, load_table

FIXTURES = Path(__file__).parent / "fixtures"

# The worked end-to-end example: decompose, subtract, decide by sign.
ELECTION_PROGRAM = """\
rep_2012 = SUBSTEP("what is the value of Republican in 2012")
dem_2012 = SUBSTEP("what is the value of Democrat in 2012")
difference_in_2012 = rep_2012 - dem_2012
if difference_in_2012 > 0:
    answer = "Republican"
else:
    answer = "Democrat"
"""


def src_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(solvechart.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def election_table() -> ChartTable:
    return load_table(FIXTURES / "tables" / "election.json")


@pytest.fixture(scope="session")
def fruit_table() -> ChartTable:
    return load_table(FIXTURES / "tables" / "fruit.json")


@pytest.fixture(scope="session")
def temps_table() -> ChartTable:
    return load_table(FIXTURES / "tables" / "temps.json")


@pytest.fixture
def election_agent(election_table: ChartTable) -> OracleAgent:
    return OracleAgent(election_table)


@pytest.fixture
def election_program_source() -> str:
    return ELECTION_PROGRAM


class _KeepAliveJsonHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keeps the connection open for the client to reuse
    disable_nagle_algorithm = True  # the body goes out after the headers without a delayed-ACK wait

    def do_POST(self):  # noqa: N802  (http.server API)
        length = int(self.headers.get("Content-Length", "0"))
        reply = self.server.respond(self.path, json.loads(self.rfile.read(length)))
        body = json.dumps(reply).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _CountingServer(ThreadingHTTPServer):
    """Keeps every accepted connection, and cuts the idle ones on close.

    Cutting them ends their handler threads, and a client cannot reuse one
    with a later server that happens to get the same port.  The handler
    threads are not daemons, so closing the server joins them: none is left
    to close its socket while the next test counts descriptors.
    """

    daemon_threads = False

    def __init__(self, *args):
        super().__init__(*args)
        self.connections = []

    def process_request(self, request, client_address):
        self.connections.append(request)
        super().process_request(request, client_address)

    def handle_error(self, request, client_address):
        pass  # the client sees a dropped connection; a reply cut off by a timeout is not an error

    def server_close(self):
        for request in self.connections:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # the handler already closed it
                pass
        super().server_close()  # joins the handler threads, which the shutdowns let end


@contextmanager
def json_server(respond):
    """A loopback keep-alive server whose POST replies are respond(path, body) as JSON.

    Yields the server, whose ``connections`` lists the accepted connections, and its URL.
    """
    server = _CountingServer(("127.0.0.1", 0), _KeepAliveJsonHandler)
    server.respond = respond
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
