"""post_json's own HTTP/1.1 reader against raw canned replies.

A raw socket server answers each request with canned bytes.  What
post_json makes of them is checked against http.client.HTTPResponse,
the standard library's parser, reading the same bytes.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
import time
from contextlib import ExitStack, contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvechart.agents import http as agents_http
from solvechart.agents.base import AgentError, AgentQuery
from solvechart.agents.http import HttpAgent, post_json
from solvechart.errors import ErrorKind, SolveChartError
from solvechart.solgen.client import LlmConfig, chat_completion
from solvechart.solgen.prompt import build_prompt

BODY = json.dumps({"answer": "50", "note": "a longer body that chunking can split"}).encode()


def _read_request(conn: socket.socket) -> bytes | None:
    """One request, head and body, or None once the client has closed the connection."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(int(line.split(b":", 1)[1]) for line in head.split(b"\r\n") if line.lower().startswith(b"content-length:"))
    while len(body) < length:
        body += conn.recv(65536)
    return data


@contextmanager
def canned_server(replies: list[tuple[bytes, bool]], drip: bool = False, pause_s: float = 0.0):
    """Serves replies in order, one per request: (raw bytes, close the connection after it).

    With drip, each reply goes out one byte per send, pause_s apart.  Yields a
    state dict with the URL, the number of connections accepted and the
    requests received.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    state = {"url": f"http://127.0.0.1:{port}", "connections": 0, "requests": []}
    pending = list(replies)

    def serve():
        while pending:
            try:
                conn, _ = listener.accept()
            except OSError:  # the listener was closed
                return
            state["connections"] += 1
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while pending and (request := _read_request(conn)) is not None:
                    state["requests"].append(request)
                    raw, close = pending.pop(0)
                    try:
                        for piece in ([raw[i:i + 1] for i in range(len(raw))] if drip else [raw]):
                            conn.sendall(piece)
                            if pause_s:
                                time.sleep(pause_s)
                    except OSError:  # the client gave up and closed the connection
                        break
                    if close:
                        break

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield state
    finally:
        listener.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept, which close alone does not
        listener.close()
        key = ("http", "127.0.0.1", port)
        with agents_http._idle_lock:
            idle = [sock for pooled_key, sock in agents_http._idle if pooled_key == key]
            agents_http._idle[:] = [entry for entry in agents_http._idle if entry[0] != key]
        for sock in idle:
            sock.close()
        thread.join(timeout=5)


class _Bytes:
    """Enough of a socket for http.client.HTTPResponse to read canned bytes."""

    def __init__(self, data: bytes) -> None:
        self.data = data

    def makefile(self, mode: str):
        return io.BytesIO(self.data)


def reference(raw: bytes) -> http.client.HTTPResponse:
    """http.client's reading of raw, with its body as .body and whether its head delimits it as .delimited."""
    response = http.client.HTTPResponse(_Bytes(raw), method="POST")
    response.begin()
    response.delimited = response.chunked or response.length is not None
    response.body = response.read()
    return response


def _chunked(body: bytes, sizes=(7, 1, 20)) -> bytes:
    out, pos = b"", 0
    for n in sizes:
        out += b"%x;ext=%d\r\n" % (n, n) + body[pos:pos + n] + b"\r\n"
        pos += n
    rest = body[pos:]
    return out + b"%X\r\n" % len(rest) + rest + b"\r\n0;last\r\nX-Trailer: done\r\nX-Other: 2\r\n\r\n"


CANNED = {
    "content-length": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    % (len(BODY), BODY),
    "chunked-extensions-trailers": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + _chunked(BODY),
    "close-delimited": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + BODY,
    "100-then-200": b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
    % (len(BODY), BODY),
    "http-1.0": b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(BODY), BODY),
    "connection-close": b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s"
    % (len(BODY), BODY),
    "lf-only-mixed-case": b"HTTP/1.1 200 OK\ncontent-LENGTH: %d\nX-Empty:\n\n%s" % (len(BODY), BODY),
    "chunked-upper-case": b"HTTP/1.1 200 OK\r\nTRANSFER-ENCODING: Chunked\r\n\r\n" + _chunked(BODY, (1, 2)),
    "404": b"HTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\nnot found",
    "500-close-delimited": b"HTTP/1.1 500 Internal Server Error\r\n\r\noops",
    "204": b"HTTP/1.1 204 No Content\r\n\r\n",
    "99-headers": b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-%d: v\r\n" % i for i in range(98))
    + b"Content-Length: %d\r\n\r\n%s" % (len(BODY), BODY),
    "longest-header-line": b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (65536 - 10) + b"\r\nContent-Length: %d\r\n\r\n%s"
    % (len(BODY), BODY),
}


@pytest.mark.parametrize("drip", [False, True], ids=["whole", "dripped"])
@pytest.mark.parametrize("name", list(CANNED))
def test_reply_reads_as_http_client_reads_it(name, drip):
    raw = CANNED[name]
    expected = reference(raw)
    reusable = expected.version == 11 and not expected.will_close and expected.delimited
    # The server closes the connection only to end a close-delimited body, so a wrong reuse shows.
    with canned_server([(raw, not expected.delimited), (CANNED["content-length"], True)], drip=drip) as state:
        try:
            got = post_json(state["url"], "/answer", {"q": 1}, timeout_s=5)
        except AgentError as err:
            assert expected.status != 200
            assert err.kind is ErrorKind.TRANSPORT
            assert str(err) == f"transport: {state['url']}/answer returned HTTP {expected.status}"
        else:
            assert expected.status == 200
            assert got == json.loads(expected.body)
        post_json(state["url"], "/answer", {"q": 2}, timeout_s=5)
        assert state["connections"] == (1 if reusable else 2)


@pytest.mark.parametrize(
    "raw",
    [
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * (65536 - 9) + b"\r\n\r\n",  # a header line of 65,537 bytes
        b"HTTP/1.1 200 OK\r\n" + b"X: v\r\n" * 100 + b"\r\n",  # 100 headers and the blank line
        b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{}",  # the body ends early
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{}",  # a chunk ends early
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n",  # a bad chunk size
        b"ICY 200 OK\r\n\r\n{}",  # not HTTP
        b"HTTP/1.1 2000 OK\r\n\r\n{}",  # a status of four digits
        b"",  # closed without a reply
    ],
    ids=["long-line", "100-headers", "short-body", "short-chunk", "bad-chunk-size", "icy", "bad-status", "empty"],
)
def test_malformed_reply_is_transport_as_http_client_refuses_it(raw):
    with pytest.raises((http.client.HTTPException, ValueError)):
        reference(raw)
    with canned_server([(raw, True)]) as state:
        with pytest.raises(AgentError) as err:
            post_json(state["url"], "/answer", {}, timeout_s=5)
    assert err.value.kind is ErrorKind.TRANSPORT
    assert str(err.value).startswith(f"transport: cannot reach {state['url']}/answer: ")


def test_bytes_after_the_reply_keep_its_connection_out_of_the_pool():
    raw = CANNED["content-length"]
    with canned_server([(raw + b"HTTP/1.1 200 OK\r\n", False), (raw, True)]) as state:
        assert post_json(state["url"], "/answer", {}, timeout_s=5) == json.loads(BODY)
        assert post_json(state["url"], "/answer", {}, timeout_s=5) == json.loads(BODY)
        assert state["connections"] == 2


def test_request_is_one_post_with_the_fixed_headers():
    with canned_server([(CANNED["content-length"], True)]) as state:
        post_json(state["url"] + "/base", "/answer?x=1", {"q": "é"}, timeout_s=5, api_key="k")
    head, _, body = state["requests"][0].partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    port = state["url"].rsplit(":", 1)[1]
    assert lines[0] == b"POST /base/answer?x=1 HTTP/1.1"
    assert sorted(lines[1:]) == sorted([
        b"Host: 127.0.0.1:" + port.encode(), b"Accept-Encoding: identity", b"Content-Type: application/json",
        b"Authorization: Bearer k", b"Content-Length: %d" % len(body),
    ])
    assert json.loads(body) == {"q": "é"}


@pytest.mark.parametrize("api_key", ["k\r\nX-Injected: 1", "a\nb", "k\r"], ids=["crlf", "lf", "cr"])
def test_cr_or_lf_in_a_header_is_refused_before_connecting(api_key):
    with canned_server([(CANNED["content-length"], True)]) as state:
        with pytest.raises(AgentError) as err:
            post_json(state["url"], "/answer", {}, timeout_s=5, api_key=api_key)
        assert state["connections"] == 0
    assert err.value.kind is ErrorKind.TRANSPORT


def test_cr_or_lf_in_a_header_is_refused_after_the_url_was_posted_to():
    reply = (CANNED["content-length"], False)
    with canned_server([reply, reply]) as state:
        post_json(state["url"], "/answer", {}, timeout_s=5, api_key="k")
        with pytest.raises(AgentError) as err:
            post_json(state["url"], "/answer", {}, timeout_s=5, api_key="k\r\nX-Injected: 1")
        assert post_json(state["url"], "/answer", {}, timeout_s=5) == json.loads(BODY)
        assert state["connections"] == 1
    assert err.value.kind is ErrorKind.TRANSPORT
    assert [b"X-Injected" in request for request in state["requests"]] == [False, False]
    assert [b"Authorization" in request for request in state["requests"]] == [True, False]


def test_posts_to_two_paths_on_one_endpoint_each_send_their_own_request_line():
    reply = (CANNED["content-length"], False)
    with canned_server([reply, reply, reply]) as state:
        for path in ("/answer", "/v1/chat/completions?x=1", "/answer"):
            post_json(state["url"] + "/", path, {}, timeout_s=5)
    assert [request.split(b"\r\n", 1)[0] for request in state["requests"]] == [
        b"POST /answer HTTP/1.1", b"POST /v1/chat/completions?x=1 HTTP/1.1", b"POST /answer HTTP/1.1",
    ]


def test_space_in_the_path_is_refused_before_connecting():
    with canned_server([(CANNED["content-length"], True)]) as state:
        with pytest.raises(AgentError) as err:
            post_json(state["url"], "/an swer", {}, timeout_s=5)
        assert state["connections"] == 0
    assert err.value.kind is ErrorKind.TRANSPORT


@pytest.mark.parametrize(
    "head", [b"Transfer-Encoding: chunked\r\n\r\n%x\r\n" % len(BODY), b"Content-Length: %d\r\n\r\n" % len(BODY)],
    ids=["chunked", "content-length"],
)
def test_body_over_the_cap_is_bad_response_and_its_connection_is_dropped(monkeypatch, head):
    monkeypatch.setattr(agents_http, "MAX_BODY_BYTES", 30)
    # Only the first 31 body bytes go out, so the connection looks idle once they are read.
    raw = b"HTTP/1.1 200 OK\r\n" + head + BODY[:31]
    small = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
    with canned_server([(raw, False), (small, True)]) as state:
        with pytest.raises(AgentError) as err:
            post_json(state["url"], "/answer", {}, timeout_s=5)
        assert err.value.kind is ErrorKind.BAD_RESPONSE
        assert post_json(state["url"], "/answer", {}, timeout_s=5) == {}
        assert state["connections"] == 2


def test_idle_pool_keeps_at_most_its_limit_and_closes_the_sockets_it_evicts():
    limit = agents_http._MAX_IDLE
    pooled = []
    with ExitStack() as servers:
        for _ in range(limit + 3):
            state = servers.enter_context(canned_server([(CANNED["content-length"], True)]))
            post_json(state["url"], "/answer", {}, timeout_s=5)
            with agents_http._idle_lock:
                assert len(agents_http._idle) <= limit
                pooled.append(agents_http._idle[-1][1])
        with agents_http._idle_lock:
            kept = [sock for _, sock in agents_http._idle]
    assert kept == pooled[3:]
    assert [sock.fileno() for sock in pooled[:3]] == [-1, -1, -1]


DRIP_S = 0.05
TIMEOUT_S = 0.2


@pytest.mark.parametrize("backend", ["agent", "model"])
def test_a_dripped_reply_times_out_by_the_call_deadline(backend):
    # 40 bytes, one each 50 ms: every receive is well inside the timeout, the whole reply takes 2 s.
    raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
    with canned_server([(raw, True)], drip=True, pause_s=DRIP_S) as state:
        started = time.monotonic()
        with pytest.raises(SolveChartError) as err:
            if backend == "agent":
                HttpAgent(state["url"], timeout_s=TIMEOUT_S).answer(AgentQuery("q", "c", "ASK"))
            else:
                chat_completion(LlmConfig(endpoint=state["url"], timeout_s=TIMEOUT_S), build_prompt("q"))
        elapsed = time.monotonic() - started
    assert err.value.kind is ErrorKind.TIMEOUT
    assert TIMEOUT_S <= elapsed < TIMEOUT_S + DRIP_S + 0.1  # 0.1 s for the scheduler


def test_https_url_uses_tls_with_sni(monkeypatch):
    seen = {}

    class Context:
        def wrap_socket(self, sock, server_hostname):
            seen["server_hostname"] = server_hostname
            raise OSError("handshake refused")

    monkeypatch.setattr(agents_http, "_tls_context", lambda: Context())
    listener = socket.create_server(("127.0.0.1", 0))
    with listener:
        url = f"https://localhost:{listener.getsockname()[1]}"
        with pytest.raises(AgentError) as err:
            post_json(url, "/answer", {}, timeout_s=5)
    assert err.value.kind is ErrorKind.TRANSPORT
    assert seen == {"server_hostname": "localhost"}


_REPLY_PARTS = st.sampled_from([
    b"HTTP/1.1 200 OK\r\n", b"HTTP/1.0 404 x\r\n", b"HTTP/1.1 100 Continue\r\n", b"Content-Length: 2\r\n",
    b"Content-Length: -1\r\n", b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n", b"\r\n", b"\n",
    b"2\r\n", b"0\r\n", b"ff;x\r\n", b"{}", b'{"a": 1}', b"[", b"\x00\xff", b": v\r\n",
])


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=200), st.lists(_REPLY_PARTS, max_size=12).map(b"".join)))
def test_arbitrary_reply_bytes_fail_only_as_transport_bad_response_or_timeout(raw):
    with canned_server([(raw, True)]) as state:
        try:
            post_json(state["url"], "/answer", {}, timeout_s=5)
        except AgentError as err:
            assert err.kind in (ErrorKind.TRANSPORT, ErrorKind.BAD_RESPONSE, ErrorKind.TIMEOUT)
