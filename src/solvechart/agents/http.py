"""HTTP agent backend, and the JSON POST that both live backends send.

The agent speaks a one-endpoint protocol: POST {endpoint}/answer with the
query as JSON, expecting {"answer": "..."} back.  The model client posts
through post_json too, so both reuse keep-alive connections from one pool.

post_json speaks HTTP/1.1 on the socket itself: the request goes out in one
write, and the reply is read through one buffer, skipping 1xx replies, with
the head limits of the standard library's HTTP client.  Its body ends by
Content-Length, by chunked encoding or where the server closes the
connection.

Each endpoint URL is parsed once, and the head it fixes (request line,
Host, Accept-Encoding, Content-Type) is built once with it; a call adds
only the Authorization line when it has an API key, Content-Length and the
body.

post_json is its two halves in sequence: _send_json writes the request on a
pooled socket, and _read_json reads the reply and pools or closes the
socket.  HttpAgent sends a program's Lookahead members with the first half
each, then reads their replies in program order, all on the caller's thread.
"""

from __future__ import annotations

import atexit
import json
import re
import select
import socket
import threading
import time
from functools import cache, lru_cache
from typing import Any, NamedTuple
from urllib.parse import urlsplit

from ..errors import ErrorKind, SolveChartError
from .base import AgentAnswer, AgentError, AgentQuery, Lookahead

__all__ = ["HttpAgent", "MAX_BODY_BYTES", "post_json"]

DEFAULT_TIMEOUT_S = 30.0
MAX_BODY_BYTES = 8 * 1024 * 1024  # a longer reply body is BAD_RESPONSE
_MAX_LINE = 65536  # bytes in one reply head line, line end included (the stdlib client's limit)
_MAX_HEADERS = 100  # header (or trailer) lines of one head, its closing blank line included (the stdlib client's limit)
_RECV_BYTES = 65536
_MAX_ROUTES = 16  # endpoint URLs whose parse and fixed head are kept

# json.dumps(..., allow_nan=False) would build a new encoder on every call.
_encode_json = json.JSONEncoder(allow_nan=False).encode

_TARGET = re.compile(r"[\x21-\x7e]+")  # printable ASCII without spaces
_STATUS_LINE = re.compile(rb"\s*(HTTP/1\.\S*)\s+([1-9]\d\d)(?:\s.*)?", re.DOTALL)  # version, code 100-999
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")

# Idle keep-alive sockets with their (scheme, host, port), oldest first,
# shared by all threads: a socket is taken for one request and put back once
# its reply was read in full.  One put back past _MAX_IDLE closes the oldest,
# so no dead endpoint's socket is held for good.  ssl is imported on the
# first https post only.
_MAX_IDLE = 16
_idle: list[tuple[tuple[str, str, int], socket.socket]] = []
_idle_lock = threading.Lock()


@atexit.register
def _close_idle() -> None:
    """Closes every idle pooled socket, so none is left open at interpreter exit."""
    with _idle_lock:
        for _, sock in _idle:
            sock.close()
        _idle.clear()


@cache
def _tls_context():
    import ssl

    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    return context


def _is_open(sock: socket.socket) -> bool:
    """True when an idle socket's peer has neither closed it nor sent anything unasked."""
    try:
        if hasattr(select, "poll"):  # select.select cannot watch a descriptor numbered FD_SETSIZE or more
            poller = select.poll()
            poller.register(sock, select.POLLIN)
            return not poller.poll(0)
        # Windows has no poll; its select limits a count of sockets, not a descriptor number.
        return not select.select([sock], [], [], 0)[0]
    except OSError:
        return False


def _time_left(deadline: float) -> float:
    """Seconds until deadline (a time.monotonic() reading); TimeoutError once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("deadline passed")
    return left


def _connection(key: tuple[str, str, int], deadline: float) -> socket.socket:
    """The newest idle pooled socket to key that is still open, or a new one."""
    while True:
        with _idle_lock:
            keyed = [index for index, (idle_key, _) in enumerate(_idle) if idle_key == key]
            sock = _idle.pop(keyed[-1])[1] if keyed else None
        if sock is None:
            break
        if _is_open(sock):
            return sock
        sock.close()
    scheme, host, port = key
    sock = socket.create_connection((host, port), _time_left(deadline))
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if scheme == "https":
            # Each handshake read and write may take what is left when the handshake starts.
            sock.settimeout(_time_left(deadline))
            sock = _tls_context().wrap_socket(sock, server_hostname=host)
    except BaseException:
        sock.close()
        raise
    return sock


@lru_cache(maxsize=_MAX_ROUTES)
def _route(url: str) -> tuple[tuple[str, str, int], bytes]:
    """url's (scheme, host, port) and the head of a POST to it, up to its Authorization line.

    Raises:
        ValueError: not an http(s) URL, a bad port, or a target that cannot go on the wire.
    """
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError("not an http(s) URL")
    scheme, host, default_port = parts.scheme, parts.hostname, 443 if parts.scheme == "https" else 80
    port = parts.port or default_port
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if not _TARGET.fullmatch(target):
        raise ValueError(f"URL path can't contain control characters or spaces: {target!r}")
    authority = host if host.isascii() else host.encode("idna").decode("ascii")
    if ":" in authority:
        authority = f"[{authority}]"
    if port != default_port:
        authority = f"{authority}:{port}"
    head = f"POST {target} HTTP/1.1\r\nHost: {authority}\r\nAccept-Encoding: identity\r\n"
    return (scheme, host, port), (head + "Content-Type: application/json\r\n").encode("latin-1")


def _request(head: bytes, body: bytes, api_key: str | None) -> bytes:
    """The whole POST request, the route's head to the body, as the bytes to send in one write.

    Raises:
        ValueError: an API key holding CR or LF, or a character outside Latin-1.
    """
    auth = ""
    if api_key:
        if "\r" in api_key or "\n" in api_key:
            raise ValueError("API key contains CR or LF")
        auth = f"Authorization: Bearer {api_key}\r\n"
    return head + f"{auth}Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body


class _Reader:
    """Reads one reply from a socket through a single receive buffer.

    A stream that ends early is ConnectionError; a reply that breaks the
    protocol or the head limits is ValueError; a receive that would end past
    the deadline is TimeoutError.
    """

    __slots__ = ("sock", "deadline", "buf", "pos")

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        self.sock, self.deadline, self.buf, self.pos = sock, deadline, b"", 0

    def _recv(self, n: int) -> bytes:
        self.sock.settimeout(_time_left(self.deadline))
        return self.sock.recv(n)

    def line(self) -> bytes:
        """The next line, without its LF or CRLF ending."""
        while (end := self.buf.find(b"\n", self.pos)) < 0:
            if len(self.buf) - self.pos >= _MAX_LINE:
                raise ValueError("reply line too long")
            data = self._recv(_RECV_BYTES)
            if not data:
                raise ConnectionError("remote end closed the connection without a full reply")
            self.buf, self.pos = self.buf[self.pos:] + data, 0
        if end - self.pos >= _MAX_LINE:
            raise ValueError("reply line too long")
        line, self.pos = self.buf[self.pos:end], end + 1
        return line[:-1] if line.endswith(b"\r") else line

    def take(self, n: int) -> bytes:
        """The next n bytes, or fewer when the stream ends first."""
        first = self.buf[self.pos:self.pos + n]
        self.pos += len(first)
        parts, got = [first], len(first)
        while got < n and (data := self._recv(min(n - got, _RECV_BYTES))):
            parts.append(data)
            got += len(data)
        return b"".join(parts)

    def exactly(self, n: int) -> bytes:
        """The next n bytes; ConnectionError when the stream ends first."""
        data = self.take(n)
        if len(data) < n:
            raise ConnectionError("remote end closed the connection inside the reply body")
        return data

    def fields(self) -> dict[bytes, bytes]:
        """Header (or trailer) lines up to the blank line: lowercased name -> first value."""
        found: dict[bytes, bytes] = {}
        for _ in range(_MAX_HEADERS):
            line = self.line()
            if not line:
                return found
            name, colon, value = line.partition(b":")
            if not colon:
                raise ValueError(f"malformed header line {line[:80]!r}")
            found.setdefault(name.strip().lower(), value.strip())
        raise ValueError(f"got more than {_MAX_HEADERS} headers")

    def status(self) -> tuple[bytes, int]:
        """The next status line's version and code."""
        line = self.line()
        if not (match := _STATUS_LINE.fullmatch(line)):
            raise ValueError(f"malformed status line {line[:80]!r}")
        return match[1], int(match[2])

    def chunked(self) -> tuple[bytes, bool]:
        """A chunked body capped at MAX_BODY_BYTES + 1 bytes, and whether it was read to its end."""
        parts, size = [], 0
        while True:
            text = self.line().split(b";", 1)[0].strip()
            if not _CHUNK_SIZE.fullmatch(text):
                raise ValueError(f"malformed chunk size {text[:80]!r}")
            n = int(text, 16)
            if n == 0:
                self.fields()  # the trailer
                return b"".join(parts), True
            if size + n > MAX_BODY_BYTES:
                parts.append(self.exactly(MAX_BODY_BYTES + 1 - size))
                return b"".join(parts), False
            parts.append(self.exactly(n))
            size += n
            if self.line():
                raise ValueError("chunk data not followed by a line end")


def _reply(sock: socket.socket, deadline: float) -> tuple[int, bytes, bool]:
    """Reads one reply by deadline: (status, body, whether sock may be reused).

    The body is capped at MAX_BODY_BYTES + 1 bytes, and a longer one leaves
    sock unfit for reuse.  1xx replies before the final one are skipped.
    """
    reader = _Reader(sock, deadline)
    version, status = reader.status()
    while status < 200:
        reader.fields()
        version, status = reader.status()
    headers = reader.fields()
    delimited = True
    if status in (204, 304):
        body = b""
    elif headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        body, delimited = reader.chunked()
    elif (length := headers.get(b"content-length")) is not None:
        if not length.isdigit():
            raise ValueError(f"malformed Content-Length {length[:80]!r}")
        size = int(length)
        delimited = size <= MAX_BODY_BYTES
        body = reader.exactly(min(size, MAX_BODY_BYTES + 1))
    else:  # the body ends where the server closes the connection
        body = reader.take(MAX_BODY_BYTES + 1)
        delimited = False
    reusable = (
        delimited and version == b"HTTP/1.1" and b"close" not in headers.get(b"connection", b"").lower()
        and reader.pos == len(reader.buf)
    )
    return status, body, reusable


class _Sent(NamedTuple):
    """A request written on sock, whose reply is due by deadline."""

    url: str
    key: tuple[str, str, int]
    sock: socket.socket
    deadline: float


def _failure(error: type[SolveChartError], url: str, err: Exception) -> SolveChartError:
    """The error post_json raises for an OSError or ValueError on the way to url."""
    if isinstance(err, TimeoutError):
        return error(f"{url} timed out", ErrorKind.TIMEOUT)
    return error(f"cannot reach {url}: {err}", ErrorKind.TRANSPORT)


def post_json(
    endpoint: str, path: str, payload: dict, *, timeout_s: float, api_key: str | None = None,
    error: type[SolveChartError] = AgentError,
) -> Any:
    """POSTs payload as JSON to {endpoint}{path} and returns the decoded body.

    timeout_s bounds the whole call: connecting, sending and reading the reply.
    A non-empty api_key goes out as an ``Authorization: Bearer`` header.

    Raises:
        error (AgentError by default): TIMEOUT on timeouts, TRANSPORT on
            bad URLs, a refused API key, connection failures, malformed replies
            or non-200 statuses, BAD_RESPONSE when the body is not JSON or is over
            MAX_BODY_BYTES.
    """
    return _read_json(_send_json(endpoint, path, payload, timeout_s=timeout_s, api_key=api_key, error=error), error)


def _send_json(
    endpoint: str, path: str, payload: dict, *, timeout_s: float, api_key: str | None = None,
    error: type[SolveChartError] = AgentError,
) -> _Sent:
    """post_json's first half: writes the request on a pooled socket; raises as post_json does."""
    deadline = time.monotonic() + timeout_s
    url = endpoint.rstrip("/") + path
    sock = None
    try:
        key, head = _route(url)
        request = _request(head, _encode_json(payload).encode("utf-8"), api_key)
        sock = _connection(key, deadline)
        sock.settimeout(_time_left(deadline))  # sendall's timeout bounds the whole send
        sock.sendall(request)
    # ValueError: a bad port, a NaN in the payload or a refused API key.
    except (OSError, ValueError) as err:
        if sock is not None:
            sock.close()
        raise _failure(error, url, err) from err
    return _Sent(url, key, sock, deadline)


def _read_json(sent: _Sent, error: type[SolveChartError] = AgentError) -> Any:
    """post_json's second half: reads the reply, then pools or closes the socket; raises as post_json does."""
    url, key, sock, deadline = sent
    try:
        status, data, reusable = _reply(sock, deadline)
    except (OSError, ValueError) as err:  # ValueError: a malformed reply
        sock.close()
        raise _failure(error, url, err) from err
    if reusable:
        with _idle_lock:
            _idle.append((key, sock))
            # Past the limit, the oldest idle socket is closed in this one's place.
            sock = _idle.pop(0)[1] if len(_idle) > _MAX_IDLE else None
    if sock is not None:
        sock.close()
    if status != 200:
        raise error(f"{url} returned HTTP {status}", ErrorKind.TRANSPORT)
    if len(data) > MAX_BODY_BYTES:
        raise error(f"{url} sent a body over {MAX_BODY_BYTES} bytes", ErrorKind.BAD_RESPONSE)
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as err:  # RecursionError: nesting too deep to decode
        raise error(f"{url} sent a non-JSON body", ErrorKind.BAD_RESPONSE) from err


class HttpAgent:
    """Agent backend bound to one remote endpoint.

    The first member of a Lookahead to reach it goes out together with every
    later member still wanted, each on its own socket; the replies are then
    read in program order.  Each later member is answered from its reply,
    with the same answer or AgentError, and sends no request of its own.
    """

    def __init__(self, endpoint: str, timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.endpoint = endpoint
        self.timeout_s = timeout_s

    def answer(self, query: AgentQuery) -> AgentAnswer:
        """Sends one query to POST {endpoint}/answer; raises AgentError as post_json does."""
        ahead = query.lookahead
        if ahead is not None:
            if ahead.replies is None:
                ahead.replies = self._send_together(query, ahead)
            outcome = ahead.replies.pop(ahead.at, None)
            if isinstance(outcome, AgentError):
                raise outcome
            if outcome is not None:
                return outcome
        started = time.perf_counter()
        return self._answer(_read_json(self._send(query.operator, query.question, query.chart_id)), started)

    def _send(self, operator: str, question: str, chart_id: str) -> _Sent:
        payload = {"question": question, "chart_id": chart_id, "operator": operator}
        return _send_json(self.endpoint, "/answer", payload, timeout_s=self.timeout_s)

    def _answer(self, body: Any, started: float) -> AgentAnswer:
        latency_ms = (time.perf_counter() - started) * 1000.0
        if not isinstance(body, dict) or not isinstance(body.get("answer"), str):
            raise AgentError(f'agent at {self.endpoint} sent no "answer" field', ErrorKind.BAD_RESPONSE)
        return AgentAnswer(body["answer"], latency_ms, "http")

    def _send_together(self, query: AgentQuery, ahead: Lookahead) -> dict[int, AgentAnswer | AgentError]:
        """Sends query, member ahead.at, and each later member still wanted, then reads every reply in order.

        A failed send of query raises before any later member is sent.  A
        later member whose send fails is left out; it goes out alone when
        its own statement asks it.
        """
        sent = [(ahead.at, time.perf_counter(), self._send(query.operator, query.question, query.chart_id))]
        for index in range(ahead.at + 1, len(ahead.calls)):
            if (call := ahead.calls[index]) is not None:
                started = time.perf_counter()
                try:
                    sent.append((index, started, self._send(*call, query.chart_id)))
                except AgentError:
                    pass
        outcomes: dict[int, AgentAnswer | AgentError] = {}
        for index, started, request in sent:
            try:
                outcomes[index] = self._answer(_read_json(request), started)
            except AgentError as err:
                outcomes[index] = err
        return outcomes
