"""HTTP agent backend, and the JSON POST that both live backends send.

The agent speaks a one-endpoint protocol: POST {endpoint}/answer with the
query as JSON, expecting {"answer": "..."} back.  The model client posts
through post_json too, so both reuse keep-alive connections from one pool.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any
from urllib.parse import urlsplit

from ..errors import ErrorKind, SolveChartError
from .base import AgentAnswer, AgentError, AgentQuery

__all__ = ["HttpAgent", "MAX_BODY_BYTES", "post_json"]

DEFAULT_TIMEOUT_S = 30.0
MAX_BODY_BYTES = 8 * 1024 * 1024  # a longer reply body is BAD_RESPONSE

# Idle keep-alive connections per (scheme, host, port), shared by all threads:
# a connection is taken for one request and put back once its reply body was
# read in full.  http.client is imported on the first post, so a process that
# never posts never imports it.
_idle: dict[tuple[str, str, int], list] = {}
_idle_lock = threading.Lock()


def _is_open(conn) -> bool:
    """True when an idle connection's peer has not closed it (and sent nothing unasked)."""
    import socket

    try:
        conn.sock.settimeout(0.0)
        # socket.socket.recv peeks at the raw stream, also beneath TLS (an SSLSocket refuses flags).
        socket.socket.recv(conn.sock, 1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        pass
    return False


def _connection(key: tuple[str, str, int], timeout_s: float):
    """An idle pooled connection to key that is still open, or a new one."""
    while True:
        with _idle_lock:
            stack = _idle.get(key)
            conn = stack.pop() if stack else None
        if conn is None:
            import http.client

            scheme, host, port = key
            kind = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
            return kind(host, port, timeout=timeout_s)
        if _is_open(conn):
            conn.sock.settimeout(timeout_s)
            return conn
        conn.close()


def post_json(
    endpoint: str, path: str, payload: dict, *, timeout_s: float, headers: dict | None = None,
    error: type[SolveChartError] = AgentError,
) -> Any:
    """POSTs payload as JSON to {endpoint}{path} and returns the decoded body.

    Raises:
        error (AgentError by default): TIMEOUT on timeouts, TRANSPORT on
            bad URLs, connection failures or non-200 statuses, BAD_RESPONSE
            when the body is not JSON or is over MAX_BODY_BYTES.
    """
    import http.client

    url = endpoint.rstrip("/") + path
    conn = None
    try:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError("not an http(s) URL")
        key = (parts.scheme, parts.hostname, parts.port or (443 if parts.scheme == "https" else 80))
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        conn = _connection(key, timeout_s)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        conn.request("POST", target, body, {"Content-Type": "application/json", **(headers or {})})
        response = conn.getresponse()
        data = response.read(MAX_BODY_BYTES + 1)
    # ValueError: a bad port, a NaN in the payload, or a header http.client refuses.
    except (OSError, http.client.HTTPException, ValueError) as err:
        if conn is not None:
            conn.close()
        if isinstance(err, TimeoutError):
            raise error(f"{url} timed out", ErrorKind.TIMEOUT) from err
        raise error(f"cannot reach {url}: {err}", ErrorKind.TRANSPORT) from err
    if response.status == 200 and response.isclosed() and not response.will_close:
        with _idle_lock:
            _idle.setdefault(key, []).append(conn)
    else:
        conn.close()
    if response.status != 200:
        raise error(f"{url} returned HTTP {response.status}", ErrorKind.TRANSPORT)
    if len(data) > MAX_BODY_BYTES:
        raise error(f"{url} sent a body over {MAX_BODY_BYTES} bytes", ErrorKind.BAD_RESPONSE)
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as err:  # RecursionError: nesting too deep to decode
        raise error(f"{url} sent a non-JSON body", ErrorKind.BAD_RESPONSE) from err


class HttpAgent:
    """Agent backend bound to one remote endpoint."""

    def __init__(self, endpoint: str, timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.endpoint = endpoint
        self.timeout_s = timeout_s

    def answer(self, query: AgentQuery) -> AgentAnswer:
        """Sends one query to POST {endpoint}/answer; raises AgentError as post_json does."""
        payload = {"question": query.question, "chart_id": query.chart_id, "operator": query.operator}
        started = time.perf_counter()
        body = post_json(self.endpoint, "/answer", payload, timeout_s=self.timeout_s)
        latency_ms = (time.perf_counter() - started) * 1000.0
        if not isinstance(body, dict) or not isinstance(body.get("answer"), str):
            raise AgentError(f'agent at {self.endpoint} sent no "answer" field', ErrorKind.BAD_RESPONSE)
        return AgentAnswer(body["answer"], latency_ms, "http")
