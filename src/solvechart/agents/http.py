"""HTTP agent backend, and the JSON POST that both live backends send.

The agent speaks a one-endpoint protocol: POST {endpoint}/answer with the
query as JSON, expecting {"answer": "..."} back.  The model client posts
through post_json too, so both reuse connections from one pooled session.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from ..errors import ErrorKind, SolveChartError
from .base import AgentAnswer, AgentError, AgentQuery

__all__ = ["HttpAgent", "post_json"]

DEFAULT_TIMEOUT_S = 30.0

# One requests.Session shared by all threads (urllib3's connection pool is
# thread-safe).  post_json builds it on the first post, so that a process which
# never posts never imports requests.
_session = None
_session_lock = threading.Lock()


def post_json(
    endpoint: str, path: str, payload: dict, *, timeout_s: float, headers: dict | None = None,
    error: type[SolveChartError] = AgentError,
) -> Any:
    """POSTs payload as JSON to {endpoint}{path} and returns the decoded body.

    Raises:
        error (AgentError by default): TIMEOUT on timeouts, TRANSPORT on
            connection failures or non-200 statuses, BAD_RESPONSE when the
            body is not JSON.
    """
    global _session
    import requests

    with _session_lock:
        if _session is None:
            _session = requests.Session()
        session = _session
    url = endpoint.rstrip("/") + path
    try:
        response = session.post(url, json=payload, headers=headers, timeout=timeout_s)
    except requests.Timeout as err:
        raise error(f"{url} timed out", ErrorKind.TIMEOUT) from err
    except requests.RequestException as err:
        raise error(f"cannot reach {url}: {err}", ErrorKind.TRANSPORT) from err
    if response.status_code != 200:
        raise error(f"{url} returned HTTP {response.status_code}", ErrorKind.TRANSPORT)
    try:
        return response.json()
    except ValueError as err:
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
