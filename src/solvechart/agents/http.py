"""HTTP agent backend.

Speaks a one-endpoint protocol: POST {endpoint}/answer with the query as
JSON, expecting {"answer": "..."} back.
"""

from __future__ import annotations

import time

import requests

from .base import AgentAnswer, AgentError, AgentErrorKind, AgentQuery

__all__ = ["HttpAgent"]

DEFAULT_TIMEOUT_S = 30.0


class HttpAgent:
    """Agent backend bound to one remote endpoint."""

    def __init__(self, endpoint: str, timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.endpoint = endpoint
        self.timeout_s = timeout_s

    def answer(self, query: AgentQuery) -> AgentAnswer:
        """Sends one query to POST {endpoint}/answer.

        Raises:
            AgentError: TIMEOUT on timeouts, TRANSPORT on connection failures or
                non-2xx statuses, BAD_RESPONSE when the reply is not the expected
                JSON shape.
        """
        url = self.endpoint.rstrip("/") + "/answer"
        payload = {"question": query.question, "chart_id": query.chart_id, "operator": query.operator}
        started = time.perf_counter()
        try:
            response = requests.post(url, json=payload, timeout=self.timeout_s)
        except requests.Timeout as err:
            raise AgentError(AgentErrorKind.TIMEOUT, f"agent at {url} timed out") from err
        except requests.RequestException as err:
            raise AgentError(AgentErrorKind.TRANSPORT, f"cannot reach agent at {url}: {err}") from err
        latency_ms = (time.perf_counter() - started) * 1000.0
        if response.status_code != 200:
            raise AgentError(AgentErrorKind.TRANSPORT, f"agent at {url} returned HTTP {response.status_code}")
        try:
            body = response.json()
        except ValueError as err:
            raise AgentError(AgentErrorKind.BAD_RESPONSE, f"agent at {url} sent non-JSON body") from err
        if not isinstance(body, dict) or not isinstance(body.get("answer"), str):
            raise AgentError(AgentErrorKind.BAD_RESPONSE, f"agent at {url} sent no \"answer\" field")
        return AgentAnswer(body["answer"], latency_ms, "http")
