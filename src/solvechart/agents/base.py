"""Agent query/answer types and the backend protocol.

ASK and SUBSTEP are metadata on the query: every backend must answer both
through the same lookup path, so routing never depends on the operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..dsl.nodes import AGENT_CALLEES
from ..errors import ErrorKind, SolveChartError

__all__ = ["AgentAnswer", "AgentError", "AgentHandle", "AgentQuery"]


class AgentError(SolveChartError):
    """Raised when a backend cannot produce an answer."""


@dataclass(frozen=True)
class AgentQuery:
    question: str
    chart_id: str
    operator: str  # "ASK" or "SUBSTEP"

    def __post_init__(self) -> None:
        # The operator is set by code, so a bad one is a programming error.
        # The question comes from a model or a dataset, so a blank one is an
        # agent failure that the engine's fallback and the harness handle.
        if self.operator not in AGENT_CALLEES:
            raise ValueError(f"unknown operator {self.operator!r}")
        if not self.question.strip():
            raise AgentError("question must be non-empty", ErrorKind.UNANSWERABLE)


@dataclass(frozen=True)
class AgentAnswer:
    answer: str
    latency_ms: float
    backend: str

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")


class AgentHandle(Protocol):
    def answer(self, query: AgentQuery) -> AgentAnswer: ...
