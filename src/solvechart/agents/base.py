"""Agent query/answer types and the backend protocol.

ASK and SUBSTEP are metadata on the query: every backend must answer both
through the same lookup path, so routing never depends on the operator.
A query may also carry its program's Lookahead, which an agent is free to
ignore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..dsl.nodes import AGENT_CALLEES
from ..errors import ErrorKind, SolveChartError

__all__ = ["AgentAnswer", "AgentError", "AgentHandle", "AgentQuery", "Lookahead"]


class AgentError(SolveChartError):
    """Raised when a backend cannot produce an answer."""


class Lookahead:
    """The leading independent agent calls of one program run, which a live agent may send together.

    calls holds each member's (operator, question) in program order, and at
    is the index of the member being asked.  A record ReplayAgent sets a
    later member's entry to None where a serial run would not send it live;
    the agent that sends members together keeps their outcomes in replies,
    by index.  The object lives for one run, on one thread.
    """

    __slots__ = ("calls", "at", "replies")

    def __init__(self, calls: list[tuple[str, str] | None]) -> None:
        self.calls = calls
        self.at = 0
        self.replies: dict[int, AgentAnswer | AgentError] | None = None


@dataclass(frozen=True)
class AgentQuery:
    question: str
    chart_id: str
    operator: str  # "ASK" or "SUBSTEP"
    # Set by the engine on a program's leading independent calls only; not part of the query's value.
    lookahead: Lookahead | None = field(default=None, compare=False, repr=False)

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
