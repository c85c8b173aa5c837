"""Shared error base class and the one set of failure kinds.

Every domain error raised by this package derives from SolveChartError so
callers (the CLI in particular) can map failures to exit codes with a single
except clause.  A kinded error prints as "<kind>: <reason>", whichever layer
raised it, so a failure keeps one name from the backend up to the report.
"""

from __future__ import annotations

from enum import Enum


class ErrorKind(Enum):
    # agents and both live backends
    UNANSWERABLE = "unanswerable"
    TRANSPORT = "transport"
    TIMEOUT = "timeout"
    BAD_RESPONSE = "bad-response"
    CASSETTE_MISS = "cassette-miss"
    # solution generation
    INVALID_PROGRAM = "invalid-program"
    # program execution
    UNBOUND_VARIABLE = "unbound-variable"
    TYPE_MISMATCH = "type-mismatch"
    DIVISION_BY_ZERO = "division-by-zero"
    ANSWER_UNASSIGNED = "answer-unassigned"
    AGENT_FAILURE = "agent-failure"
    NON_FINITE = "non-finite"
    TEXT_TOO_LONG = "text-too-long"


class SolveChartError(Exception):
    """Base class for all domain errors raised by this package.

    `reason` is the bare message; with a kind set, the error prints as
    "<kind>: <reason>".
    """

    def __init__(self, message: str, kind: ErrorKind | None = None) -> None:
        super().__init__(message if kind is None else f"{kind.value}: {message}")
        self.kind = kind
        self.reason = message
