"""Deterministic interpreter for solution programs."""

from __future__ import annotations

from .interpreter import (
    AgentCallRecord,
    EngineConfig,
    ExecutionResult,
    ExecutionTrace,
    TraceStep,
    execute,
)
from .values import EngineError, Value, coerce_numeric, stringify

__all__ = [
    "AgentCallRecord",
    "EngineConfig",
    "EngineError",
    "ExecutionResult",
    "ExecutionTrace",
    "TraceStep",
    "Value",
    "coerce_numeric",
    "execute",
    "stringify",
]
