"""Deterministic interpreter for solution programs."""

from __future__ import annotations

from .interpreter import (
    AgentCallRecord,
    EngineConfig,
    EngineError,
    ExecutionResult,
    ExecutionTrace,
    TraceStep,
    execute,
)

__all__ = [
    "AgentCallRecord",
    "EngineConfig",
    "EngineError",
    "ExecutionResult",
    "ExecutionTrace",
    "TraceStep",
    "execute",
]
