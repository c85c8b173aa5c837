"""Answer agents: the boundary between programs and chart perception."""

from __future__ import annotations

from .base import AgentAnswer, AgentError, AgentHandle, AgentQuery
from .http import HttpAgent
from .oracle import OracleAgent, oracle_answer
from .replay import Cassette, ReplayAgent
from .table import ChartTable, Series, load_table

__all__ = [
    "AgentAnswer",
    "AgentError",
    "AgentHandle",
    "AgentQuery",
    "Cassette",
    "ChartTable",
    "HttpAgent",
    "OracleAgent",
    "ReplayAgent",
    "Series",
    "load_table",
    "oracle_answer",
]
