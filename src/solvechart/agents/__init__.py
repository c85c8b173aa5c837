"""Answer agents: the boundary between programs and chart perception."""

from __future__ import annotations

from .base import AgentAnswer, AgentError, AgentErrorKind, AgentHandle, AgentQuery
from .http import HttpAgent
from .oracle import NoMatch, OracleAgent, TemplateMatch, match_template, oracle_answer
from .replay import Cassette, ReplayAgent
from .table import ChartTable, Series, load_table

__all__ = [
    "AgentAnswer",
    "AgentError",
    "AgentErrorKind",
    "AgentHandle",
    "AgentQuery",
    "Cassette",
    "ChartTable",
    "HttpAgent",
    "NoMatch",
    "OracleAgent",
    "ReplayAgent",
    "Series",
    "TemplateMatch",
    "load_table",
    "match_template",
    "oracle_answer",
]
