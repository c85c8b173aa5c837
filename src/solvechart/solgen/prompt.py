"""Prompt assembly for solution generation.

The system prompt ships as a versioned asset file so prompt changes are
diffable; build_prompt is deterministic, producing byte-identical text for
identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources

from ..agents.table import ChartTable

__all__ = ["PromptBundle", "build_prompt", "chart_hints", "system_prompt"]


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str


@cache
def system_prompt() -> str:
    """The packaged system prompt asset, read once per process."""
    return (resources.files("solvechart.solgen") / "assets" / "system_prompt.txt").read_text(
        encoding="utf-8"
    )


def chart_hints(table: ChartTable) -> str:
    """The chart context passed to build_prompt: the table's title and series names."""
    return f"{table.title}; series: {', '.join(table.series_names)}"


def build_prompt(question: str, chart_hints: str | None = None) -> PromptBundle:
    """Builds the message pair for one question.

    Args:
        question: The chart question; must be non-empty.
        chart_hints: Optional context about the chart (chart_hints' title and
            series names) appended to the user message as a "Chart:" line.
    """
    if not question.strip():
        raise ValueError("question must be non-empty")
    user_lines = [f"Question: {question.strip()}"]
    if chart_hints and chart_hints.strip():
        user_lines.append(f"Chart: {chart_hints.strip()}")
    return PromptBundle(system=system_prompt(), user="\n".join(user_lines))
