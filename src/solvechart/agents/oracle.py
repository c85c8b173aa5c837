"""Pure table-backed oracle over a closed set of question templates.

The oracle answers by template match followed by table lookup; it never
guesses.  Questions are normalized (lowercased, punctuation stripped) before
matching, and slot text is resolved against the table's vocabulary with
longest match winning.  Anything outside the template set is unanswerable,
which is what makes compositional questions interesting for programs.
"""

from __future__ import annotations

import math
import operator
import re
from functools import partial
from typing import Callable

from ..engine.values import stringify
from ..errors import ErrorKind
from .base import AgentAnswer, AgentError, AgentQuery
from .table import ChartTable, Series, normalize_question

__all__ = ["OracleAgent", "oracle_answer"]


def _unanswerable(message: str) -> AgentError:
    return AgentError(message, ErrorKind.UNANSWERABLE)


def _resolve_name(part: str, names: list[str]) -> str | None:
    """Finds the table name the slot text refers to, longest match first."""
    padded = f" {part} "
    best: str | None = None
    for name in names:
        folded = normalize_question(name)
        if not folded:
            continue
        if part == folded or f" {folded} " in padded:
            if best is None or len(folded) > len(normalize_question(best)):
                best = name
    return best


def _resolve_cell(table: ChartTable, text: str) -> tuple[str, str] | None:
    """Maps slot text to (series name, category), or None."""
    pieces = text.split(" in ")
    if len(pieces) > 1:
        for split in range(len(pieces) - 1, 0, -1):
            series = _resolve_name(" in ".join(pieces[:split]), table.series_names())
            category = _resolve_name(" in ".join(pieces[split:]), table.categories())
            if series is not None and category is not None:
                return series, category
    if len(table.series) == 1:
        category = _resolve_name(text, table.categories())
        if category is not None:
            return table.series[0].name, category
    return None


def _read_cell(table: ChartTable, text: str) -> tuple[bool, float | None]:
    """Resolves slot text to a cell, then looks it up: (resolved, value or None)."""
    cell = _resolve_cell(table, text)
    return cell is not None, None if cell is None else table.lookup(*cell)


def _value_of(table: ChartTable, rest: str) -> str:
    resolved, value = _read_cell(table, rest)
    if value is None:
        raise _unanswerable(f"no point for {rest!r}" if resolved else f"cannot resolve {rest!r} against the table")
    return stringify(value)


def _extreme_of_series(table: ChartTable, which: str, series: str) -> str:
    name = _resolve_name(series, table.series_names())
    entry = table.find_series(name) if name is not None else None
    if entry is None or not entry.values:
        raise _unanswerable(f"cannot resolve series {series!r}")
    pick = max if which in ("highest", "maximum", "max") else min
    return stringify(pick(entry.values))


def _arg_extreme(table: ChartTable, subject: str, which: str) -> str:
    """Names the series or category of the overall highest/lowest point, table order on ties.

    Within a series `pick` returns the first extreme value and `index` finds its
    first position; a later series wins only with a strictly better value.
    Both are exact, as cells are finite.
    """
    pick, beats = (max, operator.gt) if which == "highest" else (min, operator.lt)
    best: tuple[Series, float] | None = None
    for entry in table.series:
        if entry.values:
            value = pick(entry.values)
            if best is None or beats(value, best[1]):
                best = (entry, value)
    if best is None:
        raise _unanswerable("table has no points")
    entry, value = best
    return entry.name if subject == "series" else entry.categories[entry.values.index(value)]


def _two_cells(combine: Callable[[float, float], float], table: ChartTable, rest: str) -> str:
    """Combines the first split of the slot text into two cells that both have a point."""
    pieces = rest.split(" and ")
    if len(pieces) < 2:
        raise _unanswerable(f"expected two cells in {rest!r}")
    for split in range(1, len(pieces)):
        _, first = _read_cell(table, " and ".join(pieces[:split]))
        if first is None:
            continue
        _, second = _read_cell(table, " and ".join(pieces[split:]))
        if second is not None:
            value = combine(first, second)
            if not math.isfinite(value):
                raise _unanswerable(f"{rest!r} combines to {value}, which is not finite")
            return stringify(value)
    raise _unanswerable(f"cannot resolve two cells in {rest!r}")


_PREFIX = r"(?:what is |whats |what s |what was )?(?:the )?"

# One (pattern, handler) row per template, tried in order; the first full match calls its handler.
_TEMPLATES = (
    (re.compile(_PREFIX + r"(?P<which>highest|lowest|maximum|minimum|max|min) value of (?P<series>.+)"),
     _extreme_of_series),
    (re.compile(_PREFIX + r"value of (?P<rest>.+)"), _value_of),
    (re.compile(r"which (?P<subject>\w+) has the (?P<which>highest|lowest) value"), _arg_extreme),
    (re.compile(_PREFIX + r"sum of (?P<rest>.+)"), partial(_two_cells, operator.add)),
    (re.compile(_PREFIX + r"difference (?:of|between) (?P<rest>.+)"), partial(_two_cells, operator.sub)),
)


def oracle_answer(table: ChartTable, question: str) -> str:
    """Answers a template question from the table, numbers via stringify.

    Raises AgentError (UNANSWERABLE) when no template fits or a slot does not
    resolve against the table.
    """
    text = normalize_question(question)
    for pattern, handler in _TEMPLATES:
        match = pattern.fullmatch(text)
        if match:
            return handler(table, **match.groupdict())
    raise _unanswerable(f"no template matches {question!r}")


class OracleAgent:
    """Agent backend that answers from one chart table, deterministically."""

    def __init__(self, table: ChartTable) -> None:
        self.table = table

    def answer(self, query: AgentQuery) -> AgentAnswer:
        return AgentAnswer(oracle_answer(self.table, query.question), 0.0, "oracle")
