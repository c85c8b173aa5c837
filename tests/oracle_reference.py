"""Reference oracle: the template oracle as it stood before the one-table rewrite.

Kept verbatim (only the imports are absolute) as the behaviour spec for
`solvechart.agents.oracle`: on any valid table and any question, both must
give the same answer, or the same error class, kind and message.  The
additions are the table reads the oracle made then, so that the spec reads
only table fields (`title`, `series`, and each series' `name`, `categories`
and `values`) and leans on no table code it checks: `categories`, the
first-seen label walk, and `_series_names`, `_points`, `_find_series` and
`_lookup`, the casefold name search and point pairs the table offered then.

Pure table-backed oracle over a closed set of question templates.

The oracle answers by template match followed by table lookup; it never
guesses.  Questions are normalized (lowercased, punctuation stripped) before
matching, and slot text is resolved against the table's vocabulary with
longest match winning.  Anything outside the template set is unanswerable,
which is what makes compositional questions interesting for programs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from solvechart.agents.base import AgentAnswer, AgentError, AgentQuery
from solvechart.agents.table import ChartTable, Series
from solvechart.values import stringify
from solvechart.errors import ErrorKind

__all__ = ["OracleAgent", "TemplateMatch", "categories", "match_template", "oracle_answer"]


@dataclass(frozen=True)
class TemplateMatch:
    kind: str
    slots: dict[str, str]


_PREFIX = r"(?:what is |whats |what s |what was )?(?:the )?"
_EXTREME_WORDS = {"highest": "highest", "maximum": "highest", "max": "highest",
                  "lowest": "lowest", "minimum": "lowest", "min": "lowest"}

# Tried in order; the first full match wins.
_TEMPLATES = (
    ("extreme_of_series", re.compile(
        _PREFIX + r"(?P<which>highest|lowest|maximum|minimum|max|min) value of (?P<series>.+)"
    )),
    ("value_of", re.compile(_PREFIX + r"value of (?P<rest>.+)")),
    ("arg_extreme", re.compile(r"which (?P<subject>\w+) has the (?P<which>highest|lowest) value")),
    ("cell_sum", re.compile(_PREFIX + r"sum of (?P<rest>.+)")),
    ("cell_diff", re.compile(_PREFIX + r"difference (?:of|between) (?P<rest>.+)")),
)


def normalize_question(text: str) -> str:
    """Lowercases and strips punctuation, collapsing runs of whitespace."""
    lowered = text.casefold()
    cleaned = re.sub(r"[^a-z0-9]+", " ", lowered)
    return cleaned.strip()


def _unanswerable(message: str) -> AgentError:
    return AgentError(message, ErrorKind.UNANSWERABLE)


def match_template(question: str) -> TemplateMatch:
    """Classifies a question against the closed template set.

    Raises AgentError (UNANSWERABLE) when nothing fits.  Slot strings are
    raw normalized text; they are resolved against a concrete table only at
    answer time.
    """
    text = normalize_question(question)
    for kind, pattern in _TEMPLATES:
        match = pattern.fullmatch(text)
        if match:
            slots = match.groupdict()
            if kind == "extreme_of_series":
                slots["which"] = _EXTREME_WORDS[slots["which"]]
            return TemplateMatch(kind, slots)
    raise _unanswerable(f"no template matches {question!r}")


def _series_names(table: ChartTable) -> list[str]:
    return [entry.name for entry in table.series]


def _points(series: Series) -> list[tuple[str, float]]:
    """The (category, value) pairs in series order."""
    return list(zip(series.categories, series.values))


def _find_series(table: ChartTable, name: str) -> Series | None:
    folded = name.casefold()
    for entry in table.series:
        if entry.name.casefold() == folded:
            return entry
    return None


def _lookup(table: ChartTable, series_name: str, category: str) -> float | None:
    entry = _find_series(table, series_name)
    if entry is None:
        return None
    folded = category.casefold()
    for cat, value in _points(entry):
        if cat.casefold() == folded:
            return value
    return None


def categories(table: ChartTable) -> list[str]:
    """Each distinct category label once, in first-seen order."""
    out: list[str] = []
    for entry in table.series:
        for category, _ in _points(entry):
            if category not in out:
                out.append(category)
    return out


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
            series_part = " in ".join(pieces[:split])
            category_part = " in ".join(pieces[split:])
            series = _resolve_name(series_part, _series_names(table))
            category = _resolve_name(category_part, categories(table))
            if series is not None and category is not None:
                return series, category
    if len(table.series) == 1:
        category = _resolve_name(text, categories(table))
        if category is not None:
            return table.series[0].name, category
    return None


def _cell_value(table: ChartTable, text: str) -> float:
    cell = _resolve_cell(table, text)
    if cell is None:
        raise _unanswerable(f"cannot resolve {text!r} against the table")
    value = _lookup(table, *cell)
    if value is None:
        raise _unanswerable(f"no point for {text!r}")
    return value


def _split_two_cells(table: ChartTable, rest: str) -> tuple[float, float]:
    pieces = rest.split(" and ")
    if len(pieces) < 2:
        raise _unanswerable(f"expected two cells in {rest!r}")
    for split in range(1, len(pieces)):
        first = " and ".join(pieces[:split])
        second = " and ".join(pieces[split:])
        first_cell = _resolve_cell(table, first)
        second_cell = _resolve_cell(table, second)
        if first_cell is not None and second_cell is not None:
            first_value = _lookup(table, *first_cell)
            second_value = _lookup(table, *second_cell)
            if first_value is not None and second_value is not None:
                return first_value, second_value
    raise _unanswerable(f"cannot resolve two cells in {rest!r}")


def _overall_extreme(table: ChartTable, which: str) -> tuple[str, str, float]:
    """Finds the point with the overall highest/lowest value, table order on ties."""
    best: tuple[str, str, float] | None = None
    for entry in table.series:
        for category, value in _points(entry):
            if best is None:
                best = (entry.name, category, value)
            elif which == "highest" and value > best[2]:
                best = (entry.name, category, value)
            elif which == "lowest" and value < best[2]:
                best = (entry.name, category, value)
    if best is None:
        raise _unanswerable("table has no points")
    return best


def oracle_answer(table: ChartTable, question: str) -> str:
    """Answers a template question from the table, numbers via stringify."""
    match = match_template(question)
    if match.kind == "value_of":
        return stringify(_cell_value(table, match.slots["rest"]))
    if match.kind == "extreme_of_series":
        name = _resolve_name(match.slots["series"], _series_names(table))
        series = _find_series(table, name) if name is not None else None
        if series is None or not _points(series):
            raise _unanswerable(f"cannot resolve series {match.slots['series']!r}")
        values = [value for _, value in _points(series)]
        extreme = max(values) if match.slots["which"] == "highest" else min(values)
        return stringify(extreme)
    if match.kind == "arg_extreme":
        series_name, category, _ = _overall_extreme(table, match.slots["which"])
        if match.slots["subject"] == "series":
            return series_name
        return category
    first, second = _split_two_cells(table, match.slots["rest"])
    if match.kind == "cell_sum":
        return stringify(first + second)
    return stringify(first - second)


class OracleAgent:
    """Agent backend that answers from one chart table, deterministically."""

    def __init__(self, table: ChartTable) -> None:
        self.table = table

    def answer(self, query: AgentQuery) -> AgentAnswer:
        return AgentAnswer(oracle_answer(self.table, query.question), 0.0, "oracle")
