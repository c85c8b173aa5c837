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
from typing import Callable, Sequence, TypeVar

from ..errors import ErrorKind
from ..values import stringify
from .base import AgentAnswer, AgentError, AgentQuery
from .table import ChartTable, Series, normalize_question

__all__ = ["OracleAgent", "oracle_answer"]


def _unanswerable(message: str) -> AgentError:
    return AgentError(message, ErrorKind.UNANSWERABLE)


_Entry = TypeVar("_Entry")

# A slot of more words than this normalizes every name it reads instead of testing each name for each word first.
# Where the two cost the same, measured on whole questions: about 10 slot words on tables of 1-6 series and 3-24
# categories, about 34 on tables of 10-50 series and 50-200 categories.
_CHECKED_WORDS = 8


def _resolve_name(part: str, entries: Sequence[_Entry], names: Sequence[str], forms: list[str | None]) -> _Entry | None:
    """Finds the entry whose name the slot text refers to, longest match first.

    names[i] is the name of entries[i], and forms[i] its normalized form, or
    None until a slot first needs it.  The oracle's one name rule: a name
    matches when its normalized form is the whole slot text or a run of its
    words; the first of equally long forms wins.

    A name is normalized only if its casefolded text holds a word of the slot
    as a substring.  One that holds none cannot match: each word of its form is
    a run of letters and digits in that casefolded text, every word of a
    matching form is a word of the slot, and an empty form never matches.  The
    test costs one substring search per slot word per name and is redone on
    every read of a skipped name, while a form is computed once, so past some
    slot length the test costs more than it saves; a slot of more than
    _CHECKED_WORDS words (a program may ask a question of any length) skips it
    and normalizes each name it has not yet normalized.
    """
    words = part.split(" ") if part.count(" ") < _CHECKED_WORDS else ()
    padded = f" {part} "
    best, best_length = None, 0
    for index, form in enumerate(forms):
        if form is None:
            if words:
                folded = names[index].casefold()
                for word in words:
                    if word in folded:
                        break
                else:
                    continue
            form = forms[index] = normalize_question(names[index])
        if len(form) > best_length and (part == form or f" {form} " in padded):
            best, best_length = entries[index], len(form)
    return best


# One question's normalized forms: forms[0][i] for table.series_names[i], forms[1][i] for table.categories[i].
_Forms = tuple[list[str | None], list[str | None]]


def _resolve_cell(table: ChartTable, forms: _Forms, text: str) -> tuple[Series, str] | None:
    """Maps slot text to (series, category label), or None."""
    pieces = text.split(" in ")
    if len(pieces) > 1:
        for split in range(len(pieces) - 1, 0, -1):
            entry = _resolve_name(" in ".join(pieces[:split]), table.series, table.series_names, forms[0])
            if entry is None:
                continue
            label = _resolve_name(" in ".join(pieces[split:]), table.categories, table.categories, forms[1])
            if label is not None:
                return entry, label
    if len(table.series) == 1:
        label = _resolve_name(text, table.categories, table.categories, forms[1])
        if label is not None:
            return table.series[0], label
    return None


def _read_cell(table: ChartTable, forms: _Forms, text: str) -> tuple[bool, float | None]:
    """Resolves slot text to a cell, then reads it: (resolved, value, or None where the series lacks the label)."""
    cell = _resolve_cell(table, forms, text)
    if cell is None:
        return False, None
    entry, label = cell
    try:
        return True, entry.values[entry.categories.index(label)]
    except ValueError:
        return True, None


def _value_of(table: ChartTable, forms: _Forms, rest: str) -> str:
    resolved, value = _read_cell(table, forms, rest)
    if value is None:
        raise _unanswerable(f"no point for {rest!r}" if resolved else f"cannot resolve {rest!r} against the table")
    return stringify(value)


def _extreme_of_series(table: ChartTable, forms: _Forms, which: str, series: str) -> str:
    entry = _resolve_name(series, table.series, table.series_names, forms[0])
    if entry is None or not entry.values:
        raise _unanswerable(f"cannot resolve series {series!r}")
    pick = max if which in ("highest", "maximum", "max") else min
    return stringify(pick(entry.values))


def _arg_extreme(table: ChartTable, forms: _Forms, subject: str, which: str) -> str:
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


def _two_cells(combine: Callable[[float, float], float], table: ChartTable, forms: _Forms, rest: str) -> str:
    """Combines the first split of the slot text into two cells that both have a point."""
    pieces = rest.split(" and ")
    if len(pieces) < 2:
        raise _unanswerable(f"expected two cells in {rest!r}")
    for split in range(1, len(pieces)):
        _, first = _read_cell(table, forms, " and ".join(pieces[:split]))
        if first is None:
            continue
        _, second = _read_cell(table, forms, " and ".join(pieces[split:]))
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
    resolve against the table.  The question's forms of the table's names
    start as None and are filled in by _resolve_name, so a name is normalized
    at most once per question, however many slots and splits read it, and
    only if some slot shares a word with it.  Nothing outlives the question.
    """
    text = normalize_question(question)
    for pattern, handler in _TEMPLATES:
        match = pattern.fullmatch(text)
        if match:
            forms = [None] * len(table.series_names), [None] * len(table.categories)
            return handler(table, forms, **match.groupdict())
    raise _unanswerable(f"no template matches {question!r}")


class OracleAgent:
    """Agent backend that answers from one chart table, deterministically."""

    def __init__(self, table: ChartTable) -> None:
        self.table = table

    def answer(self, query: AgentQuery) -> AgentAnswer:
        return AgentAnswer(oracle_answer(self.table, query.question), 0.0, "oracle")
