"""Ground-truth chart tables.

A ChartTable is the underlying data of one chart: named series of
(category, value) points, stored column-wise.  One JSON document holds one
table.  A table only holds validated columns, and keeps the two name lists
read from them: its series names and its distinct category labels.  The
oracle alone resolves names against it, by `normalize_question`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..errors import SolveChartError
from ..files import read_json

__all__ = ["ChartTable", "Series", "TableFormatError", "load_table", "normalize_question"]


class TableFormatError(SolveChartError):
    """The table document is malformed, or holds a value or name the oracle could not reach."""


_ALNUM_RUN = re.compile(r"[a-z0-9]+")


def normalize_question(text: str) -> str:
    """Casefolds and keeps the ASCII letter and digit runs, one space apart; the oracle's one name rule."""
    return " ".join(_ALNUM_RUN.findall(text.casefold()))


def _distinct_forms(names: Iterable[str], what: str) -> dict[str, str]:
    """Maps each normalized form to its name; two names with one form raise."""
    forms: dict[str, str] = {}
    for name in names:
        form = normalize_question(name)
        if form in forms:
            raise TableFormatError(f"{what} {forms[form]!r} and {name!r} normalize to the same name")
        forms[form] = name
    return forms


@dataclass(frozen=True, slots=True)
class Series:
    """One named series, column-wise: the value at each position belongs to the category there."""

    name: str
    categories: tuple[str, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class ChartTable:
    title: str
    x_label: str
    y_label: str
    series: tuple[Series, ...]
    # Built once, while the table is validated: the series names in table
    # order, and each distinct category label once, in first-seen order.
    series_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    categories: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Admits only cells the oracle can reach: finite values, names distinct once normalized.

        A category tuple that several series share is checked once.
        """
        object.__setattr__(self, "series_names", tuple(entry.name for entry in self.series))
        if "" in (forms := _distinct_forms(self.series_names, "series")):
            raise TableFormatError(f"series name {forms['']!r} has no letters or digits")
        labels: dict[str, None] = {}
        checked: set[int] = set()
        for entry in self.series:
            if len(entry.categories) != len(entry.values):
                raise TableFormatError(
                    f"series {entry.name!r} has {len(entry.categories)} categories but {len(entry.values)} values"
                )
            if id(entry.categories) not in checked:
                checked.add(id(entry.categories))
                distinct = dict.fromkeys(entry.categories)
                if len(distinct) != len(entry.categories):
                    raise TableFormatError(f"duplicate category in series {entry.name!r}")
                labels.update(distinct)
            if not all(map(math.isfinite, entry.values)):
                cells = zip(entry.categories, entry.values)
                category, value = next(cell for cell in cells if not math.isfinite(cell[1]))
                raise TableFormatError(f"non-finite value {value!r} in series {entry.name!r} at {category!r}")
        object.__setattr__(self, "categories", tuple(labels))
        _distinct_forms(self.categories, "categories")


def _parse_table(payload: dict) -> ChartTable:
    # One string per distinct label and one tuple per distinct category list:
    # a 50x200 table holds 200 label strings and, if its series agree, one tuple.
    labels: dict[str, str] = {}
    columns: dict[tuple[str, ...], tuple[str, ...]] = {}
    series: list[Series] = []
    try:
        for entry in payload["series"]:
            name, categories, values = str(entry["name"]), [], []
            for point in entry["points"]:
                label = str(point["category"])
                categories.append(labels.setdefault(label, label))
                values.append(float(point["value"]))
            column = tuple(categories)
            series.append(Series(name, columns.setdefault(column, column), tuple(values)))
        return ChartTable(
            title=str(payload["title"]),
            x_label=str(payload["x_label"]),
            y_label=str(payload["y_label"]),
            series=tuple(series),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise TableFormatError(f"malformed chart table: {err}") from err


def load_table(path: str | Path) -> ChartTable:
    """Loads one chart table from a JSON file."""
    payload = read_json(path, "table", TableFormatError)
    if not isinstance(payload, dict):
        raise TableFormatError(f"expected a JSON object in {path}")
    return _parse_table(payload)
