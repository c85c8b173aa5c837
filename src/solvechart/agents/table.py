"""Ground-truth chart tables.

A ChartTable is the underlying data of one chart: named series of
(category, value) points.  One JSON document holds one table.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..errors import SolveChartError
from ..files import read_json

__all__ = ["ChartTable", "Series", "TableFormatError", "load_table", "normalize_question"]


class TableFormatError(SolveChartError):
    """The table document is malformed, or holds a value or name the oracle could not reach."""


_NOT_ALNUM = re.compile(r"[^a-z0-9]+")


def normalize_question(text: str) -> str:
    """Lowercases and strips punctuation, collapsing runs of whitespace; the oracle's one name rule."""
    return _NOT_ALNUM.sub(" ", text.casefold()).strip()


def _distinct_forms(names: Iterable[str], what: str) -> dict[str, str]:
    """Maps each normalized form to its name; two names with one form raise."""
    forms: dict[str, str] = {}
    for name in names:
        form = normalize_question(name)
        if form in forms:
            raise TableFormatError(f"{what} {forms[form]!r} and {name!r} normalize to the same name")
        forms[form] = name
    return forms


@dataclass(frozen=True)
class Series:
    name: str
    points: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class ChartTable:
    title: str
    x_label: str
    y_label: str
    series: tuple[Series, ...]

    def __post_init__(self) -> None:
        """Admits only cells the oracle can reach: finite values, names distinct once normalized."""
        if "" in (forms := _distinct_forms(self.series_names(), "series")):
            raise TableFormatError(f"series name {forms['']!r} has no letters or digits")
        for entry in self.series:
            if len({category for category, _ in entry.points}) != len(entry.points):
                raise TableFormatError(f"duplicate category in series {entry.name!r}")
            for category, value in entry.points:
                if not math.isfinite(value):
                    raise TableFormatError(f"non-finite value {value!r} in series {entry.name!r} at {category!r}")
        _distinct_forms(self.categories(), "categories")

    def series_names(self) -> list[str]:
        return [entry.name for entry in self.series]

    def categories(self) -> list[str]:
        """Each distinct category label once, in first-seen order: one pass over the points."""
        return list(dict.fromkeys(category for entry in self.series for category, _ in entry.points))

    def find_series(self, name: str) -> Series | None:
        folded = name.casefold()
        for entry in self.series:
            if entry.name.casefold() == folded:
                return entry
        return None

    def lookup(self, series_name: str, category: str) -> float | None:
        entry = self.find_series(series_name)
        if entry is None:
            return None
        folded = category.casefold()
        for cat, value in entry.points:
            if cat.casefold() == folded:
                return value
        return None


def _parse_table(payload: dict) -> ChartTable:
    labels: dict[str, str] = {}  # one string per distinct label: a 50x200 table holds 200, not 10,000
    series: list[Series] = []
    try:
        for entry in payload["series"]:
            name, points = str(entry["name"]), []
            for point in entry["points"]:
                label = str(point["category"])
                points.append((labels.setdefault(label, label), float(point["value"])))
            series.append(Series(name, tuple(points)))
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
