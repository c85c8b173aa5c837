"""Evaluation dataset loading.

A dataset is a JSONL file: one JSON object per line with keys ``id``,
``question``, ``gold``, and ``chart_id``, plus an optional ``table_path``
pointing at a chart table. Relative table paths are resolved against the
directory containing the dataset file, so a dataset and its tables can move
together.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import SolveChartError
from ..files import read_bytes


class DatasetFormatError(SolveChartError):
    """A dataset line is not valid or is missing required fields."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.reason = message
        self.line = line


class DuplicateIdError(DatasetFormatError):
    """Two dataset items share an id."""


@dataclass(frozen=True, slots=True)
class EvalItem:
    """One evaluation example."""

    id: str
    question: str
    gold: str
    chart_id: str
    table_path: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("item id must be non-empty")
        if not self.question:
            raise ValueError("question must be non-empty")


_REQUIRED = ("id", "question", "gold", "chart_id")


def load_dataset(path: str | Path) -> list[EvalItem]:
    """Load a JSONL dataset, preserving file order.

    Raises DatasetFormatError (with the offending line number) on malformed
    lines, DuplicateIdError when an id repeats, and SolveChartError naming
    the path when the file cannot be read or is over files.MAX_FILE_BYTES.
    """
    dataset_path = Path(path)
    base_dir = dataset_path.parent
    items: list[EvalItem] = []
    seen: set[str] = set()
    resolved_paths: dict[str, str] = {}  # raw table_path -> resolved; datasets repeat a few tables
    data = read_bytes(dataset_path, "dataset", SolveChartError)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).read().count("\n") + 1
        raise DatasetFormatError(f"{dataset_path} is not UTF-8 text ({exc})", lineno) from exc
    with io.StringIO(text, newline=None) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, or too-deep nesting
                raise DatasetFormatError(f"invalid JSON ({getattr(exc, 'msg', exc)})", lineno) from exc
            if not isinstance(record, dict):
                raise DatasetFormatError("expected a JSON object", lineno)
            for key in _REQUIRED:
                if key not in record:
                    raise DatasetFormatError(f"missing required key '{key}'", lineno)
                if not isinstance(record[key], str):
                    raise DatasetFormatError(f"key '{key}' must be a string", lineno)
            item_id = record["id"]
            if item_id in seen:
                raise DuplicateIdError(f"duplicate item id '{item_id}'", lineno)
            seen.add(item_id)
            table_path = record.get("table_path")
            if table_path is not None:
                if not isinstance(table_path, str):
                    raise DatasetFormatError("key 'table_path' must be a string", lineno)
                if (resolved := resolved_paths.get(table_path)) is None:
                    # joining an absolute path to base_dir yields that path unchanged
                    resolved = resolved_paths[table_path] = str(base_dir / table_path)
                table_path = resolved
            try:
                items.append(
                    EvalItem(
                        id=item_id,
                        question=record["question"],
                        gold=record["gold"],
                        chart_id=record["chart_id"],
                        table_path=table_path,
                    )
                )
            except ValueError as exc:
                raise DatasetFormatError(str(exc), lineno) from exc
    return items
