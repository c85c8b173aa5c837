"""Cassette-backed record/replay agent backend.

A cassette is a JSON array of {"chart_id", "question", "answer"} entries
keyed by (chart_id, normalized question).  Replaying a recorded session is
deterministic and needs no live backend, which is what makes evaluation runs
reproducible byte for byte.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from ..errors import ErrorKind, SolveChartError
from .base import AgentAnswer, AgentError, AgentHandle, AgentQuery
from .table import read_json

__all__ = ["Cassette", "CassetteFormatError", "ReplayAgent", "normalize_key"]


class CassetteFormatError(SolveChartError):
    """The cassette file is not a JSON array of entry objects."""


def normalize_key(question: str) -> str:
    return " ".join(question.split()).casefold()


class Cassette:
    """In-memory cassette with optional write-through to its backing file.

    Appends are serialized with a lock; on duplicate keys the latest entry
    wins, so re-recording a question overrides the earlier answer.
    """

    def __init__(self, entries: list[dict] | None = None, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: list[dict] = []
        self._index: dict[tuple[str, str], str] = {}
        self._lock = threading.Lock()
        for entry in entries or []:
            self._admit(entry)

    def _admit(self, entry: dict) -> None:
        try:
            chart_id = str(entry["chart_id"])
            question = str(entry["question"])
            answer = str(entry["answer"])
        except (KeyError, TypeError) as err:
            raise CassetteFormatError(f"malformed cassette entry: {entry!r}") from err
        self.entries.append({"chart_id": chart_id, "question": question, "answer": answer})
        self._index[(chart_id, normalize_key(question))] = answer

    @classmethod
    def load(cls, path: str | Path) -> "Cassette":
        payload = read_json(path, "cassette", CassetteFormatError)
        if not isinstance(payload, list):
            raise CassetteFormatError(f"expected a JSON array in {path}")
        return cls(payload, path=path)

    @classmethod
    def empty(cls, path: str | Path | None = None) -> "Cassette":
        return cls([], path=path)

    def lookup(self, chart_id: str, question: str) -> str | None:
        return self._index.get((chart_id, normalize_key(question)))

    def append(self, chart_id: str, question: str, answer: str) -> None:
        with self._lock:
            self._admit({"chart_id": chart_id, "question": question, "answer": answer})
            if self.path is not None:
                self.save(self.path)

    def save(self, path: str | Path | None = None) -> None:
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("cassette has no backing path")
        try:
            target.write_text(json.dumps(self.entries, indent=2) + "\n", encoding="utf-8")
        except OSError as err:
            raise SolveChartError(f"cannot write {target}: {err.strerror or err}") from err

    def __len__(self) -> int:
        return len(self.entries)


class ReplayAgent:
    """Replay backend; in record mode misses are filled by a live agent."""

    def __init__(self, cassette: Cassette, live: AgentHandle | None = None) -> None:
        self.cassette = cassette
        self.live = live

    def answer(self, query: AgentQuery) -> AgentAnswer:
        recorded = self.cassette.lookup(query.chart_id, query.question)
        if recorded is not None:
            return AgentAnswer(recorded, 0.0, "replay")
        if self.live is None:
            # Strict replay: a miss is an error, never a silent fabrication.
            raise AgentError(
                f"no recording for chart {query.chart_id!r}, question {query.question!r}",
                ErrorKind.CASSETTE_MISS,
            )
        reply = self.live.answer(query)
        self.cassette.append(query.chart_id, query.question, reply.answer)
        return AgentAnswer(reply.answer, reply.latency_ms, "record")
