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
from ..files import overwrite_tail, read_json, write_text_atomic
from .base import AgentAnswer, AgentError, AgentHandle, AgentQuery

__all__ = ["Cassette", "CassetteFormatError", "ReplayAgent"]


class CassetteFormatError(SolveChartError):
    """The cassette file is not a JSON array of entry objects."""


def normalize_key(question: str) -> str:
    return " ".join(question.split()).casefold()


def _entry_text(entry: dict) -> str:
    """One entry laid out as json.dumps(entries, indent=2) lays it out, but through the C encoder."""
    chart_id, question, answer = (json.dumps(entry[key]) for key in ("chart_id", "question", "answer"))
    return f'{{\n    "chart_id": {chart_id},\n    "question": {question},\n    "answer": {answer}\n  }}'


class Cassette:
    """In-memory cassette; a record cassette also writes each append to its file.

    Appends are serialized with a lock; on duplicate keys the latest entry
    wins, so re-recording a question overrides the earlier answer.  After
    every append the file holds the whole cassette as json.dumps(entries,
    indent=2) lays it out: the first append writes the whole file
    atomically, each later one rewrites only the closing bracket with the
    new entry and a new bracket.
    """

    def __init__(self, entries: list[dict] | None = None, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: list[dict] = []
        self._index: dict[tuple[str, str], str] = {}
        self._lock = threading.Lock()
        self._file_current = False  # path holds self.entries as append writes them
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
        """A read-only cassette of path's entries: appends never touch the file."""
        payload = read_json(path, "cassette", CassetteFormatError)
        if not isinstance(payload, list):
            raise CassetteFormatError(f"expected a JSON array in {path}")
        return cls(payload)

    @classmethod
    def record(cls, path: str | Path) -> "Cassette":
        """A cassette that appends to path, starting from path's entries if the file exists."""
        cassette = cls.load(path) if Path(path).exists() else cls()
        cassette.path = Path(path)
        return cassette

    @classmethod
    def empty(cls, path: str | Path | None = None) -> "Cassette":
        """A cassette with no entries; with a path, appends replace that file."""
        return cls([], path=path)

    def lookup(self, chart_id: str, question: str) -> str | None:
        return self._index.get((chart_id, normalize_key(question)))

    def append(self, chart_id: str, question: str, answer: str) -> None:
        with self._lock:
            self._admit({"chart_id": chart_id, "question": question, "answer": answer})
            if self.path is None:
                return
            if not self._file_current:
                write_text_atomic(self.path, "[\n  " + ",\n  ".join(map(_entry_text, self.entries)) + "\n]\n")
            else:
                # The file ends "\n]\n"; put the new entry and a new bracket in its place.
                self._file_current = False  # until the tail is written in full
                overwrite_tail(self.path, 3, f",\n  {_entry_text(self.entries[-1])}\n]\n".encode("utf-8"))
            self._file_current = True

    def __len__(self) -> int:
        return len(self.entries)


class ReplayAgent:
    """Replay backend; in record mode misses are filled by a live agent.

    Before a miss goes live, the later members of its Lookahead that a serial
    run would not send live are dropped from it: one this cassette already
    answers, and one that repeats an earlier member's key.
    """

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
        if query.lookahead is not None:
            self._drop_answered(query)
        reply = self.live.answer(query)
        self.cassette.append(query.chart_id, query.question, reply.answer)
        return AgentAnswer(reply.answer, reply.latency_ms, "record")

    def _drop_answered(self, query: AgentQuery) -> None:
        ahead, chart_id = query.lookahead, query.chart_id
        keys = {normalize_key(query.question)}
        for index in range(ahead.at + 1, len(ahead.calls)):
            if (call := ahead.calls[index]) is None:
                continue
            key = normalize_key(call[1])
            if key in keys or self.cassette.lookup(chart_id, call[1]) is not None:
                ahead.calls[index] = None
            else:
                keys.add(key)
