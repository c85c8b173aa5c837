"""The front end reads every input of a recorded corpus as it was recorded.

tests/fixtures/dsl_corpus.jsonl was written by tests/make_dsl_corpus.py: its
seeded records from the character-at-a-time lexer and the per-level
recursive-descent parser, and the block of agent-call lines at its end from
the front end before the lexer folded spaces into tokens and the parser took
`name = SUBSTEP("...")` in one step.  Its token counts and digests, error
texts, warnings and canonical texts must not move.
"""

from __future__ import annotations

import json
from pathlib import Path

from make_dsl_corpus import observe, source_of

CORPUS = Path(__file__).parent / "fixtures" / "dsl_corpus.jsonl"


def test_front_end_matches_recorded_corpus():
    records = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert len(records) >= 1000
    assert sum("ast" in record for record in records) >= 400
    mismatches = []
    for number, record in enumerate(records, start=1):
        source = source_of(record, records)
        recorded = {key: value for key, value in record.items() if key not in ("source", "program", "delete")}
        seen = observe(source)
        if seen != recorded:
            mismatches.append((number, source, recorded, seen))
    assert not mismatches, mismatches[:3]
