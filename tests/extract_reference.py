"""Reference extraction: the fence rule and the plain suffix loop.

The loop parses every suffix of the reply, longest first, and returns the
first that parses as a program with at least one statement.  It is quadratic
in the reply's line count and serves only as the oracle that
`solvechart.solgen.extract` is checked against.
"""

from __future__ import annotations

import re

from solvechart.dsl import ParseError, parse_program
from solvechart.solgen.extract import ExtractionError

_FENCE_RE = re.compile(r"```[A-Za-z0-9_+-]*[ \t]*\r?\n(.*?)```", re.DOTALL)


def reference_extract(reply: str) -> str:
    match = _FENCE_RE.search(reply)
    if match:
        return match.group(1).strip("\r\n")
    lines = reply.split("\n")
    for start in range(len(lines)):
        candidate = "\n".join(lines[start:])
        if not candidate.strip():
            break
        try:
            program = parse_program(candidate)
        except ParseError:
            continue
        if program.statements:
            return candidate
    raise ExtractionError("reply contains no code fence and no parseable suffix")
