"""Program extraction from raw model output.

Preference order: the first fenced code block; failing that, the longest
suffix of the text that parses as a non-empty program (`dsl.parse_suffix`).
Models often prefix an apology or explanation, and the suffix rule cuts it
away without guessing at formats.  A fence may open with a CRLF line break,
and its body loses its leading and trailing line breaks, CR or LF.
"""

from __future__ import annotations

import re

from ..dsl import SolutionProgram, parse_suffix
from ..errors import SolveChartError

__all__ = ["ExtractionError", "extract_program"]

_FENCE_RE = re.compile(r"```[A-Za-z0-9_+-]*[ \t]*\r?\n(.*?)```", re.DOTALL)


class ExtractionError(SolveChartError):
    """No program-shaped text could be recovered from the reply."""


def extract_program(reply: str) -> str:
    """Pulls program text out of a model reply.

    Returns the text inside the first fenced code block if there is one,
    otherwise the longest suffix of the reply that parses as a program with
    at least one statement.  Raises ExtractionError when neither applies,
    and the parser's SolveChartError when that suffix holds more than
    MAX_AGENT_CALLS agent call sites.  The returned text is not guaranteed
    to parse if it came from a fence.
    """
    return scan_reply(reply)[0]


def scan_reply(reply: str) -> tuple[str, SolutionProgram | None]:
    """extract_program's text, with the program its suffix parsed to; the
    program is None for fenced text, which has not been parsed."""
    match = _FENCE_RE.search(reply)
    if match:
        return match.group(1).strip("\r\n"), None
    found = parse_suffix(reply)
    if found is None:
        raise ExtractionError("reply contains no code fence and no parseable suffix")
    return found
