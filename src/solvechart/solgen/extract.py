"""Program extraction from raw model output.

Preference order: the first fenced code block; failing that, the longest
suffix of the text that parses as a non-empty program.  Models often prefix
an apology or explanation, and the suffix rule cuts it away without guessing
at formats.  A fence may open with a CRLF line break, and its body loses its
leading and trailing line breaks, CR or LF.

The suffix search is one scan, linear in the reply: each line is lexed once,
into one token stream.  Only a suffix whose first line of code has width 0
can parse, since any other opens with an INDENT; from such a line on, that
stream is the suffix's own token stream.  A parse from one such line that
fails resumes after the line on which its failing statement begins.
"""

from __future__ import annotations

import re

from ..dsl import ParseError, SolutionProgram
from ..dsl.lexer import LineLexer, TokenKind
from ..dsl.parser import _Parser, make_program
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
    lines = reply.split("\n")
    lexer = LineLexer()
    floor = 0  # the line after the last one that failed to tokenize
    heads: list[int] = []  # the stream index of the first token of each line of width 0
    for index, raw_line in enumerate(lines):
        try:
            head = lexer.line(raw_line, index + 1)
        except ParseError:
            # Every suffix through this line fails to tokenize.
            lexer, floor, heads = LineLexer(), index + 1, []
            continue
        if head is not None and not raw_line.startswith(" "):
            heads.append(head)
    tokens = lexer.end(len(lines) + 1)
    position = 0
    while position < len(heads):
        head = heads[position]
        parser = _Parser(tokens, head)
        try:
            program = make_program(parser.parse())
        except ParseError:
            # The parser holds no state between top-level statements, so a
            # start on a later line of width 0, up to the line on which the
            # failing statement begins, parses into the same failure.
            failed_line = tokens[parser.head].line
            while position < len(heads) and tokens[heads[position]].line <= failed_line:
                position += 1
            continue
        # The longest suffix whose code starts here keeps the blank and
        # comment lines above: it starts at `floor` or right after the
        # previous line of code, whose NEWLINE precedes this line's DEDENTs
        # and whose 1-based number is the index of the line after it.
        previous = head - 1
        while previous >= 0 and tokens[previous].kind is TokenKind.DEDENT:
            previous -= 1
        text_start = tokens[previous].line if previous >= 0 else floor
        return "\n".join(lines[text_start:]), program
    raise ExtractionError("reply contains no code fence and no parseable suffix")
