"""Records the DSL front end's behaviour on a seeded corpus of inputs.

    PYTHONPATH=<checkout>/src python tests/make_dsl_corpus.py tests/fixtures/dsl_corpus.jsonl

writes one JSON line per input, as seen by the `solvechart` on PYTHONPATH.
tests/test_dsl_corpus.py replays the file against the current code, so
record it from a known-good checkout, not from the change under test.

The inputs are random token sequences, generated programs and one-character
deletions of those programs, then a fixed block of agent-call statements and
near misses of them, recorded after the seeded records so that none of those
moves.  A deletion line names its program's line and the deleted index
instead of repeating the text.  Inputs holding a character
that is a digit but not a decimal digit (such as "²") are left out, because
the lexer's reading of them changed: they are illegal characters, where the
character-at-a-time lexer took them into numbers.  Token lists, ASTs and
canonical texts are stored as SHA-256 prefixes to keep the file small.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from gen_programs import random_program
from solvechart.dsl import ParseError, format_program, parse_program, tokenize

SEED = 20240611
RANDOM_SEQUENCES = 900
PROGRAMS = 100
DELETIONS_PER_PROGRAM = 7

# Fragments that random sequences are built from: every token class, each
# lexer error, layout, comments and a few non-ASCII letters and digits.
_FRAGMENTS = (
    "answer", "x", "va", "_t1", "é", "名", "ASK", "SUBSTEP", "abs", "min", "max", "sum", "round", "FOO",
    "if", "elif", "else", "and", "or", "not", "True", "False",
    "0", "1", "42", "007", "2.5", "1.", ".5", "3.14159", "٣", "١٢", "99999999999999999",
    '"q"', '"a b"', '"e\\n\\t\\"\\\\"', '"bad\\q"', '"open', '"tail\\', '""',
    "+", "-", "*", "/", "//", "%", "==", "!=", "<", "<=", ">", ">=", "=", "(", ")", "[", "]", ",", ":",
    "$", "!", "&", "@", ";", "{", "\t", "\r", "\x0c",
    " ", " ", " ", "\n", "\n    ", "\n        ", "\n  ", "# note",
)
# Fragments of well-formed expressions, so that half the sequences get past
# the lexer and exercise precedence and the parser's own errors.
_EXPRESSION_FRAGMENTS = (
    "x", "va", "ASK", "abs", "min", "round", "and", "or", "not", "True", "0", "2", "2.5", '"q"',
    "+", "-", "*", "/", "//", "%", "==", "!=", "<", "<=", ">", ">=", "(", ")", "[", "]", ",",
)

# `name = SUBSTEP("...")` and `name = ASK("...")` lines, the paper's usual
# statement, and near misses of that shape: escapes in the literal, a blank
# literal, comments, spacing, argument counts and kinds, callee spelling and
# the tokens around the call.
_AGENT_CALL_LINES = (
    'x = SUBSTEP("what is the value of a in b")', 'x = ASK("q")', 'x = SUBSTEP("名前")',
    'x = SUBSTEP("say \\"hi\\"")', 'x = SUBSTEP("a \\\\ b")', 'x = SUBSTEP("e\\n\\t\\r")',
    'x = SUBSTEP("bad \\q")', 'x = SUBSTEP("tail\\")', 'x = SUBSTEP("open)', 'x = SUBSTEP("")', 'x = ASK(" ")',
    'x = SUBSTEP("q")  # note', 'x = SUBSTEP("q")#note', 'x  =  SUBSTEP ( "q" )  ', 'x=SUBSTEP("q")',
    ' x = SUBSTEP("q")', 'x = SUBSTEP("q")\t', 'x = SUBSTEP("q")\x0c',
    'x = SUBSTEP()', 'x = SUBSTEP("a", "b")', 'x = SUBSTEP("q",)', 'x = SUBSTEP(3)', 'x = SUBSTEP(y)',
    'x = SUBSTEP(("q"))', 'x = SUBSTEP(["q"])', 'x = SUBSTEP("q"', 'x = SUBSTEP("q"))', 'x = SUBSTEP("q") + 1',
    'x = SUBSTEP("q") SUBSTEP("r")', 'x = -SUBSTEP("q")', 'x = SUBSTEP(-"q")',
    'x = substep("q")', 'x = Ask("q")', 'x = LOOKUP("q")', 'x = abs("q")', 'x = SUBSTEP',
    'x SUBSTEP("q")', 'SUBSTEP("q")', 'if = SUBSTEP("q")', 'x = SUBSTEP "q"', 'x == SUBSTEP("q")', 'x = = SUBSTEP("q")',
)
_NESTED_LEVELS = (99, 100)  # the call's parenthesis is the 100th and the 101st level: MAX_DEPTH is 100


def _agent_call_sources() -> list[str]:
    """Each line alone, with an answer line after it (LF and CRLF line ends),
    and inside blocks: a tab indent, and if blocks nested to the depth limit."""
    sources = []
    for line in _AGENT_CALL_LINES:
        sources += [line, f"{line}\nanswer = x\n", f"{line}\r\nanswer = x\r\n"]
    for line in _AGENT_CALL_LINES[:2] + ('x = SUBSTEP("q") + 1',):
        sources.append(f"if True:\n\t{line}\nanswer = x\n")
        for levels in _NESTED_LEVELS:
            ifs = "".join(f"{' ' * depth}if True:\n" for depth in range(levels))
            sources.append(f"{ifs}{' ' * levels}{line}\nanswer = x\n")
    return sources


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _error(err: ParseError) -> str:
    return f"{type(err).__name__}: {err}"


def observe(source: str) -> dict:
    """What the front end makes of one input."""
    try:
        tokens = tokenize(source)
    except ParseError as err:
        return {"error": _error(err)}
    seen: dict = {
        "n_tokens": len(tokens),
        "tokens": _digest(repr([(t.kind.value, t.lexeme, t.line, t.column) for t in tokens])),
    }
    try:
        program = parse_program(source)
    except ParseError as err:
        seen["error"] = _error(err)
        return seen
    seen["ast"] = _digest(repr(program.statements))
    seen["warnings"] = list(program.warnings)
    seen["canonical"] = _digest(format_program(program))
    return seen


def has_non_decimal_digit(text: str) -> bool:
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


def _random_sequence(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(1, 14)))
    return "answer = " + " ".join(rng.choice(_EXPRESSION_FRAGMENTS) for _ in range(rng.randint(1, 12)))


def build_records() -> list[dict]:
    rng = random.Random(SEED)
    records: list[dict] = []
    for _ in range(RANDOM_SEQUENCES):
        source = _random_sequence(rng)
        if not has_non_decimal_digit(source):
            records.append({"source": source, **observe(source)})
    for _ in range(PROGRAMS):
        source = format_program(random_program(rng))
        program_line = len(records)
        records.append({"source": source, **observe(source)})
        for index in sorted(rng.sample(range(len(source)), min(DELETIONS_PER_PROGRAM, len(source)))):
            deleted = source[:index] + source[index + 1:]
            records.append({"program": program_line, "delete": index, **observe(deleted)})
    records += [{"source": source, **observe(source)} for source in _agent_call_sources()]
    return records


def source_of(record: dict, records: list[dict]) -> str:
    """The input a record describes; a deletion record points at its program's record."""
    if "source" in record:
        return record["source"]
    text = records[record["program"]]["source"]
    return text[:record["delete"]] + text[record["delete"] + 1:]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: make_dsl_corpus.py OUT.jsonl", file=sys.stderr)
        return 2
    lines = [json.dumps(record, ensure_ascii=False, sort_keys=True) for record in build_records()]
    Path(argv[0]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
