"""Question to validated solution program.

Live generation gets exactly one repair retry: the re-prompt appends the
failure so the model can correct itself.  Cassette-backed generation is a
single deterministic lookup.  Every program returned here has passed parsing
and the answer-assignment check, so the engine never sees junk.
"""

from __future__ import annotations

from typing import Union

from ..agents.replay import Cassette
from ..dsl import SolutionProgram, parse_program
from ..dsl.parser import UNASSIGNED_WARNING
from ..errors import ErrorKind, SolveChartError
from .client import LlmConfig, chat_completion
from .extract import scan_reply
from .prompt import PromptBundle, build_prompt

__all__ = ["GenerationError", "MAX_REPLY_CHARS", "generate_solution"]

MAX_REPLY_CHARS = 100_000  # a longer reply is refused before it is lexed


class GenerationError(SolveChartError):
    """No usable program could be produced for the question."""


def _try_accept(reply: str) -> tuple[SolutionProgram | None, str | None]:
    """Extracts, parses, and validates one reply; returns (program, fault)."""
    if len(reply) > MAX_REPLY_CHARS:
        return None, f"reply is {len(reply)} characters, over {MAX_REPLY_CHARS}"
    try:
        source, program = scan_reply(reply)
        if program is None:
            program = parse_program(source)
    except SolveChartError as err:  # ExtractionError, ParseError, or too many agent call sites
        return None, str(err)
    if UNASSIGNED_WARNING in program.warnings:
        return None, UNASSIGNED_WARNING
    return program, None


def _repair_bundle(bundle: PromptBundle, fault: str) -> PromptBundle:
    note = (
        f"{bundle.user}\n\nYour previous reply could not be used: {fault}.\n"
        "Reply again with one corrected program in a single fenced code block."
    )
    return PromptBundle(system=bundle.system, user=note)


def generate_solution(
    question: str,
    client: Union[LlmConfig, Cassette],
    *,
    chart_hints: str | None = None,
    chart_id: str = "",
    record_to: Cassette | None = None,
) -> SolutionProgram:
    """Produces a validated solution program for a question.

    Args:
        question: The chart question.
        client: Either a live model configuration or a recorded cassette of
            replies keyed by (chart_id, question).
        chart_hints: Optional chart context for the prompt.
        chart_id: Chart identity used for cassette keys.
        record_to: When generating live, record the accepted raw reply here
            so later runs can replay it.

    Raises:
        GenerationError: CASSETTE_MISS for unrecorded questions,
            UNANSWERABLE for a blank question to a live model,
            INVALID_PROGRAM when no usable program emerges after the single
            repair retry.
        LlmError: from the live model, unchanged: TIMEOUT, TRANSPORT or
            BAD_RESPONSE.
    """
    if isinstance(client, Cassette):
        reply = client.lookup(chart_id, question)
        if reply is None:
            raise GenerationError(
                f"no recorded reply for chart {chart_id!r}, question {question!r}", ErrorKind.CASSETTE_MISS
            )
        program, fault = _try_accept(reply)
        if program is None:
            raise GenerationError(f"recorded reply unusable: {fault}", ErrorKind.INVALID_PROGRAM)
        return program

    if not question.strip():
        raise GenerationError("question must be non-empty", ErrorKind.UNANSWERABLE)
    bundle = build_prompt(question, chart_hints)
    fault = ""
    for attempt in range(2):
        reply = chat_completion(client, bundle)
        program, fault = _try_accept(reply)
        if program is not None:
            if record_to is not None:
                record_to.append(chart_id, question, reply)
            return program
        if attempt == 0:
            bundle = _repair_bundle(bundle, fault)
    raise GenerationError(f"no usable program after retry: {fault}", ErrorKind.INVALID_PROGRAM)
