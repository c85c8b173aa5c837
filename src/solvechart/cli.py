"""Command-line interface.

Subcommands:

* ``parse``: read a solution program, print its canonical form.
* ``run``: execute a program file against a chart agent.
* ``solve``: produce a program for a question (live model or replay
  cassette), execute it, print the answer.
* ``align-demo``: run the visual alignment pipeline on synthetic patches
  and print the bundle plus an invariant report as JSON.
* ``eval``: run a dataset through the harness and print the report.

stdout carries machine-readable output only (answers, canonical programs,
JSON documents); all diagnostics go to stderr. Exit codes: 0 success,
1 domain failure, 2 usage error (from argparse).

A JSON config file (``--config``) supplies defaults for the optional flags,
checked as the flags are (see _config_value); explicit flags win over the
file, the file wins over built-in defaults. Keys the subcommand has no
optional flag for are ignored, so one file may serve several subcommands.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable

from .agents.base import AgentHandle, AgentQuery
from .agents.http import HttpAgent
from .agents.oracle import OracleAgent
from .agents.replay import Cassette, ReplayAgent
from .agents.table import load_table
from .align.cluster import DEFAULT_K_MAX, DEFAULT_LINKAGE_THRESHOLD
from .align.invariants import check_bundle
from .align.pipeline import PipelineConfig, run_alignment_pipeline
from .align.principles import DEFAULT_PROXIMITY_RADIUS
from .align.synthetic import DEFAULT_LAYERS, make_grid, make_params, make_query
from .align.types import DEFAULT_TOP_K
from .dsl.formatter import format_program
from .dsl.nodes import SolutionProgram
from .dsl.parser import parse_program
from .engine.interpreter import EngineConfig, execute
from .engine.values import stringify
from .errors import SolveChartError
from .evaluation.dataset import load_dataset
from .evaluation.harness import EvalConfig, oracle_agents, prompt_hints, run_eval
from .evaluation.metrics import DEFAULT_TOLERANCE
from .files import read_json, read_text, write_text_atomic
from .solgen.client import LlmConfig
from .solgen.generate import MAX_REPLY_CHARS, generate_solution


# UTF-8 spends at most 4 bytes a character, so any reply the model path
# accepts also runs from a program file.
MAX_PROGRAM_BYTES = 4 * MAX_REPLY_CHARS


class CliError(SolveChartError):
    """A command cannot proceed with the given arguments."""


def _load_config(path: str) -> dict:
    data = read_json(path, "config file", CliError)
    if not isinstance(data, dict):
        raise CliError("config file must contain a JSON object")
    return data


def _config_value(action: argparse.Action, value: Any) -> Any:
    """Checks one config value as argparse checks the flag's text; returns what to store.

    A string goes through the flag's type and choices, a number must convert to
    the flag's type without loss, and an on/off flag takes only true or false.
    """
    key = action.dest
    if action.nargs == 0:  # an on/off flag
        if not isinstance(value, bool):
            raise CliError(f"config {key!r} must be true or false, got {value!r}")
        return value
    convert = action.type or str
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CliError(f"config {key!r} must be a string or a number, got {value!r}")
    try:
        converted = convert(value)
    except argparse.ArgumentTypeError as exc:
        raise CliError(f"config {key!r}: {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise CliError(f"config {key!r}: invalid {convert.__name__} value {value!r}") from exc
    if not isinstance(value, str) and converted != value:
        raise CliError(f"config {key!r}: invalid {type(converted).__name__} value {value!r}")
    if action.choices is not None and converted not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise CliError(f"config {key!r}: invalid choice {converted!r} (choose from {choices})")
    return converted


def positive_int(text: str) -> int:
    """argparse type for counts: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def tolerance_float(text: str) -> float:
    """argparse type for tolerances: a finite float of at least 0."""
    value = float(text)
    if not 0 <= value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be a finite number of at least 0, got {text}")
    return value


def output_path(text: str) -> str:
    """argparse type for files written: any path but '-', which would name a file '-', not stdout."""
    if text == "-":
        raise argparse.ArgumentTypeError("'-' is not an output path; name a file")
    return str(text)  # a number from --config is then refused, as argparse's str type refuses it


def _config_defaults(parser: argparse.ArgumentParser, config: dict) -> dict:
    """The config entries that name one of the subcommand's optional flags, checked."""
    actions = {
        action.dest: action
        for action in parser._actions
        if action.option_strings and not action.required and action.dest not in ("help", "config")
    }
    return {key: _config_value(actions[key], value) for key, value in config.items() if key in actions}


def _subcommand(
    sub: Any, name: str, help: str, handler: Callable[[argparse.Namespace], int]
) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.set_defaults(handler=handler)
    parser.add_argument("--config", metavar="PATH", help="JSON file supplying defaults for this command's options")
    return parser


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="solvechart",
        description="Solution-program tooling for chart question answering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    agent_help = "oracle, http(s)://URL, or replay:PATH"
    table_help = "chart table JSON (for the oracle agent)"
    trace_help = "write the execution trace as JSON"
    fallback_help = "on failure, fall back to one direct ASK"

    p_parse = _subcommand(sub, "parse", "canonicalize a solution program", _cmd_parse)
    p_parse.add_argument("path", help="program file, or '-' for stdin")

    p_run = _subcommand(sub, "run", "execute a solution program", _cmd_run)
    p_run.add_argument("--program", required=True, help="program file, or '-' for stdin")
    p_run.add_argument("--agent", default="oracle", help=agent_help)
    p_run.add_argument("--table", help=table_help)
    p_run.add_argument("--record", metavar="PATH", type=output_path, help="record agent replies to a cassette")
    p_run.add_argument("--trace", metavar="PATH", type=output_path, help=trace_help)
    p_run.add_argument("--chart-id", default="", help="chart identifier passed to the agent")
    p_run.add_argument("--question", help="original question (used by the single-ASK fallback)")
    p_run.add_argument("--fallback", action=argparse.BooleanOptionalAction, default=False, help=fallback_help)

    p_solve = _subcommand(sub, "solve", "answer a question end to end", _cmd_solve)
    p_solve.add_argument("--question", required=True, help="the chart question")
    p_solve.add_argument("--agent", default="oracle", help=agent_help)
    p_solve.add_argument("--table", help=table_help)
    p_solve.add_argument("--llm", metavar="URL", help="chat-completions endpoint")
    p_solve.add_argument("--llm-replay", metavar="PATH", help="cassette of recorded model replies")
    p_solve.add_argument("--llm-record", metavar="PATH", type=output_path,
                         help="record live model replies to a cassette")
    p_solve.add_argument("--mode", default="programmatic", choices=["programmatic", "agent-only"],
                         help="answer through a program, or ask the agent directly")
    p_solve.add_argument("--chart-id", default="", help="chart identifier passed to the agent")
    p_solve.add_argument("--fallback", action=argparse.BooleanOptionalAction, default=True, help=fallback_help)
    p_solve.add_argument("--show-program", action="store_true", help="print the canonical program to stderr")
    p_solve.add_argument("--trace", metavar="PATH", type=output_path, help=trace_help)

    p_align = _subcommand(sub, "align-demo", "run the alignment pipeline on synthetic patches", _cmd_align_demo)
    p_align.add_argument("--grid", default="4x4", metavar="RxC", help="patch grid shape")
    p_align.add_argument("--dim", type=positive_int, default=16, help="embedding dimension")
    p_align.add_argument("--seed", type=int, default=0, help="seed for patches, query and parameters")
    p_align.add_argument("--layers", type=int, default=DEFAULT_LAYERS, help="intra-cluster attention layers")
    p_align.add_argument("--top-k", type=int, default=DEFAULT_TOP_K, help="patches marked by cross-cluster annotation")
    p_align.add_argument("--linkage-threshold", type=float, default=DEFAULT_LINKAGE_THRESHOLD,
                         help="stop merging clusters farther apart than this")
    p_align.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, help="maximum cluster count")
    p_align.add_argument("--proximity-radius", type=float, default=DEFAULT_PROXIMITY_RADIUS, help="proximity radius")
    p_align.add_argument("--disable-vp-alignment", action="store_true",
                         help="replace the alignment matrix with seeded noise")
    p_align.add_argument("--disable-intra", action="store_true", help="skip intra-cluster reasoning")
    p_align.add_argument("--disable-cross", action="store_true", help="skip cross-cluster annotation")

    p_eval = _subcommand(sub, "eval", "evaluate a dataset", _cmd_eval)
    p_eval.add_argument("--dataset", required=True, help="JSONL dataset file")
    p_eval.add_argument("--mode", default="programmatic", choices=["programmatic", "agent-only"],
                        help="answer through programs, or ask the agent directly")
    p_eval.add_argument("--agent", default="oracle", help=agent_help)
    p_eval.add_argument("--llm", metavar="URL", help="chat-completions endpoint")
    p_eval.add_argument("--replay", "--llm-replay", dest="llm_replay", metavar="PATH",
                        help="cassette of recorded model replies")
    p_eval.add_argument("--workers", type=positive_int, default=1, help="items evaluated in parallel")
    p_eval.add_argument("--tolerance", type=tolerance_float, default=DEFAULT_TOLERANCE,
                        help="relative error allowed against a numeric gold")
    p_eval.add_argument("--fallback", action=argparse.BooleanOptionalAction, default=True, help=fallback_help)
    p_eval.add_argument("--output", metavar="PATH", type=output_path, help="also write the report JSON here")
    p_eval.add_argument("--trace-dir", metavar="DIR", type=output_path, help="write per-item traces here")

    return parser, sub.choices


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parses argv; ``handler`` on the result runs the command.

    argparse exits with status 2 on usage errors. A ``--config`` file becomes
    the subcommand's defaults and argv is parsed again, so flags still win;
    a bad file or value raises CliError.
    """
    parser, subcommands = _build_parsers()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    subparser = subcommands[args.command]
    subparser.set_defaults(**_config_defaults(subparser, _load_config(args.config)))
    return parser.parse_args(argv)


def _read_source(path: str) -> str:
    return read_text(path, "program", CliError, MAX_PROGRAM_BYTES)


def _write_output(path: str, text: str) -> None:
    try:
        write_text_atomic(path, text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _build_agent(spec: str, table: str | None, record: str | None) -> AgentHandle:
    if spec == "oracle":
        if table is None:
            raise CliError("--agent oracle requires --table")
        base: AgentHandle = OracleAgent(load_table(table))
    elif spec.startswith(("http://", "https://")):
        base = HttpAgent(spec)
    elif spec.startswith("replay:"):
        if record is not None:
            raise CliError("cannot record from a replay agent")
        return ReplayAgent(Cassette.load(spec[len("replay:"):]))
    else:
        raise CliError(f"unknown agent {spec!r}; use oracle, http(s)://URL, or replay:PATH")
    if record is not None:
        return ReplayAgent(Cassette.record(record), live=base)
    return base


def _build_llm(llm: str | None, llm_replay: str | None) -> LlmConfig | Cassette:
    if (llm is None) == (llm_replay is None):
        raise CliError("provide exactly one of --llm or --llm-replay")
    if llm is not None:
        return LlmConfig(endpoint=llm)
    return Cassette.load(llm_replay)


def _cmd_parse(cmd: argparse.Namespace) -> int:
    program = parse_program(_read_source(cmd.path))
    sys.stdout.write(format_program(program))
    for warning in program.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _execute_and_print(cmd: argparse.Namespace, program: SolutionProgram, agent: AgentHandle) -> int:
    """Runs the program, writes the --trace file if asked, prints the answer."""
    config = EngineConfig(fallback_to_ask=cmd.fallback, chart_id=cmd.chart_id, question=cmd.question)
    result = execute(program, agent, config)
    if cmd.trace is not None:
        _write_output(cmd.trace, result.trace.to_json_text())
    print(stringify(result.answer))
    return 0


def _cmd_run(cmd: argparse.Namespace) -> int:
    program = parse_program(_read_source(cmd.program))
    return _execute_and_print(cmd, program, _build_agent(cmd.agent, cmd.table, cmd.record))


def _cmd_solve(cmd: argparse.Namespace) -> int:
    agent = _build_agent(cmd.agent, cmd.table, None)
    if cmd.mode == "agent-only":
        print(agent.answer(AgentQuery(cmd.question, cmd.chart_id, "ASK")).answer)
        return 0
    llm = _build_llm(cmd.llm, cmd.llm_replay)
    record_to = None
    if cmd.llm_record is not None:
        if cmd.llm is None:
            raise CliError("--llm-record requires --llm")
        record_to = Cassette.record(cmd.llm_record)
    hints = prompt_hints(llm, agent, cmd.table)
    program = generate_solution(cmd.question, llm, chart_hints=hints, chart_id=cmd.chart_id, record_to=record_to)
    if cmd.show_program:
        sys.stderr.write(format_program(program))
    return _execute_and_print(cmd, program, agent)


def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        rows, cols = (int(part) for part in spec.lower().split("x"))
    except ValueError as exc:
        raise CliError(f"--grid must look like RxC, got {spec!r}") from exc
    if rows < 1 or cols < 1:
        raise CliError("--grid dimensions must be positive")
    return rows, cols


def _cmd_align_demo(cmd: argparse.Namespace) -> int:
    rows, cols = _parse_grid(cmd.grid)
    grid = make_grid(rows, cols, cmd.dim, seed=cmd.seed)
    query = make_query(cmd.dim, seed=cmd.seed)
    params = make_params(cmd.dim, seed=cmd.seed, layers=cmd.layers, top_k=cmd.top_k)
    pipeline_config = PipelineConfig(
        linkage_threshold=cmd.linkage_threshold,
        k_max=cmd.k_max,
        proximity_radius=cmd.proximity_radius,
        disable_alignment=cmd.disable_vp_alignment,
        disable_intra=cmd.disable_intra,
        disable_cross=cmd.disable_cross,
        noise_seed=cmd.seed,
    )
    bundle = run_alignment_pipeline(grid, query, params, pipeline_config)
    report = check_bundle(grid, bundle)
    settings = {k: v for k, v in vars(cmd).items() if k not in ("command", "config", "handler")}
    document = {
        "config": {**settings, "grid": f"{rows}x{cols}"},
        "bundle": bundle.to_json_dict(),
        "invariants": report,
    }
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _cmd_eval(cmd: argparse.Namespace) -> int:
    items = load_dataset(cmd.dataset)
    mode = cmd.mode.replace("-", "_")
    shared = None if cmd.agent == "oracle" else _build_agent(cmd.agent, None, None)
    factory = oracle_agents() if shared is None else lambda item: shared
    llm = _build_llm(cmd.llm, cmd.llm_replay) if mode == "programmatic" else None
    config = EvalConfig(
        mode=mode,
        agent_factory=factory,
        llm_client=llm,
        fallback_to_ask=cmd.fallback,
        workers=cmd.workers,
        tolerance=cmd.tolerance,
        trace_dir=cmd.trace_dir,
    )
    if cmd.trace_dir is not None:
        try:
            Path(cmd.trace_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CliError(f"cannot write {cmd.trace_dir}: {exc.strerror or exc}") from exc
    report = run_eval(items, config)
    text = report.to_json_text()
    if cmd.output is not None:
        _write_output(cmd.output, text)
    sys.stdout.write(text)
    total = len(report.items)
    correct = sum(1 for item in report.items if item.correct)
    print(f"accuracy {correct}/{total} = {report.accuracy:.3f}", file=sys.stderr)
    if report.empty_dataset:
        print("warning: dataset is empty", file=sys.stderr)
    return 0


def _report_error(exc: SolveChartError) -> int:
    print(f"solvechart: error: {exc}", file=sys.stderr)
    return 1


def run_command(cmd: argparse.Namespace) -> int:
    """Executes a parsed command. Returns the process exit status."""
    try:
        return cmd.handler(cmd)
    except SolveChartError as exc:
        return _report_error(exc)


def main() -> None:
    try:
        cmd = parse_args(sys.argv[1:])
    except CliError as exc:
        sys.exit(_report_error(exc))
    try:
        status = run_command(cmd)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull so the flush at
        # interpreter exit cannot fail again (the `signal` module docs' recipe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
