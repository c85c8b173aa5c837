"""Command-line interface.

Subcommands:

* ``parse``: read a solution program, print its canonical form.
* ``run``: execute a program file against a chart agent.
* ``solve``: produce a program for a question (live model or replay
  cassette), execute it, print the answer.
* ``align-demo``: run the visual alignment pipeline on synthetic patches
  and print, as JSON, the cluster labels, an invariant report and each
  array's shape, sum and absolute sum.
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
import io
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Callable

from .agents.base import AgentHandle, AgentQuery
from .agents.http import HttpAgent
from .agents.oracle import OracleAgent
from .agents.replay import Cassette, ReplayAgent
from .agents.table import ChartTable, load_table
from .dsl.formatter import format_program
from .dsl.nodes import SolutionProgram
from .dsl.parser import parse_program
from .engine.interpreter import EngineConfig, execute
from .errors import SolveChartError
from .evaluation.dataset import load_dataset
from .evaluation.harness import MAX_WORKERS, EvalConfig, run_eval
from .evaluation.metrics import DEFAULT_TOLERANCE
from .files import check_output_path, json_text, read_json, read_text, write_text_atomic
from .solgen.client import LlmConfig
from .solgen.generate import MAX_REPLY_CHARS, generate_solution
from .solgen.prompt import chart_hints
from .values import stringify

if TYPE_CHECKING:
    from .align import AlignmentBundle


# UTF-8 spends at most 4 bytes a character, so any reply the model path
# accepts also runs from a program file.
MAX_PROGRAM_BYTES = 4 * MAX_REPLY_CHARS

# The largest align-demo inputs.  The command holds several patches x patches
# arrays, so its memory grows as the square of the patch count: measured as a
# child process with one BLAS thread, a 32x32 grid (1,024 patches) peaked at
# 89 MB resident and a 45x45 grid (2,025 patches) at 232 MB, and 4,096
# patches would need about four times as much.  Each attention layer holds
# 4 x dim x dim parameter floats, 33.6 MB at the largest dim, so 16 layers
# hold about 537 MB.
MAX_DEMO_PATCHES = 2048
MAX_DEMO_DIM = 1024
MAX_DEMO_LAYERS = 16
# The AlignmentBundle arrays that align-demo summarizes.
DEMO_ARRAYS = ("principle_weights", "cluster_weights", "alignment", "annotated", "refined", "fused")


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


def non_negative_int(text: str) -> int:
    """argparse type for seeds: an int of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
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
    p_align.add_argument("--seed", type=non_negative_int, default=0, help="seed for patches, query and parameters")
    # solvechart.align owns these five defaults and imports numpy, so the flags
    # stay unset unless given and _align_demo fills them in from the library.
    for flag, kind, text in (
        ("--layers", int, "intra-cluster attention layers"),
        ("--top-k", int, "patches marked by cross-cluster annotation"),
        ("--linkage-threshold", float, "stop merging clusters farther apart than this"),
        ("--k-max", int, "maximum cluster count"),
        ("--proximity-radius", float, "proximity radius"),
    ):
        p_align.add_argument(flag, type=kind, default=argparse.SUPPRESS, help=f"{text} (default: solvechart.align's)")
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


def _build_agent(spec: str, table: ChartTable | None, record: str | None) -> AgentHandle:
    if spec == "oracle":
        if table is None:
            raise CliError("--agent oracle requires --table")
        base: AgentHandle = OracleAgent(table)
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
        write_text_atomic(cmd.trace, result.trace.to_json_text())
    print(stringify(result.answer))
    return 0


def _refuse_in_agent_only(cmd: argparse.Namespace, *flags: str) -> None:
    """An agent-only run executes no program, so it asks no model and has no program or trace to write."""
    if cmd.mode != "agent-only":
        return
    for flag in flags:
        if getattr(cmd, flag[2:].replace("-", "_")) not in (None, False):  # False: an on/off flag left off
            raise CliError(f"{flag} does not apply to --mode agent-only, which runs no program")


def _check_outputs(cmd: argparse.Namespace) -> None:
    """Refuses, before any item, model call or agent call, a file output in a missing directory or naming one."""
    for dest in ("output", "trace", "record", "llm_record"):
        if (path := getattr(cmd, dest, None)) is not None:
            check_output_path(path)


def _cmd_run(cmd: argparse.Namespace) -> int:
    if cmd.fallback and cmd.question is None:
        raise CliError("--fallback requires --question")
    _check_outputs(cmd)
    program = parse_program(_read_source(cmd.program))
    table = load_table(cmd.table) if cmd.table is not None and cmd.agent == "oracle" else None
    return _execute_and_print(cmd, program, _build_agent(cmd.agent, table, cmd.record))


def _cmd_solve(cmd: argparse.Namespace) -> int:
    _refuse_in_agent_only(cmd, "--trace", "--llm-record", "--llm", "--llm-replay", "--show-program")
    _check_outputs(cmd)
    live = cmd.llm is not None  # only a live model gets a prompt
    table = load_table(cmd.table) if cmd.table is not None and (cmd.agent == "oracle" or live) else None
    agent = _build_agent(cmd.agent, table, None)
    if cmd.mode == "agent-only":
        print(agent.answer(AgentQuery(cmd.question, cmd.chart_id, "ASK")).answer)
        return 0
    llm = _build_llm(cmd.llm, cmd.llm_replay)
    record_to = None
    if cmd.llm_record is not None:
        if cmd.llm is None:
            raise CliError("--llm-record requires --llm")
        record_to = Cassette.record(cmd.llm_record)
    hints = chart_hints(table) if live and table is not None else None
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


def _align_demo(cmd: argparse.Namespace) -> tuple[dict, AlignmentBundle, dict]:
    """Runs align-demo's pipeline; returns the printed config, the AlignmentBundle and the invariant report."""
    rows, cols = _parse_grid(cmd.grid)
    if rows * cols > MAX_DEMO_PATCHES:
        raise CliError(f"--grid {rows}x{cols} has {rows * cols} patches, more than {MAX_DEMO_PATCHES}")
    if cmd.dim > MAX_DEMO_DIM:
        raise CliError(f"--dim {cmd.dim} is more than {MAX_DEMO_DIM}")
    if getattr(cmd, "layers", 0) > MAX_DEMO_LAYERS:  # unset unless given, see the flag
        raise CliError(f"--layers {cmd.layers} is more than {MAX_DEMO_LAYERS}")
    # Imported here so that no other command pays for numpy.
    from .align import PipelineConfig, check_bundle, make_grid, make_params, make_query, run_alignment_pipeline
    from .align.cluster import DEFAULT_K_MAX, DEFAULT_LINKAGE_THRESHOLD
    from .align.principles import DEFAULT_PROXIMITY_RADIUS
    from .align.synthetic import DEFAULT_LAYERS
    from .align.types import DEFAULT_TOP_K

    defaults = {
        "layers": DEFAULT_LAYERS,
        "top_k": DEFAULT_TOP_K,
        "linkage_threshold": DEFAULT_LINKAGE_THRESHOLD,
        "k_max": DEFAULT_K_MAX,
        "proximity_radius": DEFAULT_PROXIMITY_RADIUS,
    }
    cmd = argparse.Namespace(**{**defaults, **vars(cmd)})
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
    settings = {k: v for k, v in vars(cmd).items() if k not in ("command", "config", "handler")}
    return {**settings, "grid": f"{rows}x{cols}"}, bundle, check_bundle(grid, bundle)


def _cmd_align_demo(cmd: argparse.Namespace) -> int:
    config, bundle, report = _align_demo(cmd)
    arrays = {name: getattr(bundle, name) for name in DEMO_ARRAYS}
    document = {
        "config": config,
        "clusters": bundle.clusters.labels.tolist(),
        "invariants": report,
        "arrays": {
            name: {"shape": list(array.shape), "sum": float(array.sum()), "abs_sum": float(abs(array).sum())}
            for name, array in arrays.items()
        },
    }
    sys.stdout.write(json_text(document))
    return 0


def _cmd_eval(cmd: argparse.Namespace) -> int:
    _refuse_in_agent_only(cmd, "--trace-dir", "--llm", "--llm-replay")
    if cmd.workers > MAX_WORKERS:
        raise CliError(f"--workers {cmd.workers} is more than {MAX_WORKERS}")
    _check_outputs(cmd)
    items = load_dataset(cmd.dataset)
    mode = cmd.mode.replace("-", "_")
    shared = None if cmd.agent == "oracle" else _build_agent(cmd.agent, None, None)
    llm = _build_llm(cmd.llm, cmd.llm_replay) if mode == "programmatic" else None
    config = EvalConfig(
        mode=mode,
        agent_factory=None if shared is None else lambda item: shared,  # None: the oracle over each item's table
        llm_client=llm,
        fallback_to_ask=cmd.fallback,
        workers=cmd.workers,
        tolerance=cmd.tolerance,
        trace_dir=cmd.trace_dir,
    )
    report = run_eval(items, config)
    text = report.to_json_text()
    if cmd.output is not None:
        write_text_atomic(cmd.output, text)
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


def _buffer_stdout() -> None:
    """Under PYTHONUNBUFFERED or -u, stdout's text layer ignores a short write, so a reader that closes the pipe
    early loses the rest with no error; a buffered writer on the same descriptor, left open, writes again until
    all is written or raises BrokenPipeError.  Lines still go out as they are printed."""
    out = sys.stdout
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        buffered = open(out.fileno(), "wb", closefd=False)
        sys.stdout = io.TextIOWrapper(buffered, encoding=out.encoding, errors=out.errors, line_buffering=True)


def main() -> None:
    _buffer_stdout()
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
