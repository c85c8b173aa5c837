from __future__ import annotations

import io
import json
import subprocess
import sys
import threading

import pytest

import solvechart
from conftest import ELECTION_PROGRAM, json_server, src_env
from solvechart.agents.base import AgentQuery
from solvechart.agents.oracle import OracleAgent
from solvechart.agents.table import load_table
from solvechart.cli import (
    MAX_DEMO_DIM, MAX_DEMO_LAYERS, MAX_DEMO_PATCHES, MAX_PROGRAM_BYTES, CliError, _load_config, main, parse_args,
    run_command,
)
from solvechart.evaluation.harness import MAX_WORKERS


def cli(*argv: str) -> int:
    return run_command(parse_args(list(argv)))


@pytest.fixture()
def election_json(fixtures_dir) -> str:
    return str(fixtures_dir / "tables" / "election.json")


@pytest.fixture()
def program_file(tmp_path) -> str:
    path = tmp_path / "program.txt"
    path.write_text(ELECTION_PROGRAM, encoding="utf-8")
    return str(path)


# -- argument parsing -------------------------------------------------------

def test_parse_args_run_defaults(program_file, election_json):
    cmd = parse_args(["run", "--program", program_file, "--table", election_json])
    assert cmd.command == "run"
    assert cmd.agent == "oracle"
    assert cmd.fallback is False
    assert cmd.record is None
    assert cmd.chart_id == ""


def test_parse_args_eval_replay_alias():
    cmd = parse_args(
        ["eval", "--dataset", "d.jsonl", "--mode", "programmatic", "--replay", "c.json"]
    )
    assert cmd.command == "eval"
    assert cmd.llm_replay == "c.json"
    assert cmd.mode == "programmatic"


def test_parse_args_eval_long_replay_spelling():
    cmd = parse_args(["eval", "--dataset", "d.jsonl", "--llm-replay", "c.json"])
    assert cmd.llm_replay == "c.json"


def test_parse_args_solve_defaults():
    cmd = parse_args(["solve", "--question", "Q?"])
    assert cmd.command == "solve"
    assert cmd.mode == "programmatic"
    assert cmd.fallback is True
    assert cmd.agent == "oracle"
    assert cmd.show_program is False


def test_parse_args_boolean_optional_fallback():
    on = parse_args(["run", "--program", "p", "--fallback"])
    off = parse_args(["run", "--program", "p", "--no-fallback"])
    assert on.fallback is True
    assert off.fallback is False
    solve_off = parse_args(["solve", "--question", "q", "--no-fallback"])
    assert solve_off.fallback is False


def test_parse_args_align_demo_flags():
    cmd = parse_args(
        ["align-demo", "--grid", "3x5", "--dim", "8", "--seed", "4", "--disable-intra"]
    )
    assert cmd.command == "align-demo"
    assert cmd.grid == "3x5"
    assert cmd.dim == 8
    assert cmd.seed == 4
    assert cmd.disable_intra is True
    assert cmd.disable_vp_alignment is False


def test_parse_args_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["frobnicate"])
    assert excinfo.value.code == 2


def test_parse_args_missing_required_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["run"])
    assert excinfo.value.code == 2


def test_parse_args_workers_below_one_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["eval", "--dataset", "d", "--workers", "0"])
    assert excinfo.value.code == 2
    assert "--workers: must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["-1", "0"])
def test_parse_args_align_demo_dim_below_one_exits_2(capsys, text):
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["align-demo", "--dim", text])
    assert excinfo.value.code == 2
    assert f"--dim: must be at least 1, got {text}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["-1", "-2"])
def test_parse_args_align_demo_negative_seed_exits_2(capsys, text):
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["align-demo", "--seed", text])
    assert excinfo.value.code == 2
    assert f"--seed: must be at least 0, got {text}" in capsys.readouterr().err


def test_parse_args_bad_choice_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["eval", "--dataset", "d", "--mode", "telepathy"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("text", ["-1", "-0.5", "nan", "inf", "-inf"])
def test_parse_args_tolerance_not_finite_non_negative_exits_2(capsys, text):
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["eval", "--dataset", "d", f"--tolerance={text}"])
    assert excinfo.value.code == 2
    assert f"--tolerance: must be a finite number of at least 0, got {text}" in capsys.readouterr().err


def test_parse_args_tolerance_accepts_zero():
    assert parse_args(["eval", "--dataset", "d", "--tolerance", "0"]).tolerance == 0.0


# -- config file layering ---------------------------------------------------

def test_config_supplies_defaults_flags_win(tmp_path, program_file):
    config = tmp_path / "conf.json"
    config.write_text(
        json.dumps({"table": "from-config.json", "chart_id": "cfg-chart", "fallback": True}),
        encoding="utf-8",
    )
    cmd = parse_args(
        [
            "run",
            "--program",
            program_file,
            "--config",
            str(config),
            "--table",
            "from-flag.json",
        ]
    )
    assert cmd.table == "from-flag.json"  # flag beats config
    assert cmd.chart_id == "cfg-chart"  # config beats builtin
    assert cmd.fallback is True
    assert cmd.record is None  # builtin default


@pytest.mark.parametrize(
    "argv, config, expected",
    [
        (["align-demo"], {"dim": "8"}, {"dim": 8}),
        (["align-demo"], {"dim": 8.0}, {"dim": 8}),
        (["align-demo"], {"linkage_threshold": 1}, {"linkage_threshold": 1.0}),
        (["align-demo"], {"disable_cross": True}, {"disable_cross": True}),
        (["solve", "--question", "q"], {"fallback": False, "mode": "agent-only"},
         {"fallback": False, "mode": "agent-only"}),
        # Keys the subcommand has no optional flag for are ignored.
        (["solve", "--question", "q"], {"dataset": 3, "question": "cfg", "command": "eval"},
         {"question": "q", "command": "solve"}),
    ],
)
def test_config_values_checked_and_converted_like_flags(tmp_path, argv, config, expected):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    cmd = parse_args([*argv, "--config", str(path)])
    for key, value in expected.items():
        assert getattr(cmd, key) == value
        assert type(getattr(cmd, key)) is type(value)


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["run", "--program", "p"], {"fallback": "false"}, "'fallback' must be true or false"),
        (["solve", "--question", "q"], {"show_program": "no"}, "'show_program' must be true or false"),
        (["align-demo"], {"dim": 2.9}, "'dim': invalid int value 2.9"),
        (["align-demo"], {"grid": 5}, "'grid': invalid str value 5"),
        (["align-demo"], {"seed": True}, "'seed' must be a string or a number"),
        (["eval", "--dataset", "d"], {"mode": "telepathy"}, "'mode': invalid choice 'telepathy'"),
        (["eval", "--dataset", "d"], None, "cannot read config file"),
        (["eval", "--dataset", "d"], "{oops", "invalid JSON in {path}: "),
        (["eval", "--dataset", "d"], "[1, 2]", "config file must contain a JSON object"),
        (["eval", "--dataset", "d"], {"workers": 0}, "'workers': must be at least 1, got 0"),
        (["eval", "--dataset", "d"], {"tolerance": -1},
         "'tolerance': must be a finite number of at least 0, got -1"),
        (["eval", "--dataset", "d"], {"tolerance": "nan"},
         "'tolerance': must be a finite number of at least 0, got nan"),
        (["align-demo"], {"dim": 0}, "'dim': must be at least 1, got 0"),
        (["align-demo"], '{"dim": ' + "9" * 5000 + "}", "invalid JSON in {path}: Exceeds the limit"),
        (["align-demo"], {"seed": -2}, "'seed': must be at least 0, got -2"),
        (["align-demo"], {"seed": "-1"}, "'seed': must be at least 0, got -1"),
    ],
)
def test_bad_config_exits_1_without_traceback(monkeypatch, tmp_path, capsys, argv, config, message):
    path = tmp_path / "conf.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    monkeypatch.setattr("sys.argv", ["solvechart", *argv, "--config", str(path)])
    with pytest.raises(SystemExit) as excinfo:
        main()
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solvechart: error: ")
    assert message.format(path=path) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, key, failure",
    [("run", "table", "read table"), ("run", "trace", "write"), ("run", "record", "write"),
     ("eval", "trace_dir", "write"), ("eval", "output", "write")],
)
def test_a_config_path_holding_a_nul_byte_exits_1_without_traceback(
    monkeypatch, tmp_path, capsys, fixtures_dir, program_file, election_json, command, key, failure
):
    if command == "run":
        argv, config = ["run", "--program", program_file], {"table": election_json}
    else:
        argv, config = ["eval", "--dataset", str(fixtures_dir / "dataset.jsonl")], {
            "llm_replay": str(fixtures_dir / "llm_cassette.json")}
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({**config, key: "a\0b"}), encoding="utf-8")
    monkeypatch.setattr("sys.argv", ["solvechart", *argv, "--config", str(path)])
    with pytest.raises(SystemExit) as excinfo:
        main()
    assert excinfo.value.code == 1
    assert capsys.readouterr().err == f"solvechart: error: cannot {failure} a\0b: path holds a NUL byte\n"


def test_help_shows_parser_defaults(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["solve", "--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "fall back to one direct ASK (default: True)" in text
    assert "(default: programmatic)" in text
    assert "print the canonical program to stderr (default: False)" in text


def test_config_file_must_exist(tmp_path):
    with pytest.raises(CliError):
        parse_args(["solve", "--question", "q", "--config", str(tmp_path / "nope.json")])


def test_config_file_must_be_json_object(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(CliError):
        _load_config(str(bad))
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(CliError):
        _load_config(str(bad))


# -- parse command ----------------------------------------------------------

def test_parse_prints_canonical_form(tmp_path, capsys):
    messy = tmp_path / "messy.txt"
    messy.write_text('answer   =   (1+2)\n', encoding="utf-8")
    assert cli("parse", str(messy)) == 0
    captured = capsys.readouterr()
    assert captured.out == "answer = 1 + 2\n"
    assert captured.err == ""


def test_parse_warns_on_missing_answer(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("x = 1\n", encoding="utf-8")
    assert cli("parse", str(path)) == 0
    captured = capsys.readouterr()
    assert captured.out == "x = 1\n"
    assert captured.err.startswith("warning: ")


def test_parse_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"answer = 1\n")))
    assert cli("parse", "-") == 0
    assert capsys.readouterr().out == "answer = 1\n"


def test_parse_syntax_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("answer = = 1\n", encoding="utf-8")
    assert cli("parse", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solvechart: error: ")


def test_parse_missing_file_exits_1(tmp_path, capsys):
    assert cli("parse", str(tmp_path / "absent.txt")) == 1
    assert "cannot read program" in capsys.readouterr().err


# -- run command ------------------------------------------------------------

def test_run_election_program(program_file, election_json, capsys):
    assert cli("run", "--program", program_file, "--table", election_json) == 0
    captured = capsys.readouterr()
    assert captured.out == "Republican\n"
    assert captured.err == ""


def test_run_writes_trace(program_file, election_json, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert (
        cli(
            "run",
            "--program",
            program_file,
            "--table",
            election_json,
            "--trace",
            str(trace_path),
        )
        == 0
    )
    capsys.readouterr()
    doc = json.loads(trace_path.read_text(encoding="utf-8"))
    raw = [c["raw_answer"] for c in doc["agent_calls"]]
    assert raw == ["50", "43"]
    assert trace_path.read_text(encoding="utf-8").endswith("\n")


def test_run_oracle_requires_table(program_file, capsys):
    assert cli("run", "--program", program_file) == 1
    assert "requires --table" in capsys.readouterr().err


def test_run_unknown_agent(program_file, capsys):
    assert cli("run", "--program", program_file, "--agent", "psychic") == 1
    assert "unknown agent" in capsys.readouterr().err


def test_run_record_then_replay(program_file, election_json, tmp_path, capsys):
    cassette = tmp_path / "cassette.json"
    assert (
        cli(
            "run",
            "--program",
            program_file,
            "--table",
            election_json,
            "--record",
            str(cassette),
        )
        == 0
    )
    assert capsys.readouterr().out == "Republican\n"
    entries = json.loads(cassette.read_text(encoding="utf-8"))
    assert len(entries) == 2

    # No table needed on replay: the cassette answers everything.
    assert cli("run", "--program", program_file, "--agent", f"replay:{cassette}") == 0
    assert capsys.readouterr().out == "Republican\n"


def test_run_record_from_replay_rejected(program_file, tmp_path, capsys):
    cassette = tmp_path / "c.json"
    cassette.write_text("[]", encoding="utf-8")
    code = cli(
        "run",
        "--program",
        program_file,
        "--agent",
        f"replay:{cassette}",
        "--record",
        str(tmp_path / "out.json"),
    )
    assert code == 1
    assert "cannot record from a replay agent" in capsys.readouterr().err


def test_run_fallback_recovers(tmp_path, fixtures_dir, capsys):
    broken = tmp_path / "broken.txt"
    broken.write_text("answer = 1 / 0\n", encoding="utf-8")
    temps = str(fixtures_dir / "tables" / "temps.json")
    assert (
        cli(
            "run",
            "--program",
            str(broken),
            "--table",
            temps,
            "--fallback",
            "--question",
            "What is the value of Thu?",
        )
        == 0
    )
    assert capsys.readouterr().out == "21\n"


def test_run_failure_without_fallback(tmp_path, fixtures_dir, capsys):
    broken = tmp_path / "broken.txt"
    broken.write_text("answer = 1 / 0\n", encoding="utf-8")
    temps = str(fixtures_dir / "tables" / "temps.json")
    assert cli("run", "--program", str(broken), "--table", temps) == 1
    assert "division-by-zero" in capsys.readouterr().err


def test_run_refuses_a_program_over_the_agent_call_site_limit_before_any_call(tmp_path, capsys):
    program = tmp_path / "many.txt"
    program.write_text('a=SUBSTEP("q")\n' * 6665 + "answer=a\n", encoding="utf-8")
    requests = []
    with json_server(lambda path, body: requests.append(body) or {"answer": "1"}) as (_, url):
        assert cli("run", "--program", str(program), "--agent", url, "--fallback", "--question", "q") == 1
    assert requests == []
    assert "program has 6665 agent call sites, more than 64" in capsys.readouterr().err


# -- solve command ----------------------------------------------------------

def test_solve_agent_only(election_json, capsys):
    code = cli(
        "solve",
        "--question",
        "What is the value of Republican in 2012?",
        "--mode",
        "agent-only",
        "--table",
        election_json,
    )
    assert code == 0
    assert capsys.readouterr().out == "50\n"


def test_solve_programmatic_from_cassette(election_json, fixtures_dir, capsys):
    code = cli(
        "solve",
        "--question",
        "By how much did Republican exceed Democrat in 2012?",
        "--table",
        election_json,
        "--chart-id",
        "election",
        "--llm-replay",
        str(fixtures_dir / "llm_cassette.json"),
        "--show-program",
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "7\n"
    assert 'SUBSTEP("What is the value of Republican in 2012?")' in captured.err
    assert "answer = rep - dem" in captured.err


def test_solve_requires_one_llm_source(election_json, capsys):
    code = cli("solve", "--question", "q", "--table", election_json)
    assert code == 1
    assert "exactly one of --llm or --llm-replay" in capsys.readouterr().err


def test_solve_llm_record_requires_live_llm(election_json, fixtures_dir, tmp_path, capsys):
    code = cli(
        "solve",
        "--question",
        "q",
        "--table",
        election_json,
        "--llm-replay",
        str(fixtures_dir / "llm_cassette.json"),
        "--llm-record",
        str(tmp_path / "rec.json"),
    )
    assert code == 1
    assert "--llm-record requires --llm" in capsys.readouterr().err


@pytest.mark.parametrize("llm", ["live", "replay"])
def test_solve_loads_the_table_once(monkeypatch, capsys, election_json, fixtures_dir, llm):
    loads, prompts = [], []
    monkeypatch.setattr("solvechart.cli.load_table", lambda path: loads.append(path) or load_table(path))
    argv = ["solve", "--agent", "oracle", "--table", election_json, "--chart-id", "election",
            "--question", "By how much did Republican exceed Democrat in 2012?"]

    def respond(path, body):
        prompts.append(body["messages"][-1]["content"])
        return {"choices": [{"message": {"content": f"```\n{ELECTION_PROGRAM}```\n"}}]}

    if llm == "live":
        with json_server(respond) as (_, url):
            assert cli(*argv, "--llm", url) == 0
        assert prompts and all("Chart: " in prompt for prompt in prompts)  # the oracle's table gave the hints
    else:
        assert cli(*argv, "--llm-replay", str(fixtures_dir / "llm_cassette.json")) == 0
    assert loads == [election_json]
    assert capsys.readouterr().out != ""


@pytest.mark.parametrize("llm", ["live", "replay"])
def test_solve_with_another_agent_reads_the_table_only_for_a_live_model(monkeypatch, capsys, election_json,
                                                                         fixtures_dir, llm):
    loads, prompts = [], []
    monkeypatch.setattr("solvechart.cli.load_table", lambda path: loads.append(path) or load_table(path))
    oracle = OracleAgent(load_table(election_json))

    def respond(path, body):
        if path == "/answer":
            return {"answer": oracle.answer(AgentQuery(body["question"], body["chart_id"], body["operator"])).answer}
        prompts.append(body["messages"][-1]["content"])
        return {"choices": [{"message": {"content": f"```\n{ELECTION_PROGRAM}```\n"}}]}

    with json_server(respond) as (_, url):
        argv = ["solve", "--agent", url, "--table", election_json, "--chart-id", "election",
                "--question", "By how much did Republican exceed Democrat in 2012?"]
        llm_args = ["--llm", url] if llm == "live" else ["--llm-replay", str(fixtures_dir / "llm_cassette.json")]
        assert cli(*argv, *llm_args) == 0
    assert loads == ([election_json] if llm == "live" else [])
    assert prompts == ([f"Question: {argv[-1]}\nChart: Vote share by party; series: Republican, Democrat"]
                       if llm == "live" else [])
    assert capsys.readouterr().out != ""


# -- align-demo command -----------------------------------------------------

def test_align_demo_document(capsys):
    assert cli("align-demo", "--grid", "3x3", "--dim", "8", "--seed", "5") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"arrays", "clusters", "config", "invariants"}
    assert doc["config"]["grid"] == "3x3"
    assert all(doc["invariants"].values())
    assert len(doc["clusters"]) == 9
    assert doc["arrays"]["fused"]["shape"] == [9, 8]


def test_align_demo_noise_ablation_flips_invariant(capsys):
    code = cli(
        "align-demo", "--grid", "3x3", "--dim", "8", "--seed", "5", "--disable-vp-alignment"
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["invariants"]["shapes"] is True
    assert doc["invariants"]["same_cluster_nullity"] is False


def test_align_demo_bad_grid(capsys):
    assert cli("align-demo", "--grid", "swirl") == 1
    assert "--grid must look like RxC" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--linkage-threshold", "--proximity-radius"])
def test_align_demo_nan_threshold_exits_1(capsys, flag):
    assert cli("align-demo", "--grid", "3x3", flag, "nan") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solvechart: error: ")
    assert "must be" in captured.err


def test_align_demo_output_is_deterministic(capsys):
    cli("align-demo", "--grid", "2x2", "--dim", "8", "--seed", "3")
    first = capsys.readouterr().out
    cli("align-demo", "--grid", "2x2", "--dim", "8", "--seed", "3")
    second = capsys.readouterr().out
    assert first == second


# The printed config on the defaults; the five numeric ones come from solvechart.align.
ALIGN_DEFAULT_CONFIG = {
    "dim": 16, "disable_cross": False, "disable_intra": False, "disable_vp_alignment": False, "grid": "4x4",
    "k_max": 12, "layers": 2, "linkage_threshold": 0.35, "proximity_radius": 3.0, "seed": 0, "top_k": 5,
}


def align_demo_stdout(capsys, *argv: str) -> str:
    assert cli("align-demo", *argv) == 0
    return capsys.readouterr().out


def test_align_demo_defaults_are_the_library_defaults(capsys):
    out = align_demo_stdout(capsys)
    printed = json.loads(out)["config"]
    assert json.dumps(printed, sort_keys=True) == json.dumps(ALIGN_DEFAULT_CONFIG, sort_keys=True)  # 3.0 stays 3.0
    spelled_out = ["--layers", "2", "--top-k", "5", "--linkage-threshold", "0.35", "--k-max", "12",
                   "--proximity-radius", "3.0"]
    assert align_demo_stdout(capsys, *spelled_out) == out


@pytest.mark.parametrize(
    "flag, key, value",
    [
        ("--grid", "grid", "3x2"), ("--dim", "dim", 8), ("--seed", "seed", 4), ("--layers", "layers", 1),
        ("--top-k", "top_k", 2), ("--linkage-threshold", "linkage_threshold", 0.6), ("--k-max", "k_max", 3),
        ("--proximity-radius", "proximity_radius", 1.5), ("--disable-vp-alignment", "disable_vp_alignment", True),
        ("--disable-intra", "disable_intra", True), ("--disable-cross", "disable_cross", True),
    ],
)
def test_align_demo_flag_and_config_print_the_same_document(tmp_path, capsys, flag, key, value):
    by_flag = align_demo_stdout(capsys, flag, *([] if value is True else [str(value)]))
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({key: value}), encoding="utf-8")
    assert align_demo_stdout(capsys, "--config", str(path)) == by_flag
    assert json.loads(by_flag)["config"] == {**ALIGN_DEFAULT_CONFIG, key: value}


def test_importing_the_cli_leaves_numpy_out():
    """Only align-demo needs numpy, and only eval --workers above 1 a thread pool, so commands start without them."""
    probe = ("import sys, solvechart.cli\n"
             "print(sorted(name for name in sys.modules\n"
             "             if name.startswith(('numpy', 'solvechart.align', 'concurrent.futures'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--grid", "46x45"], None, "--grid 46x45 has 2070 patches, more than 2048"),
        (["--grid", "100x100", "--dim", "4"], None, "--grid 100x100 has 10000 patches, more than 2048"),
        (["--dim", "1025"], None, "--dim 1025 is more than 1024"),
        ([], {"grid": "1x99999"}, "--grid 1x99999 has 99999 patches, more than 2048"),
        ([], {"dim": 4096}, "--dim 4096 is more than 1024"),
        (["--layers", "17"], None, "--layers 17 is more than 16"),
        ([], {"layers": 1000}, "--layers 1000 is more than 16"),
    ],
)
def test_align_demo_refuses_sizes_it_cannot_hold_before_loading_numpy(tmp_path, argv, config, message):
    if config is not None:
        (tmp_path / "conf.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(tmp_path / "conf.json")]
    # numpy never loaded means that no array was built.
    probe = ("import sys\n"
             "from solvechart.cli import parse_args, run_command\n"
             "status = run_command(parse_args(sys.argv[1:]))\n"
             "print(status, 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe, "align-demo", *argv], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert (done.stdout, done.stderr) == ("1 False\n", f"solvechart: error: {message}\n")


def test_align_demo_takes_the_largest_sizes_it_holds(monkeypatch):
    import solvechart.align

    class Reached(Exception):
        pass

    def make_params(dim, seed, layers, top_k):
        raise Reached(dim, layers)  # before any parameter is drawn

    patches = []
    monkeypatch.setattr(solvechart.align, "make_grid", lambda rows, cols, dim, seed: patches.append(rows * cols))
    monkeypatch.setattr(solvechart.align, "make_params", make_params)
    with pytest.raises(Reached) as reached:
        run_command(parse_args(["align-demo", "--grid", "32x64", "--dim", "1024", "--layers", "16"]))
    assert (patches, reached.value.args) == ([MAX_DEMO_PATCHES], (MAX_DEMO_DIM, MAX_DEMO_LAYERS))


def _parse_into_closed_pipe(tmp_path, env: dict[str, str]) -> tuple[bytes, int]:
    """Runs `parse` on a program whose canonical form (about 300 KB) overflows the pipe buffer, and closes the
    reader after 600 bytes, as `| head -c 600` does while the process is still writing; returns (stderr, status)."""
    path = tmp_path / "long.txt"
    path.write_text("".join(f"value_{index:05d} = {index} + 1\n" for index in range(13_000)), encoding="utf-8")
    assert 250_000 < path.stat().st_size < MAX_PROGRAM_BYTES
    argv = [sys.executable, "-m", "solvechart.cli", "parse", str(path)]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(600)) == 600
        proc.stdout.close()
        stderr = proc.stderr.read()
        status = proc.wait(timeout=60)
    return stderr, status


def test_closed_stdout_exits_quietly(tmp_path):
    # The buffered stdout a shell pipeline gives.
    env = {key: value for key, value in src_env().items() if key != "PYTHONUNBUFFERED"}
    assert _parse_into_closed_pipe(tmp_path, env) == (b"", 1)


def test_closed_unbuffered_stdout_exits_quietly(tmp_path):
    """Under PYTHONUNBUFFERED stdout's text layer writes straight to the pipe and would drop the unwritten tail
    of a short write without an error; the command still takes the broken-pipe path."""
    assert _parse_into_closed_pipe(tmp_path, {**src_env(), "PYTHONUNBUFFERED": "1"}) == (b"", 1)


@pytest.mark.parametrize("argv, config, workers", [(["--workers", "17"], None, 17), ([], {"workers": 100_000}, 100_000)])
def test_eval_refuses_more_workers_before_reading_the_dataset(tmp_path, capsys, argv, config, workers):
    if config is not None:
        (tmp_path / "conf.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["--config", str(tmp_path / "conf.json")]
    threads = threading.active_count()
    assert cli("eval", "--dataset", str(tmp_path / "missing.jsonl"), "--mode", "agent-only", *argv) == 1
    assert capsys.readouterr().err == f"solvechart: error: --workers {workers} is more than {MAX_WORKERS}\n"
    assert threading.active_count() == threads


# -- eval command -----------------------------------------------------------

def test_eval_programmatic_fixture(fixtures_dir, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli(
        "eval",
        "--dataset",
        str(fixtures_dir / "dataset.jsonl"),
        "--mode",
        "programmatic",
        "--replay",
        str(fixtures_dir / "llm_cassette.json"),
        "--output",
        str(out_path),
    )
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["accuracy"] == 1.0
    assert len(report["items"]) == 20
    assert "accuracy 20/20 = 1.000" in captured.err
    assert out_path.read_text(encoding="utf-8") == captured.out


def test_eval_agent_only_fixture(fixtures_dir, capsys):
    code = cli(
        "eval",
        "--dataset",
        str(fixtures_dir / "dataset.jsonl"),
        "--mode",
        "agent-only",
    )
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["accuracy"] == pytest.approx(0.6)
    assert "accuracy 12/20 = 0.600" in captured.err


def test_eval_programmatic_requires_llm_source(fixtures_dir, capsys):
    code = cli("eval", "--dataset", str(fixtures_dir / "dataset.jsonl"))
    assert code == 1
    assert "exactly one of --llm or --llm-replay" in capsys.readouterr().err


def test_eval_missing_dataset(tmp_path, capsys):
    code = cli("eval", "--dataset", str(tmp_path / "none.jsonl"), "--mode", "agent-only")
    assert code == 1
    assert "solvechart: error:" in capsys.readouterr().err


def test_eval_empty_dataset_warns(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n", encoding="utf-8")
    code = cli("eval", "--dataset", str(empty), "--mode", "agent-only")
    assert code == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["empty_dataset"] is True
    assert "warning: dataset is empty" in captured.err


def test_eval_item_without_table_fails_per_item(tmp_path, fixtures_dir, capsys):
    dataset = tmp_path / "d.jsonl"
    records = [
        {"id": "x1", "question": "q?", "gold": "1", "chart_id": "c"},
        {"id": "x2", "question": "What is the value of Democrat in 2012?", "gold": "43",
         "chart_id": "election", "table_path": str(fixtures_dir / "tables" / "election.json")},
    ]
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code = cli("eval", "--dataset", str(dataset), "--mode", "agent-only", "--agent", "oracle")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    first, second = report["items"]
    assert first["correct"] is False
    assert first["reason"] == "item 'x1' has no table_path for the oracle agent"
    assert second["correct"] is True
    assert report["accuracy"] == 0.5


def test_eval_item_with_missing_table_fails_per_item(tmp_path, fixtures_dir, capsys):
    missing = tmp_path / "missing.json"
    dataset = tmp_path / "d.jsonl"
    records = [
        {"id": "x1", "question": "What is the value of Democrat in 2012?", "gold": "44",
         "chart_id": "election", "table_path": str(missing)},
        {"id": "x2", "question": "What is the value of Democrat in 2012?", "gold": "44",
         "chart_id": "election", "table_path": str(fixtures_dir / "tables" / "election.json")},
    ]
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code = cli("eval", "--dataset", str(dataset), "--mode", "agent-only")
    assert code == 0
    first, second = json.loads(capsys.readouterr().out)["items"]
    assert first["correct"] is False
    assert str(missing) in first["reason"]
    assert second["correct"] is True


def test_eval_item_with_non_finite_table_fails_per_item(tmp_path, fixtures_dir, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"title": "t", "x_label": "x", "y_label": "y", "series": '
                   '[{"name": "Democrat", "points": [{"category": "2012", "value": NaN}]}]}', encoding="utf-8")
    dataset = tmp_path / "d.jsonl"
    records = [
        {"id": "x1", "question": "What is the value of Democrat in 2012?", "gold": "43",
         "chart_id": "bad", "table_path": str(bad)},
        {"id": "x2", "question": "What is the value of Democrat in 2012?", "gold": "43",
         "chart_id": "election", "table_path": str(fixtures_dir / "tables" / "election.json")},
    ]
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    code = cli("eval", "--dataset", str(dataset), "--mode", "agent-only")
    assert code == 0
    first, second = json.loads(capsys.readouterr().out)["items"]
    assert first["correct"] is False
    assert "non-finite" in first["reason"]
    assert second["correct"] is True


def test_eval_with_live_model_parses_each_table_once(monkeypatch, fixtures_dir, capsys):
    # The oracle's own table gives each prompt its Chart: line; 20 items over 3 tables.
    parses, prompts = [], []
    parse_table = solvechart.agents.table._parse_table
    monkeypatch.setattr("solvechart.agents.table._parse_table",
                        lambda payload: parses.append(1) or parse_table(payload))
    replies = {entry["question"]: entry["answer"]
               for entry in json.loads((fixtures_dir / "llm_cassette.json").read_text(encoding="utf-8"))}

    def respond(path, body):
        prompt = body["messages"][-1]["content"]
        prompts.append(prompt)
        return {"choices": [{"message": {"content": replies[prompt.split("\n")[0].removeprefix("Question: ")]}}]}

    with json_server(respond) as (_, url):
        code = cli("eval", "--dataset", str(fixtures_dir / "dataset.jsonl"), "--agent", "oracle", "--llm", url)
    assert code == 0
    assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0
    assert len(parses) == 3
    assert len(prompts) == 20
    assert all("\nChart: " in prompt for prompt in prompts)


# -- errors through main() --------------------------------------------------

def run_main(monkeypatch, capsys, *argv: str) -> tuple[int, str, str]:
    monkeypatch.setattr("sys.argv", ["solvechart", *argv])
    with pytest.raises(SystemExit) as excinfo:
        main()
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--program", "{program}", "--agent", "replay:{missing}"],
        ["run", "--program", "{program}", "--table", "{missing}"],
        ["eval", "--dataset", "{dataset}", "--llm-replay", "{missing}"],
        ["solve", "--question", "q", "--table", "{table}", "--llm-replay", "{missing}"],
        ["eval", "--dataset", "{missing}", "--mode", "agent-only"],
    ],
)
def test_missing_input_file_exits_1_naming_it(monkeypatch, capsys, tmp_path, fixtures_dir, program_file, argv):
    missing = str(tmp_path / "missing.json")
    paths = {"missing": missing, "program": program_file, "dataset": fixtures_dir / "dataset.jsonl",
             "table": fixtures_dir / "tables" / "election.json"}
    code, out, err = run_main(monkeypatch, capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("solvechart: error: ")
    assert missing in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "eval"])
def test_output_under_missing_directory_exits_1_naming_target(
    monkeypatch, capsys, tmp_path, fixtures_dir, program_file, election_json, command
):
    target = str(tmp_path / "no-such-dir" / "out.json")
    if command == "run":
        argv = ["run", "--program", program_file, "--table", election_json, "--trace", target]
    else:
        argv = ["eval", "--dataset", str(fixtures_dir / "dataset.jsonl"), "--mode", "agent-only",
                "--output", target]
    code, out, err = run_main(monkeypatch, capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"solvechart: error: cannot write {target}: ")
    assert ".tmp" not in err


OUTPUT_FLAGS = [
    (["run", "--program", "{program}", "--table", "{table}"], "--record"),
    (["run", "--program", "{program}", "--table", "{table}"], "--trace"),
    (["solve", "--question", "q", "--table", "{table}", "--llm", "http://127.0.0.1:9"], "--llm-record"),
    (["solve", "--question", "q", "--table", "{table}", "--mode", "agent-only"], "--trace"),
    (["eval", "--dataset", "{dataset}", "--mode", "agent-only"], "--output"),
    (["eval", "--dataset", "{dataset}", "--llm-replay", "{cassette}"], "--trace-dir"),
]


@pytest.mark.parametrize("argv, flag", OUTPUT_FLAGS, ids=[argv[0] + flag for argv, flag in OUTPUT_FLAGS])
@pytest.mark.parametrize("source", ["argv", "config"])
def test_dash_as_output_path_is_refused(monkeypatch, capsys, tmp_path, fixtures_dir, program_file, argv, flag, source):
    # '-' would name a file in the working directory, and a cassette of that name would be read from stdin.
    monkeypatch.chdir(tmp_path)
    paths = {"program": program_file, "table": fixtures_dir / "tables" / "election.json",
             "dataset": fixtures_dir / "dataset.jsonl", "cassette": fixtures_dir / "llm_cassette.json"}
    argv = [arg.format(**paths) for arg in argv]
    if source == "argv":
        code, out, err = run_main(monkeypatch, capsys, *argv, flag, "-")
        assert code == 2
        assert f"argument {flag}: '-' is not an output path" in err
    else:
        key = flag[2:].replace("-", "_")
        (tmp_path / "conf.json").write_text(json.dumps({key: "-"}), encoding="utf-8")
        code, out, err = run_main(monkeypatch, capsys, *argv, "--config", "conf.json")
        assert code == 1
        assert err == f"solvechart: error: config {key!r}: '-' is not an output path; name a file\n"
    assert out == ""
    assert not (tmp_path / "-").exists()


AGENT_ONLY_REFUSALS = [
    (["solve", "--question", "Who won?", "--table", "{table}"], "--trace"),
    (["solve", "--question", "Who won?", "--table", "{table}"], "--llm-record"),
    (["solve", "--question", "Who won?", "--table", "{table}"], "--llm"),
    (["solve", "--question", "Who won?", "--table", "{table}"], "--llm-replay"),
    (["solve", "--question", "Who won?", "--table", "{table}"], "--show-program"),
    (["eval", "--dataset", "{dataset}"], "--trace-dir"),
    (["eval", "--dataset", "{dataset}"], "--llm"),
    (["eval", "--dataset", "{dataset}"], "--llm-replay"),
]


@pytest.mark.parametrize("argv, flag", AGENT_ONLY_REFUSALS, ids=[argv[0] + flag for argv, flag in AGENT_ONLY_REFUSALS])
def test_agent_only_refuses_program_outputs(monkeypatch, capsys, tmp_path, fixtures_dir, argv, flag):
    # An agent-only run executes no program, so it would never read these model inputs or write these outputs.
    monkeypatch.chdir(tmp_path)
    paths = {"table": fixtures_dir / "tables" / "election.json", "dataset": fixtures_dir / "dataset.jsonl"}
    argv = [arg.format(**paths) for arg in argv] + ["--mode", "agent-only"]
    value = [] if flag == "--show-program" else ["out"]  # "out" names no file, and none may be made
    config = {flag[2:].replace("-", "_"): value[0] if value else True}
    (tmp_path / "conf.json").write_text(json.dumps(config), encoding="utf-8")
    for given in ([flag, *value], ["--config", "conf.json"]):
        code, out, err = run_main(monkeypatch, capsys, *argv, *given)
        assert code == 1
        assert out == ""
        assert err == f"solvechart: error: {flag} does not apply to --mode agent-only, which runs no program\n"
        assert not (tmp_path / "out").exists()


def test_run_fallback_without_question_is_refused_before_the_program_is_read(
    monkeypatch, capsys, tmp_path, election_json
):
    missing = str(tmp_path / "no-such-program.txt")
    (tmp_path / "conf.json").write_text(json.dumps({"fallback": True}), encoding="utf-8")
    for given in (["--fallback"], ["--config", str(tmp_path / "conf.json")]):
        code, out, err = run_main(monkeypatch, capsys, "run", "--program", missing, "--table", election_json, *given)
        assert code == 1
        assert out == ""
        assert err == "solvechart: error: --fallback requires --question\n"


def test_eval_trace_dir_naming_a_file_exits_1(monkeypatch, capsys, tmp_path, fixtures_dir):
    target = tmp_path / "traces"
    target.write_text("", encoding="utf-8")
    code, out, err = run_main(
        monkeypatch, capsys, "eval", "--dataset", str(fixtures_dir / "dataset.jsonl"),
        "--llm-replay", str(fixtures_dir / "llm_cassette.json"), "--trace-dir", str(target),
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"solvechart: error: cannot write {target}: ")


def test_solve_blank_question_agent_only_exits_1(monkeypatch, capsys, election_json):
    code, out, err = run_main(
        monkeypatch, capsys, "solve", "--question", " ", "--mode", "agent-only", "--table", election_json
    )
    assert code == 1
    assert out == ""
    assert err.startswith("solvechart: error: unanswerable: ")


def test_solve_blank_question_with_live_model_exits_1(monkeypatch, capsys, election_json):
    # Nothing listens on port 9, and a blank question is refused before any request.
    code, out, err = run_main(
        monkeypatch, capsys, "solve", "--question", " ", "--table", election_json, "--llm", "http://127.0.0.1:9"
    )
    assert code == 1
    assert out == ""
    assert err == "solvechart: error: unanswerable: question must be non-empty\n"


def test_record_cassette_under_missing_directory_exits_1(monkeypatch, capsys, tmp_path, program_file, election_json):
    target = str(tmp_path / "no-such-dir" / "c.json")
    code, out, err = run_main(
        monkeypatch, capsys, "run", "--program", program_file, "--table", election_json, "--record", target
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"solvechart: error: cannot write {target}: ")


def test_llm_record_under_missing_directory_exits_1(monkeypatch, capsys, tmp_path, election_json):
    reply = f"```\n{ELECTION_PROGRAM}```\n"
    target = str(tmp_path / "no-such-dir" / "c.json")
    with json_server(lambda path, body: {"choices": [{"message": {"content": reply}}]}) as (_, url):
        code, out, err = run_main(
            monkeypatch, capsys, "solve", "--question", "Who won 2012?", "--table", election_json,
            "--llm", url, "--llm-record", target,
        )
    assert code == 1
    assert out == ""
    assert err.startswith(f"solvechart: error: cannot write {target}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--program", "{program}", "--table", "{bad}"],
        ["run", "--program", "{program}", "--agent", "replay:{bad}"],
        ["eval", "--dataset", "{bad}", "--mode", "agent-only"],
        ["parse", "{bad}"],
        ["parse", "{program}", "--config", "{bad}"],
    ],
    ids=["table", "cassette", "dataset", "program", "config"],
)
def test_non_utf8_input_exits_1_naming_it(monkeypatch, capsys, tmp_path, program_file, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}\n")
    code, out, err = run_main(monkeypatch, capsys, *(arg.format(bad=bad, program=program_file) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("solvechart: error: ")
    assert str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--program", "{program}", "--table", "{bad}"],
        ["run", "--program", "{program}", "--agent", "replay:{bad}"],
        ["eval", "--dataset", "{bad}", "--mode", "agent-only"],
        ["eval", "--dataset", "{dataset}", "--llm-replay", "{bad}"],
    ],
    ids=["table", "cassette", "dataset", "llm-replay"],
)
def test_integer_past_the_digit_limit_exits_1(monkeypatch, capsys, tmp_path, fixtures_dir, program_file, argv):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an integer over 4,300 digits.
    bad = tmp_path / "big.json"
    bad.write_text('{"id": ' + "9" * 5000 + "}\n", encoding="utf-8")
    paths = {"bad": bad, "program": program_file, "dataset": fixtures_dir / "dataset.jsonl"}
    code, out, err = run_main(monkeypatch, capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("solvechart: error: ")
    assert "invalid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--program", "{program}", "--table", "{bad}"],
        ["run", "--program", "{program}", "--agent", "replay:{bad}"],
        ["eval", "--dataset", "{bad}", "--mode", "agent-only"],
        ["eval", "--dataset", "{dataset}", "--llm-replay", "{bad}"],
        ["parse", "{program}", "--config", "{bad}"],
    ],
    ids=["table", "cassette", "dataset", "llm-replay", "config"],
)
def test_deeply_nested_json_exits_1(monkeypatch, capsys, tmp_path, fixtures_dir, program_file, argv):
    # json.loads raises RecursionError, not a ValueError, when the nesting is too deep.
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "\n", encoding="utf-8")
    paths = {"bad": bad, "program": program_file, "dataset": fixtures_dir / "dataset.jsonl"}
    code, out, err = run_main(monkeypatch, capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("solvechart: error: ")
    assert "JSON" in err
    assert "Traceback" not in err


# -- dispatch ---------------------------------------------------------------

def test_run_command_reports_domain_errors(capsys):
    assert run_command(parse_args(["parse", "/definitely/not/here.txt"])) == 1
    err = capsys.readouterr().err
    assert err.startswith("solvechart: error: ")


def test_main_exits_zero(monkeypatch, tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("answer = 1\n", encoding="utf-8")
    monkeypatch.setattr("sys.argv", ["solvechart", "parse", str(path)])
    with pytest.raises(SystemExit) as excinfo:
        main()
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == "answer = 1\n"
