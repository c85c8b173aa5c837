"""Every input reader fails the same way at the same boundaries.

Program text (a file or stdin), --config, tables, cassettes and datasets are
all read through solvechart.files.  A missing path, a directory, bytes that
are not UTF-8 and a file one byte over the reader's limit each fail as a
SolveChartError naming the path, and through the CLI exit 1 without a
traceback; a file exactly at the limit is read.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import solvechart
from conftest import ELECTION_PROGRAM, FIXTURES
from solvechart.agents.replay import Cassette
from solvechart.agents.table import load_table
from solvechart.cli import MAX_PROGRAM_BYTES, _load_config, _read_source, main
from solvechart.errors import SolveChartError
from solvechart.evaluation.dataset import load_dataset
from solvechart.files import MAX_FILE_BYTES

ELECTION = FIXTURES / "tables" / "election.json"
_CASSETTE = [
    {"chart_id": "", "question": "what is the value of Republican in 2012", "answer": "50"},
    {"chart_id": "", "question": "what is the value of Democrat in 2012", "answer": "43"},
]
_ITEM = {"id": "a", "question": "What is the value of Republican in 2012?", "gold": "50", "chart_id": "election",
         "table_path": str(ELECTION)}

# name: (API reader, CLI argv, byte limit, a document the reader accepts, padded with spaces to any size)
READERS = {
    "program": (_read_source, ["parse", "{path}"], MAX_PROGRAM_BYTES, b"answer = 1\n"),
    "stdin": (lambda path: _read_source("-"), ["parse", "-"], MAX_PROGRAM_BYTES, b"answer = 1\n"),
    "config": (_load_config, ["parse", "{program}", "--config", "{path}"], MAX_FILE_BYTES, b'{"chart_id": "c"}'),
    "table": (load_table, ["run", "--program", "{program}", "--table", "{path}"], MAX_FILE_BYTES,
              ELECTION.read_bytes()),
    "cassette": (Cassette.load, ["run", "--program", "{program}", "--agent", "replay:{path}"], MAX_FILE_BYTES,
                 json.dumps(_CASSETTE).encode()),
    "dataset": (load_dataset, ["eval", "--dataset", "{path}", "--mode", "agent-only"], MAX_FILE_BYTES,
                json.dumps(_ITEM).encode() + b"\n"),
}
# Python itself refuses to start with a directory on stdin, so that case never reaches the reader.
CASES = [(reader, case) for reader in READERS for case in ("missing", "directory", "non-utf8", "at-limit", "over-limit")
         if (reader, case) != ("stdin", "directory")]


def _input(tmp_path: Path, reader: str, case: str) -> tuple[Path, bytes | None]:
    """Puts the case's input in place; returns its path and its bytes (None if there are none)."""
    _, _, limit, valid = READERS[reader]
    path = tmp_path / "input"
    data = {"non-utf8": b"\xff" + valid, "at-limit": valid.ljust(limit), "over-limit": valid.ljust(limit + 1)}.get(case)
    if case == "directory":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    return path, data


def _feed(monkeypatch, reader: str, data: bytes | None) -> None:
    """Gives the stdin reader the case's bytes, or a closed stdin for a missing input."""
    if reader == "stdin":
        monkeypatch.setattr("sys.stdin", None if data is None else io.TextIOWrapper(io.BytesIO(data)))


def _run_main(monkeypatch, capsys, argv: list[str]) -> tuple[int, str, str]:
    monkeypatch.setattr("sys.argv", ["solvechart", *argv])
    with pytest.raises(SystemExit) as excinfo:
        main()
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


@pytest.mark.parametrize("reader, case", CASES)
def test_reader_boundary(monkeypatch, capsys, tmp_path, reader, case):
    load, argv, limit, _ = READERS[reader]
    program = tmp_path / "program.txt"
    program.write_text(ELECTION_PROGRAM, encoding="utf-8")
    path, data = _input(tmp_path, reader, case)
    named = "cannot read program -: " if reader == "stdin" else str(path)
    _feed(monkeypatch, reader, data)
    if case == "at-limit":
        load(path)
    else:
        with pytest.raises(SolveChartError) as excinfo:
            load(path)
        assert named in str(excinfo.value)
        if case == "over-limit":
            assert str(excinfo.value).endswith(f": more than {limit} bytes")
    _feed(monkeypatch, reader, data)  # the call above read stdin to its end
    code, out, err = _run_main(monkeypatch, capsys, [arg.format(path=path, program=program) for arg in argv])
    if case == "at-limit":
        assert code == 0, err
    else:
        assert code == 1
        assert out == ""
        assert err.startswith("solvechart: error: ")
        assert named in err
        assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("argv", [["parse", "/dev/zero"], ["parse", "{program}", "--config", "/dev/zero"]],
                         ids=["program", "config"])
def test_endless_input_fails_within_a_second(monkeypatch, capsys, tmp_path, argv):
    program = tmp_path / "program.txt"
    program.write_text("answer = 1\n", encoding="utf-8")
    began = time.perf_counter()
    code, out, err = _run_main(monkeypatch, capsys, [arg.format(program=program) for arg in argv])
    assert time.perf_counter() - began < 1.0
    assert code == 1
    assert err.startswith("solvechart: error: cannot read ")
    assert "/dev/zero: more than " in err


@pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C", "PYTHONIOENCODING": ""}],
                         ids=["utf8-strict", "c-locale"])
def test_stdin_and_file_fail_alike_on_bad_bytes(tmp_path, env):
    # Whatever encoding the locale gives sys.stdin, program text is read as strict UTF-8.
    data = b"answer = 1\n\xff\n"
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    src = str(Path(solvechart.__file__).parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    runs = [
        subprocess.run([sys.executable, "-m", "solvechart.cli", "parse", name], input=data, env=env,
                       capture_output=True, timeout=60)
        for name in ("-", str(path))
    ]
    assert [run.returncode for run in runs] == [1, 1]
    assert [run.stdout for run in runs] == [b"", b""]
    from_stdin, from_file = (run.stderr.decode() for run in runs)
    assert from_stdin.startswith("solvechart: error: cannot read program -: 'utf-8' codec can't decode byte 0xff")
    assert from_stdin.replace(" -: ", " <path>: ") == from_file.replace(f" {path}: ", " <path>: ")
