"""Replayed `eval` runs on the fixture dataset, pinned as golden bytes.

The programmatic run replays the recorded model replies and writes one trace
per item; the agent-only run asks the oracle directly.  Each run's stdout (the
report), stderr and trace files must equal the files under
tests/fixtures/golden/<mode>/ byte for byte.  After a deliberate change to any
of them, rewrite the golden files and review their diff:

    PYTHONPATH=src python tests/test_golden_replay.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURES, src_env

GOLDEN = FIXTURES / "golden"

# Trace paths in the report are relative to the working directory, so the bytes do not depend on it.
RUNS = {
    "programmatic": ["--replay", str(FIXTURES / "llm_cassette.json"), "--trace-dir", "traces"],
    "agent-only": ["--mode", "agent-only"],
}


def replay(mode: str, workdir: Path, *extra: str) -> dict[str, bytes]:
    """Runs one eval in workdir; its outputs keyed by their path under the mode's golden directory."""
    argv = [sys.executable, "-m", "solvechart.cli", "eval", "--dataset", str(FIXTURES / "dataset.jsonl"), *RUNS[mode],
            *extra]
    done = subprocess.run(argv, cwd=workdir, env=src_env(), capture_output=True, timeout=120, check=True)
    traces = {f"traces/{path.name}": path.read_bytes() for path in sorted(workdir.glob("traces/*"))}
    return {"stdout": done.stdout, "stderr": done.stderr, **traces}


def golden(mode: str) -> dict[str, bytes]:
    root = GOLDEN / mode
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("mode", RUNS)
def test_replayed_eval_matches_golden_bytes(mode, tmp_path):
    outputs, expected = replay(mode, tmp_path), golden(mode)
    assert sorted(outputs) == sorted(expected)
    for name, data in outputs.items():
        assert data == expected[name], name


@pytest.mark.parametrize("mode", RUNS)
def test_four_workers_replay_the_same_bytes(mode, tmp_path):
    outputs, expected = replay(mode, tmp_path, "--workers", "4"), golden(mode)
    assert expected["stdout"].count(b'"workers": 1') == 1
    expected["stdout"] = expected["stdout"].replace(b'"workers": 1', b'"workers": 4')  # the report's config says so
    assert outputs == expected


def test_golden_programmatic_run_keeps_every_trace():
    assert len([name for name in golden("programmatic") if name.startswith("traces/")]) == 20


if __name__ == "__main__":
    for mode in RUNS:
        with tempfile.TemporaryDirectory() as workdir:
            outputs = replay(mode, Path(workdir))
        shutil.rmtree(GOLDEN / mode, ignore_errors=True)
        for name, data in outputs.items():
            (GOLDEN / mode / name).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN / mode / name).write_bytes(data)
