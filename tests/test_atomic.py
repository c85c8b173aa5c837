from __future__ import annotations

import os

import pytest

from solvechart.errors import SolveChartError
from solvechart.files import check_output_path, make_dir, overwrite_tail, write_text_atomic


def test_write_text_atomic_replaces_target_and_leaves_no_temp(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old\n", encoding="utf-8")
    write_text_atomic(target, "new\n")
    assert target.read_text(encoding="utf-8") == "new\n"
    write_text_atomic(str(tmp_path / "fresh.json"), "{}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "report.json"]


def test_write_text_atomic_failure_keeps_target_and_removes_temp(tmp_path):
    target = tmp_path / "trace.json"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(TypeError):
        write_text_atomic(target, None)  # type: ignore[arg-type]
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]


def test_write_text_atomic_into_missing_directory_names_target_and_leaves_no_temp(tmp_path):
    target = tmp_path / "no-such-dir" / "report.json"
    with pytest.raises(SolveChartError) as err:
        write_text_atomic(target, "{}\n")
    assert str(err.value).startswith(f"cannot write {target}: ")
    assert isinstance(err.value.__cause__, FileNotFoundError)
    assert list(tmp_path.iterdir()) == []


def test_overwrite_tail_of_missing_file_names_target(tmp_path):
    target = tmp_path / "c.json"
    with pytest.raises(SolveChartError) as err:
        overwrite_tail(target, 3, b"x")
    assert str(err.value).startswith(f"cannot write {target}: ")


def test_overwrite_tail_writes_the_rest_after_a_short_write(monkeypatch, tmp_path):
    target = tmp_path / "c.json"
    target.write_bytes(b"[\n  1\n]\n")
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:2])))
    overwrite_tail(target, 3, b",\n  2\n]\n")
    assert target.read_bytes() == b"[\n  1,\n  2\n]\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_overwrite_tail_past_the_start_of_the_file_fails_and_closes_it(tmp_path):
    target = tmp_path / "c.json"
    target.write_bytes(b"]\n")
    open_before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(SolveChartError) as err:
        overwrite_tail(target, 3, b"x")
    assert str(err.value).startswith(f"cannot write {target}: ")
    assert len(os.listdir("/proc/self/fd")) == open_before
    assert target.read_bytes() == b"]\n"


def test_make_dir_makes_parents_accepts_an_existing_directory_and_refuses_a_file(tmp_path):
    make_dir(tmp_path / "a" / "b")
    make_dir(str(tmp_path / "a" / "b"))
    assert (tmp_path / "a" / "b").is_dir()
    (tmp_path / "f").write_text("", encoding="utf-8")
    with pytest.raises(SolveChartError) as err:
        make_dir(tmp_path / "f" / "sub")
    assert str(err.value).startswith(f"cannot write {tmp_path / 'f' / 'sub'}: ")


def test_check_output_path_refuses_a_directory_or_a_missing_parent_and_makes_nothing(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    check_output_path(tmp_path / "r.json")
    check_output_path("r.json")  # a bare name is written in the working directory
    (tmp_path / "f").write_text("", encoding="utf-8")
    check_output_path(tmp_path / "f")  # an existing file is replaced
    for target, cause in [
        (tmp_path / "missing" / "r.json", FileNotFoundError),
        (tmp_path / "f" / "r.json", NotADirectoryError),
        (tmp_path / "f" / "sub" / "r.json", NotADirectoryError),
        (tmp_path, IsADirectoryError),
        ("", IsADirectoryError),  # Path("") is the working directory
    ]:
        with pytest.raises(SolveChartError) as err:
            check_output_path(target)
        assert str(err.value).startswith(f"cannot write {target}: ")
        assert isinstance(err.value.__cause__, cause)
    assert [p.name for p in tmp_path.iterdir()] == ["f"]
