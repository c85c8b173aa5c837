from __future__ import annotations

import pytest

from solvechart.files import write_text_atomic


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
