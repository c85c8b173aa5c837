"""Every failure kind prints the same way whichever layer raises it."""

from __future__ import annotations

import pytest

from solvechart.errors import ErrorKind, SolveChartError


@pytest.mark.parametrize("kind", list(ErrorKind))
def test_kind_round_trips(kind: ErrorKind):
    err = SolveChartError("it broke", kind)
    assert str(err) == f"{kind.value}: it broke"
    assert err.kind is kind
    assert err.reason == "it broke"


def test_unkinded_error_prints_bare_message():
    err = SolveChartError("it broke")
    assert str(err) == "it broke"
    assert err.kind is None
    assert err.reason == "it broke"
