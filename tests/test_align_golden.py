"""`align-demo` prints what tests/fixtures/golden/align records.

The files were written by tests/make_align_golden.py.  The printed config,
the cluster labels, the invariant report and every array's shape must match
exactly; every float summary, printed or taken from the bundle the command
computes, must match to within RTOL and ATOL, which hold across numpy builds
and BLAS thread counts, where float sums may differ in their last bits.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from make_align_golden import ARRAYS, CASES, bundle_arrays, measures, run_case

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "align"
RTOL = 1e-9
ATOL = 1e-9


def test_every_case_has_a_small_golden_file():
    assert sorted(path.stem for path in GOLDEN.glob("*.json")) == sorted(CASES)
    assert sum(path.stat().st_size for path in GOLDEN.glob("*.json")) < 100_000


@pytest.mark.parametrize("name", sorted(CASES))
def test_align_demo_matches_its_golden_summary(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert want["argv"] == CASES[name]
    document = run_case(CASES[name])
    assert sorted(document) == ["arrays", "clusters", "config", "invariants"]
    assert document["config"] == want["config"]
    assert document["clusters"] == want["clusters"]
    assert document["invariants"] == want["invariants"]
    assert sorted(document["arrays"]) == sorted(ARRAYS)
    arrays = bundle_arrays(CASES[name])
    for array_name in ARRAYS:
        pinned = want["arrays"][array_name]
        printed = document["arrays"][array_name]
        assert sorted(printed) == ["abs_sum", "shape", "sum"], array_name
        assert printed["shape"] == list(arrays[array_name].shape) == pinned["shape"], array_name
        got = {"sum": printed["sum"], "abs_sum": printed["abs_sum"], **measures(arrays[array_name], pinned["indices"])}
        for key, value in got.items():
            np.testing.assert_allclose(value, pinned[key], rtol=RTOL, atol=ATOL, err_msg=f"{array_name} {key}")


def test_the_largest_grid_prints_its_summary():
    """2,025 patches, of the 2,048 that align-demo takes: three 2,025 x 2,025 arrays."""
    document = run_case(["--grid", "45x45", "--seed", "3"])
    assert document["arrays"]["alignment"]["shape"] == [2025, 2025]
    assert document["arrays"]["annotated"]["shape"] == [2025, 2025]
    assert len(document["clusters"]) == 2025
    assert all(document["invariants"].values())
