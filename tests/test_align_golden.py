"""`align-demo` prints what tests/fixtures/golden/align records.

The files were written by tests/make_align_golden.py.  The printed config,
the cluster labels, the invariant report and every array's shape must match
exactly; every float summary must match to within RTOL and ATOL, which
hold across numpy builds and BLAS thread counts, where float sums may
differ in their last bits.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from make_align_golden import ARRAYS, CASES, measures, run_case

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
    assert document["config"] == want["config"]
    assert document["bundle"]["clusters"] == want["clusters"]
    assert document["invariants"] == want["invariants"]
    assert sorted(document["bundle"]) == sorted(["clusters", *ARRAYS])
    for array_name in ARRAYS:
        pinned = want["arrays"][array_name]
        array = np.array(document["bundle"][array_name], dtype=np.float64)
        assert list(array.shape) == pinned["shape"], array_name
        for key, value in measures(array, pinned["indices"]).items():
            np.testing.assert_allclose(value, pinned[key], rtol=RTOL, atol=ATOL, err_msg=f"{array_name} {key}")
