"""`align-demo` prints what tests/fixtures/golden/align records.

The files were written by tests/make_align_golden.py.  The printed config,
the cluster labels, the invariant report and every array's shape must match
exactly; every float summary must match to within RTOL and ATOL, which
hold across numpy builds and BLAS thread counts, where float sums may
differ in their last bits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from make_align_golden import ARRAYS, CASES, measures, run_case
from solvechart.cli import _indented_json

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


def test_a_32x32_demo_prints_indented_json():
    """The largest grid the tests run: 1,024 patches, three 1,024 x 1,024 arrays."""
    document = run_case(["--grid", "32x32", "--seed", "3"])
    assert len(document["bundle"]["alignment"]) == 1024


_plain = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4), st.just(math.inf), st.just(-0.0)
)
# float64 entries include NaN, the infinities and -0.0; a side of 0 gives a zero-size array.
_arrays = hnp.arrays(st.sampled_from([np.float64, np.int64]), hnp.array_shapes(min_dims=1, max_dims=2, min_side=0))


def _as_lists(value):
    """value with each numpy array in it replaced by its tolist()."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value


@settings(max_examples=500, deadline=None)
@given(st.recursive(st.one_of(_plain, _arrays), lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner), st.dictionaries(st.text(max_size=4), inner, max_size=4),
), max_leaves=20))
def test_indented_json_is_json_dumps_byte_for_byte(value):
    """Empty and mixed lists, tuples, nested dicts, non-ASCII keys, non-finite floats and numpy arrays included."""
    assert "".join(_indented_json(value)) == json.dumps(_as_lists(value), indent=2, sort_keys=True)
