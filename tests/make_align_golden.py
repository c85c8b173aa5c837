"""Records summaries of `align-demo` output, one JSON file per case.

    PYTHONPATH=<checkout>/src python tests/make_align_golden.py tests/fixtures/golden/align

writes <case>.json for every case below, as seen by the `solvechart` on
PYTHONPATH.  tests/test_align_golden.py runs the same command lines against
the current code, so record them from a known-good checkout, not from the
change under test.

A summary pins exactly the printed config, the cluster labels and the
invariant report.  For each array it pins the printed shape exactly, and
to within test_align_golden's tolerance the printed sum and sum of absolute
values, and the row sums and the entries at a few seeded indices of the
bundle the command computes: raw bytes would tie the file to one numpy and
BLAS build.  Floats are stored to 12 significant digits, far inside that
tolerance, to keep the files small.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np

from solvechart.cli import DEMO_ARRAYS as ARRAYS, _align_demo, parse_args, run_command

# align-demo's default dimension (16) and seed 3, at three sizes; the three
# ablations at 8x8; a single patch, which needs a top-k of 1; and a grid of
# one dimension, where every cosine distance is exactly 0 or 2 and the
# threshold is below all of them, so only the k-max cap stops merging and the
# tie-break among equally close pairs decides which patches merge.
CASES = {
    "4x4": ["--grid", "4x4", "--seed", "3"],
    "8x8": ["--grid", "8x8", "--seed", "3"],
    "24x24": ["--grid", "24x24", "--seed", "3"],
    "8x8-disable-vp-alignment": ["--grid", "8x8", "--seed", "3", "--disable-vp-alignment"],
    "8x8-disable-intra": ["--grid", "8x8", "--seed", "3", "--disable-intra"],
    "8x8-disable-cross": ["--grid", "8x8", "--seed", "3", "--disable-cross"],
    "1x1": ["--grid", "1x1", "--seed", "3", "--top-k", "1"],
    "4x4-dim1-ties": ["--grid", "4x4", "--dim", "1", "--seed", "3", "--linkage-threshold", "-1", "--k-max", "12"],
}
SAMPLES = 8  # entries pinned per array


def run_case(argv: list[str]) -> dict:
    """The document `solvechart align-demo ARGV` prints; the text must be json.dumps' indent-2, sorted-key form."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(parse_args(["align-demo", *argv])) == 0
    document = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(document, indent=2, sort_keys=True) + "\n"
    return document


def bundle_arrays(argv: list[str]) -> dict[str, np.ndarray]:
    """The arrays `solvechart align-demo ARGV` summarizes, by name."""
    _, bundle, _ = _align_demo(parse_args(["align-demo", *argv]))
    return {name: getattr(bundle, name) for name in ARRAYS}


def measures(array: np.ndarray, indices: list[list[int]]) -> dict:
    """The float summaries of one array that align-demo does not print; a vector counts as one row."""
    rows = array.reshape(1, -1) if array.ndim == 1 else array
    return {
        "row_sums": rows.sum(axis=1).tolist(),
        "entries": [float(array[tuple(index)]) for index in indices],
    }


def _short(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_short(item) for item in value]
    return value


def record(name: str) -> dict:
    document = run_case(CASES[name])
    arrays = {}
    for array_name, array in bundle_arrays(CASES[name]).items():
        printed = document["arrays"][array_name]
        rng = random.Random(f"{name}/{array_name}")
        indices = [[rng.randrange(size) for size in printed["shape"]] for _ in range(SAMPLES)]
        summary = {"sum": printed["sum"], "abs_sum": printed["abs_sum"], **measures(array, indices)}
        summary = {key: _short(value) for key, value in summary.items()}
        arrays[array_name] = {"shape": printed["shape"], "indices": indices, **summary}
    return {
        "argv": CASES[name],
        "config": document["config"],
        "clusters": document["clusters"],
        "invariants": document["invariants"],
        "arrays": arrays,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: make_align_golden.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        text = json.dumps(record(name), sort_keys=True, separators=(",", ":"))
        (out / f"{name}.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
