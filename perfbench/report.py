"""Summarize one result file, or compare two.

    python3 perfbench/report.py RESULTS.jsonl
    python3 perfbench/report.py BASE.jsonl CHANGE.jsonl

A result file holds the JSONL records `run.py --out` appends.  For each
workload and end-to-end metric of BENCHMARK.json this prints the median and
quartiles over the file's untraced runs, and the spread (interquartile
distance over the median) against the metric's bound.  Given two files it
prints both sides and flags every metric whose CHANGE median is worse than
the BASE median by more than the bound; the exit status is 1 when any metric
is flagged or any run was incorrect.  Per-layer metrics of traced runs are
listed as medians, without bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace)."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            groups[record["workload"], record["trace"]].append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(records: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in records if name in r["result"]["metrics"]]


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse `change` is than `base`, as a share of `base` (negative is better)."""
    if base == 0:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def health(records: list[dict]) -> str:
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    incorrect = sum(1 for r in records if not r["result"]["correct"])
    return f"{len(records)} runs, {attempted} ops, failed_ratio {failed / max(attempted, 1):.4g}, incorrect runs {incorrect}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", type=Path, nargs="+", help="one file to summarize, or BASE and CHANGE")
    args = parser.parse_args()
    if len(args.files) > 2:
        parser.error("give one or two result files")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = [load(path) for path in args.files]
    flagged = False
    machines = {json.dumps(r["machine"], sort_keys=True) for side in sides for rs in side.values() for r in rs}
    for host in sorted(machines):
        print(f"machine: {host}")
    for workload in [w["name"] for w in declared["workloads"]]:
        runs = [side.get((workload, 0), []) for side in sides]
        traced = [side.get((workload, 1), []) for side in sides]
        if not any(runs) and not any(traced):
            continue
        print(f"\n{workload}")
        for label, records in zip(("base", "change"), runs if any(runs) else []):
            print(f"  {label if len(sides) == 2 else 'runs'}: {health(records)}")
        for records in runs + traced:
            flagged |= any(not r["result"]["correct"] for r in records)
        for metric in declared["end_to_end"] if any(runs) else []:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            cells = []
            stats = [quartiles(values_of(records, name)) if records else None for records in runs]
            for q in stats:
                if q is None:
                    cells.append(f"{'-':>34s}")
                else:
                    spread = (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                    cells.append(f"{q[1]:12.5g} [{q[0]:.5g}, {q[2]:.5g}] ±{spread:5.1%}")
            note = ""
            if len(sides) == 2 and None not in stats:
                change = worse_by(stats[0][1], stats[1][1], metric["better"])
                note = f"{-change:+7.1%}"
                if change > bound:
                    note += f"  WORSE beyond bound {bound:.0%}"
                    flagged = True
            print(f"  {name:16s} {unit:6s} " + "  ".join(cells) + f"  bound {bound:.0%} {note}")
        if any(traced):
            print(f"  per-layer medians over {', '.join(str(len(r)) for r in traced)} traced runs:")
            for metric in declared["per_layer"]:
                medians = [statistics.median(v) if (v := values_of(records, metric["name"])) else None
                           for records in traced]
                if all(m in (None, 0) for m in medians):
                    continue
                text = "  ".join("-" if m is None else f"{m:12.5g}" for m in medians)
                print(f"    {metric['name']:36s} {metric['unit']:6s} {text}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
