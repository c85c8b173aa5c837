"""Run the benchmark over several seeds of every workload, then summarize.

    python3 perfbench/sweep.py --out RESULTS.jsonl [--runs 10] [--trace 0]

Each run is one `run.py` process of BENCHMARK.json's run_seconds, with seeds
1 to --runs, appended to --out; the summary is `report.py --out`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in (w["name"] for w in declared["workloads"]):
        for seed in range(1, args.runs + 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(declared["run_seconds"]), "--trace", str(args.trace), "--out", str(args.out)]
            completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                print(f"{workload} seed {seed}: run failed with status {completed.returncode}", file=sys.stderr)
                return 1
            print(completed.stdout.splitlines()[1], flush=True)
    return subprocess.run([sys.executable, str(HERE / "report.py"), str(args.out)]).returncode


if __name__ == "__main__":
    sys.exit(main())
