"""solvechart benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from a source checkout (it needs `src/solvechart` beside this directory).
It generates the workload's inputs from the seed into a scratch directory
inside the checkout, measures set-up in SETUP_SAMPLES fresh processes, runs
the workload for S seconds in one more process, checks every output against
the benchmark's own reference outside the timed region, and prints as its
last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0), their timings
paced to the nominal speed of pace.py, or its per-layer metrics (--trace 1).
--out appends the same result, with the machine it ran on, the sample
counts and the end-to-end metrics as measured, to a JSONL file that
report.py reads.
"""

from __future__ import annotations

import os

# Pin BLAS before anything loads numpy, here and in every child process:
# unpinned, OpenBLAS threads fight over the cores and single runs vary wildly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import pace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
CLIENT_THREADS = {"eval-live": 2}
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(workload: str, inputs: Path, out: Path, extra: list[str], timeout: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--inputs", str(inputs), "--out", str(out), *extra]
    subprocess.run(command, env=_child_env(), check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text(encoding="utf-8"))


class Stub:
    """The loopback model/agent stub process of the eval-live workload."""

    def __init__(self, inputs: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(inputs / "stub_model.json"), str(inputs / "stub_agent.json")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ports = json.loads(self.process.stdout.readline())
        self.model_url = f"http://127.0.0.1:{ports['model']}"
        self.agent_url = f"http://127.0.0.1:{ports['agent']}"

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


# -- correctness ------------------------------------------------------------------


def reference_partition(embeddings, k_max: int, threshold: float) -> list[int]:
    """Average-linkage cosine clustering by scipy, cut as cluster_patches cuts:
    merge while more than k_max clusters remain, then while the next merge
    distance is within the threshold.  Ids ordered by smallest member."""
    from scipy.cluster.hierarchy import linkage

    n = len(embeddings)
    merges = linkage(embeddings, method="average", metric="cosine")
    parent = list(range(2 * n - 1))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for step, (a, b, distance, _size) in enumerate(merges):
        if n - step <= k_max and distance > threshold:
            break
        parent[root(int(a))] = n + step
        parent[root(int(b))] = n + step
    ids: dict[int, int] = {}
    return [ids.setdefault(root(i), len(ids)) for i in range(n)]


def verify(workload: str, inputs: Path, ops: list[dict]) -> list[bool]:
    """One verdict per op, from the benchmark's own reference.  The worker
    has already compared eval predictions with the gold (gen.same_answer)."""
    if workload != "align":
        return [op["ok"] for op in ops]
    sys.path.insert(0, str(SRC))
    from solvechart.align import PipelineConfig, make_grid

    spec = json.loads((inputs / "align.json").read_text(encoding="utf-8"))
    config = PipelineConfig()
    verdicts = []
    for op in ops:
        if "labels" not in op:
            verdicts.append(False)
            continue
        grid = make_grid(spec["rows"], spec["cols"], spec["dim"], seed=spec["grid_seed_base"] + op["i"])
        expected = reference_partition(grid.embeddings, config.k_max, config.linkage_threshold)
        verdicts.append(not op["checks_failed"] and op["labels"] == expected)
    return verdicts


# -- metrics ----------------------------------------------------------------------


def end_to_end(doc: dict, setups: list[dict], accuracy: float, paced: bool = True) -> dict[str, float]:
    phase = doc["phases"][0]
    latencies, wall, user = pace.pace_phase(phase) if paced else ([op["ms"] for op in phase["ops"]], 1.0, 1.0)
    setup_s = [s["setup_s"] * (pace.setup_factor(s["setup_pace_ms"]) if paced else 1.0) for s in setups]
    return {
        "ops_per_s": layers.rate(phase) / wall,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "cpu_ms_per_op": pace.cpu_ms_per_op(phase, user),
        "accuracy": accuracy,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result to this JSONL file")
    args = parser.parse_args()
    if not (SRC / "solvechart" / "__init__.py").is_file():
        print(f"run.py: no solvechart sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    stub = None
    try:
        for relative, data in gen.generate(args.workload, args.seed).items():
            path = inputs / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--threads", str(CLIENT_THREADS.get(args.workload, 1))]
        if args.workload == "eval-live":
            stub = Stub(inputs)
            extra += ["--model-url", stub.model_url, "--agent-url", stub.agent_url]
        setups = [run_worker(args.workload, inputs, inputs / "setup.json", ["--setup-only"], CHILD_TIMEOUT_S)
                  for _ in range(SETUP_SAMPLES)]
        doc = run_worker(args.workload, inputs, inputs / "worker.json", extra, args.seconds + CHILD_TIMEOUT_S)
        if stub is not None:
            stub.close()
            stub = None
        ops = [op for phase in doc["phases"] for op in phase["ops"]]
        verdicts = verify(args.workload, inputs, ops)
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(1 for op in ops if op.get("err") is not None and "labels" not in op)
    accuracy = sum(verdicts) / len(verdicts)
    values = layers.layer_metrics(doc) if args.trace else end_to_end(doc, setups, accuracy)
    if set(values) != set(units):
        raise SystemExit(f"run.py: computed metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": all(verdicts),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    host = machine()
    samples = {"ops": len(ops), "setup": len(setups), "failed_ratio": failed / len(ops),
               "wrong": len(verdicts) - sum(verdicts)}
    if not args.trace:
        samples["as_measured"] = end_to_end(doc, setups, accuracy, paced=False)
    record = doc["phases"][-1]["record_cassette"]
    if record is not None:
        samples["record_cassette"] = record
    print(f"machine: {json.dumps(host, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {json.dumps(samples)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "machine": host, "samples": samples, "result": result}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
