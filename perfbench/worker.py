"""Runs one benchmark workload against solvechart and records raw measurements.

Started by run.py as its own process, so peak memory and CPU time belong to
the workload alone.  The process imports nothing from solvechart until set-up
starts, so set-up time includes the imports.  It writes one JSON document:
set-up timings, every op's latency and verdict (eval: checked against the
gold right after the op, outside its timing) or output (align: checked by
run.py) and (eval-live) stub wait, per-phase wall and CPU time, the pace
kernel timings of pace.py (before and after set-up, and between ops), stub
connection counts, peak RSS, and (traced runs) the recorded spans.

Every op calls the public entry points the way the `eval` and `align-demo`
commands do.  A traced eval op records spans, from this file, around the op
and around what solvechart calls back into (agents, cassettes); the layers
run_eval calls internally are then timed one at a time by side calls on the
same item, outside the op.  A traced align op calls the exported stage
functions in pipeline order.  Nothing inside solvechart is instrumented.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import threading
import time
import tracemalloc
import urllib.request
from array import array
from functools import partial
from pathlib import Path

import gen
import pace

ALLOC_SAMPLES = 3  # traced align ops whose stage allocations are measured
WARMUP_SHARE = 0.1  # of a traced run: untimed ops before the untraced and traced halves


# -- tracing -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: (id, parent, op, name, start_ns, end_ns, tags)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def begin_op(self, op: int) -> None:
        self._local.op = op
        self._local.stack = []

    def span(self, name: str, **tags) -> "_Span":
        return _Span(self, name, tags)


class _Span:
    __slots__ = ("tracer", "name", "tags", "id", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str, tags: dict) -> None:
        self.tracer, self.name, self.tags = tracer, name, tags

    def __enter__(self) -> "_Span":
        stack = self.tracer._local.stack
        self.parent = stack[-1] if stack else None
        self.id = next(self.tracer._ids)
        stack.append(self.id)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter_ns()
        local = self.tracer._local
        local.stack.pop()
        if exc_type is not None:
            self.tags["failed"] = True
        self.tracer.spans.append((self.id, self.parent, local.op, self.name, self.t0, t1, self.tags))
        return False


def peak_rss() -> float:
    """Peak resident set of this process image, in MiB.

    VmHWM belongs to the image started by exec; ru_maxrss would also carry
    the parent's peak, which Linux hands on across exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def thread_io() -> tuple[int, int]:
    """(rchar, wchar) of the calling thread; zeros where /proc has no io file."""
    try:
        with open("/proc/thread-self/io", "rb") as handle:
            fields = dict(line.split(b": ") for line in handle.read().splitlines())
    except OSError:
        return 0, 0
    return int(fields[b"rchar"]), int(fields[b"wchar"])


# -- set-up --------------------------------------------------------------------


class Context:
    """Program-side state built in set-up and shared by every op."""


def setup(workload: str, inputs: Path, tracer: Tracer | None) -> Context:
    ctx = Context()
    ctx.passes = itertools.count()
    ctx.agent_requests = threading.local()
    ctx.model_requests = None  # eval-live only
    if workload == "align":
        spec = json.loads((inputs / "align.json").read_text(encoding="utf-8"))
        t0 = time.perf_counter()
        import solvechart.align as align

        ctx.params = align.make_params(spec["dim"], seed=spec["param_seed"])
        ctx.setup_s = time.perf_counter() - t0
        ctx.align, ctx.spec = align, spec
        return ctx
    t0 = time.perf_counter()
    import solvechart.agents as agents
    import solvechart.dsl as dsl
    import solvechart.engine as engine
    import solvechart.evaluation as evaluation
    import solvechart.solgen as solgen

    t1 = time.perf_counter()
    ctx.items = evaluation.load_dataset(inputs / "dataset.jsonl")
    t2 = time.perf_counter()
    ctx.cassette = None
    if workload == "eval-programs":
        ctx.cassette = agents.Cassette.load(inputs / "llm_cassette.json")
    t3 = time.perf_counter()
    ctx.setup_s = t3 - t0
    ctx.load_dataset_ms = (t2 - t1) * 1e3
    ctx.replay_load_ms = (t3 - t2) * 1e3 if ctx.cassette is not None else 0.0
    with open(inputs / "dataset.jsonl", encoding="utf-8") as handle:  # the benchmark's own check data
        ctx.golds = [json.loads(line)["gold"] for line in handle]
    ctx.agents, ctx.dsl, ctx.engine, ctx.evaluation, ctx.solgen = agents, dsl, engine, evaluation, solgen
    # Stub requests per op, each held for the stub's fixed reply delay (see
    # pace.pace_phase): model calls from the generated reply table (two
    # where the first reply is unusable), agent calls counted as they pass.
    if workload == "eval-live":
        from stub import REPLY_DELAY_S

        model_table = json.loads((inputs / "stub_model.json").read_text(encoding="utf-8"))
        ctx.model_requests = [len(model_table[item.question]["replies"]) for item in ctx.items]
        ctx.stub_delay_ms = REPLY_DELAY_S * 1e3
    ctx.traced_cassette = None
    if tracer is not None and ctx.cassette is not None:
        # A second copy whose lookups record spans, loaded after set-up was timed.
        ctx.traced_cassette = _traced_cassette_class(agents.Cassette, tracer).load(inputs / "llm_cassette.json")
    return ctx


# -- one pass: the state one `solvechart eval` invocation builds -------------------


class TracedAgent:
    """AgentHandle wrapper that records each answer as a span."""

    def __init__(self, inner, name: str, tracer: Tracer) -> None:
        self.inner, self.name, self.tracer = inner, name, tracer

    def answer(self, query):
        with self.tracer.span(self.name):
            return self.inner.answer(query)


class CountingAgent:
    """AgentHandle wrapper that counts the answers it forwards, per thread."""

    def __init__(self, inner, counts: threading.local) -> None:
        self.inner, self.counts = inner, counts

    def answer(self, query):
        self.counts.count += 1
        return self.inner.answer(query)


def _traced_cassette_class(cassette_class, tracer: Tracer):
    class TracedCassette(cassette_class):
        def lookup(self, chart_id, question):
            with tracer.span("agents.replay.lookup"):
                return super().lookup(chart_id, question)

        def append(self, chart_id, question, answer):
            _, wchar = thread_io()
            with tracer.span("agents.replay.append") as span:
                super().append(chart_id, question, answer)
            span.tags["wchar"] = thread_io()[1] - wchar

    return TracedCassette


def make_pass(ctx: Context, args, tracer: Tracer | None) -> dict:
    """Agents and config for one pass over the dataset, built the way the eval
    command builds them for one run."""
    agents = ctx.agents
    tables: dict = {}

    def oracle_for(item):
        agent = tables.get(item.table_path)
        if agent is None:
            if tracer is None:
                agent = agents.OracleAgent(agents.load_table(item.table_path))
            else:
                with tracer.span("agents.table.load"):
                    table = agents.load_table(item.table_path)
                with tracer.span("agents.oracle.init"):
                    agent = agents.OracleAgent(table)
            tables[item.table_path] = agent
        return agent

    agent_for, agent_name, record = oracle_for, "agents.oracle", None
    llm = ctx.cassette if tracer is None else ctx.traced_cassette
    if args.workload == "eval-live":
        record_dir = args.inputs / "recordings"
        record_dir.mkdir(exist_ok=True)
        cassette_class = agents.Cassette if tracer is None else _traced_cassette_class(agents.Cassette, tracer)
        live = CountingAgent(agents.HttpAgent(args.agent_url), ctx.agent_requests)
        if tracer is not None:
            live = TracedAgent(live, "agents.http", tracer)
        record = cassette_class.empty(record_dir / f"pass{next(ctx.passes)}.json")
        shared = agents.ReplayAgent(record, live=live)
        agent_for, agent_name = (lambda item: shared), "agents.replay"
        llm = ctx.solgen.LlmConfig(endpoint=args.model_url)
    factory = agent_for
    if tracer is not None:
        def factory(item):
            return TracedAgent(agent_for(item), agent_name, tracer)
    mode = "agent_only" if args.workload == "eval-lookup" else "programmatic"
    config = ctx.evaluation.EvalConfig(mode=mode, agent_factory=factory, llm_client=llm, workers=1)
    return {"config": config, "agent_for": agent_for, "llm": llm, "record": record}


# -- ops -----------------------------------------------------------------------


# An op returns (output, error, side): side is a callable of extra, untimed
# measurements or None.


def eval_op(ctx: Context, state: dict, index: int) -> tuple:
    item = ctx.items[index]
    result = ctx.evaluation.run_eval([item], state["config"]).items[0]
    return result.prediction, result.reason, None


def traced_eval_op(ctx: Context, state: dict, index: int, tracer: Tracer) -> tuple:
    item = ctx.items[index]
    config = state["config"]
    with tracer.span("evaluation.item", mode=config.mode) as span:
        rchar, _ = thread_io()
        result = ctx.evaluation.run_eval([item], config).items[0]
        span.tags["rchar"] = thread_io()[0] - rchar
    side = None if result.prediction is None else partial(_side_calls, ctx, state, item, result.prediction, tracer)
    return result.prediction, result.reason, side


def _side_calls(ctx: Context, state: dict, item, prediction: str, tracer: Tracer) -> None:
    """Times, one public function at a time and outside the op's span, the
    layers run_eval called for this item inside solvechart.

    eval-programs repeats the whole chain: generate_solution, then
    extract_program, parse_program, tokenize and format_program on the same
    reply, then execute against the pass's agent.  eval-live sends the first
    prompt once more through chat_completion (without the chart-hints line)
    and times the same DSL calls on that reply; the model and agent calls
    are not repeated further.
    """
    evaluation, solgen, dsl, engine = ctx.evaluation, ctx.solgen, ctx.dsl, ctx.engine
    with tracer.span("evaluation.match"):
        evaluation.relaxed_match(prediction, item.gold)
    if state["config"].mode != "programmatic":
        return
    program = None
    if isinstance(state["llm"], solgen.LlmConfig):
        try:
            with tracer.span("solgen.client"):
                reply = solgen.chat_completion(state["llm"], solgen.build_prompt(item.question))
        except solgen.LlmError:
            return
    else:
        with tracer.span("solgen.generate"):
            program = solgen.generate_solution(item.question, state["llm"], chart_id=item.chart_id)
        reply = ctx.cassette.lookup(item.chart_id, item.question)
    try:
        with tracer.span("solgen.extract", unfenced="```" not in reply):
            source = solgen.extract_program(reply)
        with tracer.span("dsl.parse"):
            parsed = dsl.parse_program(source)
    except (solgen.ExtractionError, dsl.ParseError):
        return  # an unusable first reply on eval-live, which run_eval retried
    with tracer.span("dsl.tokenize") as span:
        span.tags["tokens"] = len(dsl.tokenize(source))
    with tracer.span("dsl.format"):
        dsl.format_program(parsed)
    if program is None:
        return
    agent = TracedAgent(state["agent_for"](item), "engine.agent", tracer)
    with tracer.span("engine.execute") as span:
        result = engine.execute(
            program, agent, engine.EngineConfig(fallback_to_ask=True, chart_id=item.chart_id, question=item.question)
        )
    span.tags["fallback"] = result.fallback_used


def _align_inputs(ctx: Context, index: int):
    spec, align = ctx.spec, ctx.align
    seed = spec["grid_seed_base"] + index
    return align.make_grid(spec["rows"], spec["cols"], spec["dim"], seed=seed), align.make_query(spec["dim"], seed=seed)


def _align_output(bundle, checks: dict) -> tuple:
    failed = sorted(name for name, ok in checks.items() if not ok)
    return (bundle.clusters.labels, failed), None, None


def align_op(ctx: Context, grid, query) -> tuple:
    align = ctx.align
    bundle = align.run_alignment_pipeline(grid, query, ctx.params)
    return _align_output(bundle, align.check_bundle(grid, bundle))


def traced_align_op(ctx: Context, grid, query, tracer: Tracer) -> tuple:
    align, params = ctx.align, ctx.params
    with tracer.span("align.op"):
        with tracer.span("align.cluster") as span:
            clusters = align.cluster_patches(grid)
        span.tags["merges"] = grid.count - clusters.k
        with tracer.span("align.principles"):
            principles = align.build_principle_matrices(grid)
        with tracer.span("align.weights"):
            weights = align.principle_weights(grid, params.mlp)
        with tracer.span("align.interaction"):
            interactions = align.cluster_interaction(grid, clusters)
        with tracer.span("align.compose"):
            alignment = align.compose_alignment(weights, interactions, principles, clusters)
        with tracer.span("align.intra"):
            refined = align.intra_cluster_reason(grid, clusters, params.attention)
        with tracer.span("align.annotate"):
            annotated = align.cross_cluster_annotate(refined, query, alignment, params)
        with tracer.span("align.fuse"):
            fused = align.fuse(refined, annotated, params.fuse)
        bundle = align.AlignmentBundle(clusters, principles, weights, interactions, alignment, annotated, refined, fused)
        with tracer.span("align.check"):
            checks = align.check_bundle(grid, bundle)
    return _align_output(bundle, checks)


def _peak_alloc(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sample_allocations(ctx: Context, grid, tracer: Tracer) -> None:
    """Peak traced allocation of the two quadratic stages, as side spans."""
    with tracer.span("align.cluster.alloc") as span:
        span.tags["peak_bytes"] = _peak_alloc(lambda: ctx.align.cluster_patches(grid))
    with tracer.span("align.principles.alloc") as span:
        span.tags["peak_bytes"] = _peak_alloc(lambda: ctx.align.build_principle_matrices(grid))


# -- timed phases -------------------------------------------------------------------


def _stub_stats(args) -> dict:
    if args.workload != "eval-live":
        return {}
    stats = {}
    for name, url in (("model", args.model_url), ("agent", args.agent_url)):
        with urllib.request.urlopen(url + "/stats", timeout=10) as response:
            stats[name] = json.loads(response.read())
    return stats


def run_phase(ctx: Context, args, seconds: float, tracer: Tracer | None, first_index: int) -> dict:
    """Closed loop: each client sends its next op when the previous one ends."""
    ops = OpLog()
    lock = threading.Lock()
    cursor = {"index": first_index, "pass": None, "records": []}
    prep = {"wall": 0.0, "cpu": 0.0}  # the benchmark's own input preparation inside the phase

    def prepare(make):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return make()
        finally:
            prep["wall"] += time.perf_counter() - w0
            prep["cpu"] += time.process_time() - c0
    # One client times the pace kernel in wall time, two in thread CPU time
    # (see pace.pace_phase).
    kernel = pace.kernel_for(args.workload)
    clock = time.perf_counter if args.threads == 1 else time.thread_time
    pace_samples: list[tuple[float, float]] = []  # (start from the phase start, ms) of each kernel timing
    start = time.perf_counter()
    deadline = start + seconds

    def next_op():
        with lock:
            if time.perf_counter() >= deadline:
                return None
            index = cursor["index"]
            cursor["index"] += 1
            if args.workload != "align" and (index - first_index) % len(ctx.items) == 0:
                cursor["pass"] = make_pass(ctx, args, tracer)
                if cursor["pass"]["record"] is not None:
                    cursor["records"].append(cursor["pass"]["record"])
            return cursor["pass"], index

    def client() -> None:
        next_pace = start
        while (job := next_op()) is not None:
            state, index = job
            if time.perf_counter() >= next_pace:
                t_pace = time.perf_counter()
                pace_samples.append((t_pace - start, prepare(lambda: pace.time_kernel(kernel, clock))))
                next_pace = t_pace + pace.EVERY_S
            if args.workload == "align":
                position = index  # a fresh grid seed per op
                grid, query = prepare(lambda: _align_inputs(ctx, position))
                call = (lambda: align_op(ctx, grid, query)) if tracer is None else (
                    lambda: traced_align_op(ctx, grid, query, tracer))
            else:
                position = index % len(ctx.items)
                call = (lambda: eval_op(ctx, state, position)) if tracer is None else (
                    lambda: traced_eval_op(ctx, state, position, tracer))
            if tracer is not None:
                tracer.begin_op(index)
            ctx.agent_requests.count = 0
            t0 = time.perf_counter()
            began = t0 - start
            try:
                output, error, side = call()
            except Exception as err:  # one failed op must not stop the run
                output, error, side = None, f"{type(err).__name__}: {err}", None
            ms = (time.perf_counter() - t0) * 1e3
            stub_wait_ms = 0.0
            if ctx.model_requests is not None:
                stub_wait_ms = (ctx.model_requests[position] + ctx.agent_requests.count) * ctx.stub_delay_ms
            if side is not None:
                prepare(side)
            if args.workload != "align":
                output = prepare(lambda: gen.same_answer(output, ctx.golds[position]))
            if tracer is not None and args.workload == "align" and index - first_index < ALLOC_SAMPLES:
                prepare(lambda: _sample_allocations(ctx, grid, tracer))
            with lock:
                ops.append(position, began, ms, stub_wait_ms, output, error)

    stats_before = _stub_stats(args)
    wall0, cpu0, sys0 = time.perf_counter(), time.process_time(), resource.getrusage(resource.RUSAGE_SELF).ru_stime
    workers = [threading.Thread(target=client) for _ in range(args.threads - 1)]
    for worker in workers:
        worker.start()
    client()
    for worker in workers:
        worker.join()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    sys_cpu = resource.getrusage(resource.RUSAGE_SELF).ru_stime - sys0
    # Read before the records are converted below, so the benchmark's own
    # bookkeeping stays out of the peak.
    peak_rss_mb = peak_rss()
    stats_after = _stub_stats(args)
    stub = {
        name: {key: stats_after[name][key] - stats_before[name][key] for key in stats_after[name]}
        for name in stats_after
    }
    for counts in stub.values():
        counts["connections"] -= 1  # the /stats request that read the second count
    # The largest record cassette a pass wrote (eval-live): Cassette.append
    # rewrites the whole file, so its cost grows with this size.
    record = max(cursor["records"], key=len, default=None)
    record_size = None if record is None else {"entries": len(record), "bytes": record.path.stat().st_size}
    return {"traced": tracer is not None, "threads": args.threads, "wall_s": wall, "cpu_s": cpu, "sys_s": sys_cpu, "prep_s": prep["wall"], "prep_cpu_s": prep["cpu"],
            "peak_rss_mb": peak_rss_mb, "record_cassette": record_size,
            "pace": pace_samples, "pace_kernel": kernel,
            "ops": ops.to_json(args.workload), "stub": stub, "next_index": cursor["index"]}


class OpLog:
    """Per-op records in parallel arrays, about 48 bytes an eval op, so the
    benchmark's own memory barely moves peak_rss_mb as the op count grows.

    An eval op's output is its verdict against the gold; an align op's is its
    cluster labels and failed invariant checks, verified later by run.py.
    """

    def __init__(self) -> None:
        self.positions, self.began, self.ms, self.waits = array("q"), array("d"), array("d"), array("d")
        self.outputs: list = []
        self.errors: list = []

    def append(self, position: int, began: float, ms: float, wait_ms: float, output, error: str | None) -> None:
        self.positions.append(position)
        self.began.append(began)
        self.ms.append(ms)
        self.waits.append(wait_ms)
        self.outputs.append(output)
        self.errors.append(error)

    def to_json(self, workload: str) -> list[dict]:
        records = []
        for position, began, ms, wait_ms, output, error in zip(self.positions, self.began, self.ms, self.waits,
                                                                self.outputs, self.errors):
            record = {"i": position, "t": began, "ms": ms, "wait": wait_ms, "err": error}
            if workload != "align":
                record["ok"] = output
            elif output is not None:
                record["labels"], record["checks_failed"] = output[0].tolist(), output[1]
            records.append(record)
        return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--model-url")
    parser.add_argument("--agent-url")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    samples = pace.SETUP_TIMINGS if args.setup_only else 0
    pace_before = [pace.time_kernel(pace.SETUP_KERNEL) for _ in range(samples)]
    ctx = setup(args.workload, args.inputs, tracer)
    pace_after = [pace.time_kernel(pace.SETUP_KERNEL) for _ in range(samples)]
    document = {"setup_s": ctx.setup_s, "setup_pace_ms": pace_before + pace_after,
                "load_dataset_ms": getattr(ctx, "load_dataset_ms", 0.0),
                "replay_load_ms": getattr(ctx, "replay_load_ms", 0.0)}
    if not args.setup_only:
        if args.trace:
            # A short warm-up, so that neither half pays first-use costs, then
            # half untraced and half traced: the ratio of the two rates is the
            # tracing overhead.  Every phase starts a fresh pass.
            half = args.seconds * (1 - WARMUP_SHARE) / 2
            phases = [run_phase(ctx, args, args.seconds * WARMUP_SHARE, None, 0)]
            phases.append(run_phase(ctx, args, half, None, phases[-1]["next_index"]))
            phases.append(run_phase(ctx, args, half, tracer, phases[-1]["next_index"]))
            document["spans"] = tracer.spans
        else:
            phases = [run_phase(ctx, args, args.seconds, None, 0)]
        document["phases"] = phases
    args.out.write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
