"""Per-layer metrics derived from a traced run's spans.

A span is (id, parent, op, name, start_ns, end_ns, tags).  A span's self time
is its duration minus the durations of its direct children.  An eval op's
span, `evaluation.item`, has as children only what solvechart calls back
into: agents, cassette lookups and appends, table loads.  The layers
run_eval calls internally are side spans of the same op, recorded outside
its span (see worker._side_calls), as are the align allocation samples.

Counts of stub requests and connections come from the untraced half, where
no side call adds traffic.  A layer that is not measured on a workload
reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import pace

US, MS, MB = 1e3, 1e6, float(1 << 20)

ALIGN_STAGES = ("cluster", "principles", "weights", "interaction", "compose", "intra", "annotate", "fuse", "check")


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def rate(phase: dict) -> float:
    """Ops per second of a phase, with the benchmark's own work removed: each
    client spent its share of `prep_s` outside ops."""
    return _ratio(len(phase["ops"]), phase["wall_s"] - phase["prep_s"] / phase["threads"])


def paced_rate(phase: dict) -> float:
    """`rate` at the nominal speed of pace.py."""
    return rate(phase) / pace.pace_phase(phase)[1]


def layer_metrics(doc: dict) -> dict[str, float]:
    """Every per-layer metric of one traced worker document."""
    untraced, traced = doc["phases"][-2:]
    durations: dict[str, list[int]] = defaultdict(list)
    selves: dict[str, list[int]] = defaultdict(list)
    tags: dict[str, list[dict]] = defaultdict(list)
    child_time: dict[int, int] = defaultdict(int)
    child_count: dict[int, int] = defaultdict(int)
    for sid, parent, _op, _name, t0, t1, _tags in doc["spans"]:
        if parent is not None:
            child_time[parent] += t1 - t0
            child_count[parent] += 1
    calls_under_execute = 0
    per_op: dict[str, dict[int, int]] = defaultdict(dict)  # self time by layer and op
    modes: dict[int, str] = {}
    for sid, _parent, op, name, t0, t1, span_tags in doc["spans"]:
        durations[name].append(t1 - t0)
        selves[name].append(t1 - t0 - child_time[sid])
        tags[name].append(span_tags)
        if name in ("evaluation.item", "solgen.generate", "engine.execute"):
            per_op[name][op] = t1 - t0 - child_time[sid]
        if name == "evaluation.item":
            modes[op] = span_tags["mode"]
        if name == "engine.execute":
            calls_under_execute += child_count[sid]

    def p50(name: str, scale: float) -> float:
        return _p50(durations[name]) / scale

    def p90(name: str, scale: float) -> float:
        return _p90(durations[name]) / scale

    def total(*names: str) -> int:
        return sum(sum(durations[name]) for name in names)

    def tag_values(name: str, key: str) -> list:
        return [t[key] for t in tags[name] if key in t]

    def failed(name: str) -> int:
        return len(tag_values(name, "failed"))

    def conns_per_request(port: str) -> float:
        counts = untraced["stub"].get(port, {})
        return _ratio(counts.get("connections", 0), counts.get("requests", 0))

    # The harness's own time: an op's item self time less the same item's
    # side-measured generate_solution and execute self times.  Only where
    # every program-side call is a child or a side span, so not on
    # eval-live, whose in-op model calls no span reaches.
    harness = []
    for op, item_self in per_op["evaluation.item"].items():
        if modes[op] == "agent_only":
            harness.append(item_self)  # the agent's answer is the only call
        elif op in per_op["solgen.generate"] and op in per_op["engine.execute"]:
            harness.append(item_self - per_op["solgen.generate"][op] - per_op["engine.execute"][op])
    model_requests = untraced["stub"].get("model", {}).get("requests", 0)
    accepted = sum(1 for op in untraced["ops"] if op["err"] is None)

    item_time = total("evaluation.item")
    unfenced = [d for d, t in zip(durations["solgen.extract"], tags["solgen.extract"]) if t.get("unfenced")]
    tokens = sum(tag_values("dsl.tokenize", "tokens"))
    executed = len(durations["engine.execute"])
    metrics = {
        "dsl.tokenize.p50_us": p50("dsl.tokenize", US),
        "dsl.tokenize.tokens_per_s": _ratio(tokens, total("dsl.tokenize") / 1e9),
        "dsl.parse.p50_us": p50("dsl.parse", US),
        "dsl.format.p50_us": p50("dsl.format", US),
        "dsl.share": _ratio(total("dsl.parse"), item_time),
        "solgen.extract.p50_us": p50("solgen.extract", US),
        "solgen.extract.unfenced.p50_us": _p50(unfenced) / US,
        "solgen.generate.p50_us": p50("solgen.generate", US),
        "solgen.client.p50_ms": p50("solgen.client", MS),
        "solgen.client.p90_ms": p90("solgen.client", MS),
        "solgen.client.calls_per_program": _ratio(model_requests, accepted),
        "solgen.client.conns_per_request": conns_per_request("model"),
        "solgen.client.failed": failed("solgen.client"),
        "engine.execute.self_p50_us": _p50(selves["engine.execute"]) / US,
        "engine.agent_calls_per_op": _ratio(calls_under_execute, executed),
        "engine.fallback_ratio": _ratio(sum(tag_values("engine.execute", "fallback")), executed),
        "agents.oracle.p50_us": p50("agents.oracle", US),
        "agents.oracle.p90_us": p90("agents.oracle", US),
        "agents.oracle.share": _ratio(total("agents.oracle", "agents.oracle.init"), item_time),
        "agents.http.p50_ms": p50("agents.http", MS),
        "agents.http.p90_ms": p90("agents.http", MS),
        "agents.http.conns_per_request": conns_per_request("agent"),
        "agents.http.failed": failed("agents.http"),
        "agents.replay.append.p50_ms": p50("agents.replay.append", MS),
        "agents.replay.append.p90_ms": p90("agents.replay.append", MS),
        "agents.replay.append.wchar_per_call": _ratio(sum(tag_values("agents.replay.append", "wchar")),
                                                      len(durations["agents.replay.append"])),
        "agents.replay.lookup.p50_us": p50("agents.replay.lookup", US),
        "agents.replay.load_ms": doc["replay_load_ms"],
        "agents.table.load_ms": p50("agents.table.load", MS),
        "evaluation.self_p50_us": _p50(harness) / US,
        "evaluation.rchar_per_op": _ratio(sum(tag_values("evaluation.item", "rchar")), len(durations["evaluation.item"])),
        "evaluation.match.p50_us": p50("evaluation.match", US),
        "evaluation.load_dataset_ms": doc["load_dataset_ms"],
    }
    for stage in ALIGN_STAGES:
        metrics[f"align.{stage}.p50_ms"] = p50(f"align.{stage}", MS)
    op_time = total("align.op")
    metrics["align.cluster.share"] = _ratio(total("align.cluster"), op_time)
    metrics["align.principles.share"] = _ratio(total("align.principles"), op_time)
    merges = tag_values("align.cluster", "merges")
    metrics["align.cluster.merges"] = _ratio(sum(merges), len(merges))
    metrics["align.cluster.peak_alloc_mb"] = max(tag_values("align.cluster.alloc", "peak_bytes"), default=0) / MB
    metrics["align.principles.peak_alloc_mb"] = max(tag_values("align.principles.alloc", "peak_bytes"), default=0) / MB
    metrics["trace.overhead_ratio"] = _ratio(paced_rate(untraced), paced_rate(traced))
    return metrics
