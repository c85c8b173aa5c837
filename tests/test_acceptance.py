"""Acceptance gate.

One test per top-level acceptance criterion. Each prints a single PASS/FAIL
line on the real stdout (capture is suspended for just that line) and then
asserts, so a red criterion is visible both in the report line and in the
pytest summary. Budgeted criteria measure wall time with perf_counter.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from align_reference import dense_masked_refine
from conftest import ELECTION_PROGRAM
from gen_programs import AGENT_ANSWERS, random_program
from reference_interp import ref_execute, values_identical
from solvechart.agents.oracle import OracleAgent
from solvechart.agents.replay import Cassette
from solvechart.agents.table import load_table
from solvechart.align.invariants import check_bundle
from solvechart.align.pipeline import PipelineConfig, run_alignment_pipeline
from solvechart.align.synthetic import make_grid, make_params, make_query
from solvechart.dsl import format_program, parse_program
from solvechart.engine.interpreter import EngineConfig, execute
from solvechart.evaluation.dataset import load_dataset
from solvechart.evaluation.harness import EvalConfig, run_eval
from solvechart.evaluation.metrics import relaxed_match

from test_align import permuted_grid
from test_engine_reference import AGENT, engine_outcome


@pytest.fixture()
def verdict(capfd):
    def _verdict(label: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"{status}: {label}" + (f" [{detail}]" if detail else "")
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def test_worked_example_end_to_end(election_agent, verdict):
    start = time.perf_counter()
    program = parse_program(ELECTION_PROGRAM)
    result = execute(program, election_agent, EngineConfig())
    elapsed = time.perf_counter() - start
    calls = [(c.operator, c.raw_answer) for c in result.trace.agent_calls]
    ok = (
        result.answer == "Republican"
        and calls == [("SUBSTEP", "50"), ("SUBSTEP", "43")]
        and elapsed < 1.0
    )
    verdict(
        "worked-example program: decompose, subtract, decide",
        ok,
        f"answer={result.answer!r} raw={[c[1] for c in calls]} {elapsed * 1000:.0f}ms",
    )


def test_interpreter_agrees_with_reference_on_1000_programs(verdict):
    start = time.perf_counter()
    mismatches = []
    for seed in range(1000):
        program = random_program(random.Random(seed))
        (ref_kind, ref_payload), ref_calls = ref_execute(program, AGENT_ANSWERS)
        engine_result, engine_calls = engine_outcome(program)
        if ref_kind == "error":
            agree = engine_result == ("error", ref_payload)
        else:
            agree = (
                engine_result[0] == "value"
                and values_identical(engine_result[1], ref_payload)
                and engine_calls == ref_calls
            )
        if not agree:
            mismatches.append(seed)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    verdict(
        "interpreter matches independent reference on 1000 seeded programs",
        ok,
        f"mismatches={mismatches[:5]} {elapsed:.1f}s",
    )


def test_format_parse_round_trip_on_1000_programs(verdict):
    start = time.perf_counter()
    failures = []
    for seed in range(1000):
        program = random_program(random.Random(seed))
        text = format_program(program)
        if format_program(parse_program(text)) != text:
            failures.append(seed)
    elapsed = time.perf_counter() - start
    ok = not failures
    verdict(
        "canonical form is a parse/format fixed point on 1000 seeded programs",
        ok,
        f"failures={failures[:5]} {elapsed:.1f}s",
    )


def test_alignment_invariants_on_100_random_instances(verdict):
    start = time.perf_counter()
    bad: list[tuple[int, str]] = []
    for seed in range(100):
        shape_rng = np.random.default_rng(seed)
        rows = int(shape_rng.integers(1, 9))
        cols = int(shape_rng.integers(1, 9))
        dim = int(shape_rng.integers(4, 33))
        n = rows * cols
        grid = make_grid(rows, cols, dim, seed=seed)
        query = make_query(dim, seed=seed)
        params = make_params(dim, seed=seed, layers=2, top_k=min(5, n))
        bundle = run_alignment_pipeline(grid, query, params, PipelineConfig())

        report = check_bundle(grid, bundle)
        for name, passed in report.items():
            if not passed:
                bad.append((seed, name))

        reference = dense_masked_refine(
            grid.embeddings, bundle.clusters.labels, params.attention
        )
        if not np.allclose(bundle.refined, reference, atol=1e-6):
            bad.append((seed, "masked-dense-equivalence"))

        order = np.random.default_rng(seed + 7).permutation(n)
        permuted = run_alignment_pipeline(
            permuted_grid(grid, order), query, params, PipelineConfig()
        )
        equivariant = (
            np.allclose(permuted.alignment, bundle.alignment[order][:, order], atol=1e-8)
            and np.allclose(permuted.annotated, bundle.annotated[order][:, order], atol=1e-8)
            and np.allclose(permuted.refined, bundle.refined[order], atol=1e-8)
            and np.allclose(permuted.fused, bundle.fused[order], atol=1e-8)
        )
        if not equivariant:
            bad.append((seed, "permutation-equivariance"))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 60.0
    verdict(
        "alignment invariant suite on 100 random instances",
        ok,
        f"violations={bad[:5]} {elapsed:.1f}s",
    )


def test_noise_substitution_flips_only_the_alignment_invariant(verdict):
    grid = make_grid(4, 4, 16, seed=17)
    query = make_query(16, seed=17)
    params = make_params(16, seed=17)

    clean = check_bundle(grid, run_alignment_pipeline(grid, query, params, PipelineConfig()))
    config = PipelineConfig(disable_alignment=True, noise_seed=17)
    noisy = run_alignment_pipeline(grid, query, params, config)
    report = check_bundle(grid, noisy)
    repeat = run_alignment_pipeline(grid, query, params, config)

    ok = (
        all(clean.values())
        and report["shapes"] is True
        and report["same_cluster_nullity"] is False
        and np.all(np.isfinite(noisy.fused))
        and np.array_equal(noisy.alignment, repeat.alignment)
    )
    verdict(
        "noise-substituted alignment fails nullity while shapes still pass",
        ok,
        f"shapes={report['shapes']} nullity={report['same_cluster_nullity']}",
    )


def test_program_mode_strictly_beats_direct_questioning(fixtures_dir, verdict):
    items = load_dataset(fixtures_dir / "dataset.jsonl")
    cassette = Cassette.load(fixtures_dir / "llm_cassette.json")

    tables: dict = {}

    def factory(item):
        agent = tables.get(item.table_path)
        if agent is None:
            agent = OracleAgent(load_table(item.table_path))
            tables[item.table_path] = agent
        return agent

    direct_config = EvalConfig(mode="agent_only", agent_factory=factory)
    program_config = EvalConfig(
        mode="programmatic", agent_factory=factory, llm_client=cassette
    )
    direct = run_eval(items, direct_config)
    program = run_eval(items, program_config)
    direct_again = run_eval(items, direct_config)
    program_again = run_eval(items, program_config)

    arithmetic_ids = {f"a{i:02d}" for i in range(1, 9)}
    direct_wrong = {r.id for r in direct.items if not r.correct}
    ok = (
        len(items) == 20
        and program.accuracy > direct.accuracy
        and direct_wrong == arithmetic_ids
        and program.accuracy == 1.0
        and direct.to_json_text() == direct_again.to_json_text()
        and program.to_json_text() == program_again.to_json_text()
    )
    verdict(
        "program mode strictly beats direct questioning on the 20-item fixture",
        ok,
        f"programmatic={program.accuracy:.2f} direct={direct.accuracy:.2f}",
    )


def test_relaxed_match_truth_table(verdict):
    cases = [
        ("51", "50", True),
        ("56", "50", False),
        ("Republican", "republican", True),
        ("0", "0", True),
        ("0.0001", "0", False),
        ("45%", "45", True),
        ("52.5", "50", True),
        (" Wed ", "wed", True),
    ]
    wrong = [
        (p, g) for p, g, expected in cases if relaxed_match(p, g) is not expected
    ]
    verdict(
        "relaxed-match truth table (8 cases)",
        not wrong,
        f"wrong={wrong}" if wrong else "8/8",
    )
