"""Evaluation harness.

Runs a dataset through one of two modes:

* ``agent_only``: each question goes straight to the chart agent as a single
  ASK; the reply is the prediction.
* ``programmatic``: a solution program is produced for the question (live
  model or replay cassette), then executed against the chart agent; the
  stringified result is the prediction.

Per-item failures are recorded as incorrect with a reason instead of
aborting the run. Reports serialize with sorted keys and a fixed config
snapshot so that two runs over the same inputs produce byte-identical JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Union

from ..agents.base import AgentHandle, AgentQuery
from ..agents.oracle import OracleAgent
from ..agents.replay import Cassette
from ..agents.table import ChartTable, load_table
from ..engine.interpreter import EngineConfig, execute
from ..errors import SolveChartError
from ..files import json_text, make_dir, write_text_atomic
from ..solgen.client import LlmConfig
from ..solgen.generate import generate_solution
from ..solgen.prompt import chart_hints
from ..values import stringify
from .dataset import EvalItem
from .metrics import DEFAULT_TOLERANCE, relaxed_match

MODES = ("agent_only", "programmatic")

AgentFactory = Callable[[EvalItem], AgentHandle]
LlmSource = Union[LlmConfig, Cassette]

# The tables one run's reader holds, least recently read dropped first: twice the reuse measured at seed 7,
# where the fixture reads a table again at an LRU stack distance of at most 2 and eval-lookup at most 3.
TABLES_HELD = 8

# The most threads one run evaluates items on, each taking items until none is left.  agents.http keeps 16 idle
# sockets, so with more threads than that, sockets put back past the 16th are closed instead of reused.
MAX_WORKERS = 16


@dataclass(frozen=True, slots=True)
class EvalConfig:
    """Settings for one evaluation run; with no agent_factory, an OracleAgent answers each item from its table."""

    mode: str
    agent_factory: AgentFactory | None = field(default=None, repr=False)
    llm_client: LlmSource | None = None
    fallback_to_ask: bool = True
    workers: int = 1
    tolerance: float = DEFAULT_TOLERANCE
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "programmatic" and self.llm_client is None:
            raise ValueError("programmatic mode requires an llm_client")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers {self.workers} is more than {MAX_WORKERS}")
        if not 0 <= self.tolerance < math.inf:
            raise ValueError("tolerance must be a finite number of at least 0")

    def snapshot(self) -> dict:
        """The subset of settings recorded in reports.

        Deliberately excludes backend descriptors and anything run-dependent
        so replayed runs stay byte-identical.
        """
        return {
            "mode": self.mode,
            "workers": self.workers,
            "tolerance": self.tolerance,
            "fallback_to_ask": self.fallback_to_ask,
        }


@dataclass(frozen=True, slots=True)
class ItemResult:
    """Outcome for a single dataset item."""

    id: str
    prediction: str | None
    correct: bool
    mode: str
    fallback_used: bool = False
    trace_path: str | None = None
    reason: str | None = None


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Results for a full run."""

    items: tuple[ItemResult, ...]
    accuracy: float
    config: dict
    empty_dataset: bool = False

    def to_json_text(self) -> str:
        return json_text(self)


def _evaluate_item(item: EvalItem, config: EvalConfig, tables: Callable[[str], ChartTable] | None) -> ItemResult:
    """One item's result; tables is the run's table reader, None where the run reads no table."""
    try:
        if config.mode == "programmatic" and config.trace_dir is not None and (
            item.id in (".", "..") or "/" in item.id or "\0" in item.id
        ):
            raise SolveChartError(f"cannot name a trace after item id {item.id!r}: not a plain file name")
        if config.agent_factory is not None:
            agent = config.agent_factory(item)
        elif item.table_path is None:
            raise SolveChartError(f"item {item.id!r} has no table_path for the oracle agent")
        else:
            agent = OracleAgent(tables(item.table_path))
        fallback_used, trace_path = False, None
        if config.mode == "agent_only":
            prediction = agent.answer(AgentQuery(item.question, item.chart_id, "ASK")).answer
        else:
            assert config.llm_client is not None
            live = isinstance(config.llm_client, LlmConfig)  # only a live model gets a prompt
            program = generate_solution(
                item.question,
                config.llm_client,
                chart_hints=chart_hints(tables(item.table_path)) if live and item.table_path is not None else None,
                chart_id=item.chart_id,
            )
            result = execute(
                program,
                agent,
                EngineConfig(
                    fallback_to_ask=config.fallback_to_ask,
                    chart_id=item.chart_id,
                    question=item.question,
                ),
            )
            prediction = stringify(result.answer)
            fallback_used = result.fallback_used
            if config.trace_dir is not None:
                out = Path(config.trace_dir) / f"{item.id}.json"
                write_text_atomic(out, result.trace.to_json_text())
                trace_path = str(out)
        correct = relaxed_match(prediction, item.gold, config.tolerance)
        return ItemResult(
            id=item.id,
            prediction=prediction,
            correct=correct,
            mode=config.mode,
            fallback_used=fallback_used,
            trace_path=trace_path,
        )
    except SolveChartError as exc:
        return ItemResult(
            id=item.id,
            prediction=None,
            correct=False,
            mode=config.mode,
            reason=str(exc),
        )


def run_eval(items: list[EvalItem], config: EvalConfig) -> EvalReport:
    """Evaluate every item and assemble a report in dataset order; a programmatic run makes trace_dir first."""
    if config.mode == "programmatic" and config.trace_dir is not None:
        make_dir(config.trace_dir)
    if not items:
        return EvalReport(items=(), accuracy=0.0, config=config.snapshot(), empty_dataset=True)
    # Only a run that reads tables builds a reader: an lru_cache is a reference cycle that only the garbage
    # collector frees, which costs a caller that runs items one run_eval call at a time.  Threads may race
    # to load a path; either copy serves.
    live = config.mode == "programmatic" and isinstance(config.llm_client, LlmConfig)
    tables = lru_cache(maxsize=TABLES_HELD)(load_table) if live or config.agent_factory is None else None
    if config.workers == 1:
        results = [_evaluate_item(item, config, tables) for item in items]
    else:
        from concurrent.futures import ThreadPoolExecutor  # imported here, so a serial run never loads it

        # One task per thread, not one per item; the threads share one enumerate, whose next() the GIL makes atomic.
        results = [None] * len(items)
        queue = enumerate(items)

        def work(_: int) -> None:
            try:
                for index, item in queue:
                    results[index] = _evaluate_item(item, config, tables)
            except BaseException:
                for _ in queue:  # leaves the other threads no item, so the error surfaces before the rest run
                    pass
                raise

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            list(pool.map(work, range(min(config.workers, len(items)))))  # raises a thread's exception here
    accuracy = sum(1 for r in results if r.correct) / len(results)
    return EvalReport(
        items=tuple(results),
        accuracy=accuracy,
        config=config.snapshot(),
    )
