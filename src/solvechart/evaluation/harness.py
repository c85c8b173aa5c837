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

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable, Union

from ..agents.base import AgentHandle, AgentQuery
from ..agents.oracle import OracleAgent
from ..agents.replay import Cassette
from ..agents.table import load_table
from ..engine.interpreter import EngineConfig, execute
from ..engine.values import stringify
from ..errors import SolveChartError
from ..files import write_text_atomic
from ..solgen.client import LlmConfig
from ..solgen.generate import generate_solution
from ..solgen.prompt import chart_hints
from .dataset import EvalItem
from .metrics import DEFAULT_TOLERANCE, relaxed_match

MODES = ("agent_only", "programmatic")

AgentFactory = Callable[[EvalItem], AgentHandle]
LlmSource = Union[LlmConfig, Cassette]


@dataclass(frozen=True, slots=True)
class EvalConfig:
    """Settings for one evaluation run."""

    mode: str
    agent_factory: AgentFactory = field(repr=False)
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

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Results for a full run."""

    items: tuple[ItemResult, ...]
    accuracy: float
    config: dict
    empty_dataset: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def oracle_agents() -> AgentFactory:
    """An agent factory: an OracleAgent over each item's table, each path loaded once while the factory lives."""
    agent_for = cache(lambda path: OracleAgent(load_table(path)))  # threads may race to load a path; either serves

    def factory(item: EvalItem) -> AgentHandle:
        if item.table_path is None:
            raise SolveChartError(f"item {item.id!r} has no table_path for the oracle agent")
        return agent_for(item.table_path)

    return factory


def prompt_hints(llm_client: LlmSource, agent: AgentHandle, table_path: str | None) -> str | None:
    """The prompt's chart context; only a live model gets a prompt, so a cassette reads no table."""
    if not isinstance(llm_client, LlmConfig) or table_path is None:
        return None
    # Any other agent's table is read for this prompt and dropped: a run-long cache cost eval-live 9% peak RSS.
    return chart_hints(agent.table if isinstance(agent, OracleAgent) else load_table(table_path))


def _evaluate_item(item: EvalItem, config: EvalConfig) -> ItemResult:
    try:
        agent = config.agent_factory(item)
        fallback_used, trace_path = False, None
        if config.mode == "agent_only":
            prediction = agent.answer(AgentQuery(item.question, item.chart_id, "ASK")).answer
        else:
            assert config.llm_client is not None
            program = generate_solution(
                item.question,
                config.llm_client,
                chart_hints=prompt_hints(config.llm_client, agent, item.table_path),
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
                if item.id in (".", "..") or "/" in item.id or "\0" in item.id:
                    raise SolveChartError(f"cannot name a trace after item id {item.id!r}: not a plain file name")
                out = Path(config.trace_dir) / f"{item.id}.json"
                try:
                    out.parent.mkdir(parents=True, exist_ok=True)
                    write_text_atomic(out, result.trace.to_json_text())
                except OSError as exc:
                    raise SolveChartError(f"cannot write trace {out}: {exc.strerror or exc}") from exc
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
    """Evaluate every item and assemble a report in dataset order."""
    if not items:
        return EvalReport(items=(), accuracy=0.0, config=config.snapshot(), empty_dataset=True)
    if config.workers == 1:
        results = [_evaluate_item(item, config) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(lambda it: _evaluate_item(it, config), items))
    accuracy = sum(1 for r in results if r.correct) / len(results)
    return EvalReport(
        items=tuple(results),
        accuracy=accuracy,
        config=config.snapshot(),
    )
