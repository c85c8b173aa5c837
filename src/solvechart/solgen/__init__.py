"""Solution-program generation via an instruction-tuned language model."""

from __future__ import annotations

from .client import LlmConfig, LlmError, chat_completion
from .extract import ExtractionError, extract_program
from .generate import GenerationError, generate_solution
from .prompt import PromptBundle, build_prompt, chart_hints, system_prompt

__all__ = [
    "ExtractionError",
    "GenerationError",
    "LlmConfig",
    "LlmError",
    "PromptBundle",
    "build_prompt",
    "chart_hints",
    "chat_completion",
    "extract_program",
    "generate_solution",
    "system_prompt",
]
