"""Chat-completions client for an OpenAI-compatible endpoint.

One request, no streaming: POST {endpoint}/v1/chat/completions with the
system and user messages, read the first choice's content.  The API key is
taken from the SOLVECHART_API_KEY environment variable unless the config
carries one explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..agents.http import post_json
from ..errors import ErrorKind, SolveChartError
from .prompt import PromptBundle

__all__ = ["API_KEY_ENV", "LlmConfig", "LlmError", "chat_completion"]

API_KEY_ENV = "SOLVECHART_API_KEY"
DEFAULT_MODEL = "Qwen2-7B-Instruct"
DEFAULT_TIMEOUT_S = 120.0
TEMPERATURE = 0.0  # greedy decoding: a question gets the same program each time
MAX_TOKENS = 512  # the reply's length cap


class LlmError(SolveChartError):
    """The model endpoint failed or sent a reply of the wrong shape."""


@dataclass(frozen=True)
class LlmConfig:
    endpoint: str
    model: str = DEFAULT_MODEL
    api_key: str | None = None  # falls back to the environment
    timeout_s: float = DEFAULT_TIMEOUT_S


def chat_completion(config: LlmConfig, bundle: PromptBundle) -> str:
    """Sends one prompt bundle and returns the model's reply text.

    Raises:
        LlmError: TIMEOUT, TRANSPORT or BAD_RESPONSE as post_json maps them;
            BAD_RESPONSE also when the completion lacks a text content field.
    """
    key = config.api_key if config.api_key is not None else os.environ.get(API_KEY_ENV)
    payload = {
        "model": config.model,
        "messages": [
            {"role": "system", "content": bundle.system},
            {"role": "user", "content": bundle.user},
        ],
        "temperature": TEMPERATURE,
        "max_tokens": MAX_TOKENS,
    }
    body = post_json(
        config.endpoint, "/v1/chat/completions", payload, timeout_s=config.timeout_s, api_key=key, error=LlmError
    )
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as err:
        raise LlmError(f"unexpected completion shape: {err}", ErrorKind.BAD_RESPONSE) from err
    if not isinstance(content, str):
        raise LlmError("completion content is not text", ErrorKind.BAD_RESPONSE)
    return content
