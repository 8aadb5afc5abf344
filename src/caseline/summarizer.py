"""Client for an external chat-completion summarization service.

Long fact descriptions are condensed to fit the downstream encoder's
input budget by a remote language model speaking the common
chat-completions JSON dialect.  This module is transport plumbing
only: request assembly, authentication, error taxonomy, and a hard
local cap on the returned length.  No network call is made unless
explicitly invoked.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, replace

import requests

from .corpus import CaseRecord, Corpus
from .errors import (
    ConfigError,
    EmptyResponseError,
    EmptyTextError,
    NetworkFailureError,
    RemoteError,
)

log = logging.getLogger(__name__)

__all__ = [
    "SummarizerConfig",
    "API_KEY_ENV",
    "summarize_case",
    "summarize_corpus",
]

API_KEY_ENV = "CASELINE_SUMMARIZER_API_KEY"

_PROMPT = ("Summarize the following legal case facts in at most "
           "{budget} tokens, keeping every fact that could bear on "
           "which law articles were violated.\n\n{text}")


@dataclass(frozen=True)
class SummarizerConfig:
    """Remote endpoint and sampling settings.

    ``max_output_tokens`` is capped at 512 to match the downstream
    encoder budget; whatever the service returns is additionally
    truncated locally to that many whitespace tokens.
    """

    endpoint: str
    model: str
    temperature: float = 1.0
    max_output_tokens: int = 512
    timeout: float = 30.0
    min_interval: float = 0.0

    def __post_init__(self) -> None:
        if not self.endpoint:
            raise ConfigError("endpoint must be set")
        if not self.model:
            raise ConfigError("model must be set")
        if not 1 <= self.max_output_tokens <= 512:
            raise ConfigError(
                f"max_output_tokens must be in [1, 512], got "
                f"{self.max_output_tokens}")
        if not self.timeout > 0:
            raise ConfigError(f"timeout must be > 0, got {self.timeout}")
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if self.min_interval < 0:
            raise ConfigError("min_interval must be >= 0")


def _truncate_tokens(text: str, budget: int) -> str:
    tokens = text.split()
    return " ".join(tokens[:budget])


def summarize_case(text: str, cfg: SummarizerConfig) -> str:
    """Summarize one fact description via the remote service.

    The API key is read from the CASELINE_SUMMARIZER_API_KEY
    environment variable when present.  Transport failures, non-2xx
    statuses, and empty completions map to distinct errors so callers
    can retry or skip per failure class.
    """
    if not text or not text.strip():
        raise EmptyTextError("cannot summarize empty text")
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    payload = {
        "model": cfg.model,
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_output_tokens,
        "messages": [{
            "role": "user",
            "content": _PROMPT.format(budget=cfg.max_output_tokens,
                                      text=text),
        }],
    }
    try:
        response = requests.post(cfg.endpoint, json=payload,
                                 headers=headers, timeout=cfg.timeout)
    except requests.RequestException as exc:
        raise NetworkFailureError(
            f"summarizer request failed: {exc}") from exc
    if response.status_code != 200:
        raise RemoteError(response.status_code, response.text[:500])
    try:
        body = response.json()
        content = body["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise EmptyResponseError(
            f"malformed summarizer response: {exc}") from exc
    if not content or not content.strip():
        raise EmptyResponseError("summarizer returned empty content")
    return _truncate_tokens(content.strip(), cfg.max_output_tokens)


def summarize_corpus(corpus: Corpus, cfg: SummarizerConfig) -> Corpus:
    """Summarize every case text, preserving all other fields.

    Requests are serialized with at least ``min_interval`` seconds
    between them when configured.
    """
    out: list[CaseRecord] = []
    for i, case in enumerate(corpus):
        if cfg.min_interval > 0 and i > 0:
            time.sleep(cfg.min_interval)
        summary = summarize_case(case.text, cfg)
        out.append(replace(case, text=summary))
        log.info("summarized %s (%d/%d)", case.case_id, i + 1,
                 len(corpus))
    return Corpus(out)
