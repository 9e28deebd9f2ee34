"""Chat-completions endpoint adapter: prompts, action grammar, retries.

Drives real orchestrator teams and the aggregator through any
chat-completions-compatible HTTP endpoint.  The orchestrator replies
with a single action line, which ``parse_action`` turns into a runtime
move:

    STEP:<instruction>  |  RETRIEVE:<entry_id>  |  FINAL:<answer>

A ``RETRIEVE`` or ``FINAL`` line is the move itself; a ``STEP`` line
costs one more call, a one-line summary elicitation, so one orchestrator
step makes at most two endpoint calls.  A reply with no conforming line
becomes a ``malformed`` step.  The aggregator takes the first number in
its reply as a 1-based candidate index and falls back to the majority
vote.  The prompts are the module constants below.  A body that is not
a completion is a ``BackendFailure``, like an exhausted retry budget.
Credentials come from the environment and are never written to traces
or logs.
"""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass

import numpy as np
import requests

from .controller import StepTriplet
from .errors import BackendFailure, ConfigurationError, ValidationError, require_int, require_real
from .runtime import (
    Candidate,
    FinalMove,
    HistoryItem,
    MajorityAggregator,
    Move,
    RetrieveMove,
    StepMove,
)

logger = logging.getLogger(__name__)

RETRYABLE_STATUS = {500, 502, 503, 504, 429}
AUTH_STATUS = {401, 403}
# Most recent history items shown to the orchestrator.
HISTORY_WINDOW = 12


@dataclass
class EndpointConfig:
    base_url: str
    model: str
    credential_env: str = "HIVEMEM_API_KEY"
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 0.5
    temperature: float = 0.7

    def __post_init__(self) -> None:
        self.timeout = require_real("timeout", self.timeout, 0, above=True)
        self.max_retries = require_int("max_retries", self.max_retries, 0)
        self.backoff_base = require_real("backoff_base", self.backoff_base, 0)
        self.temperature = require_real("temperature", self.temperature, 0)

    def credential(self) -> str:
        value = os.environ.get(self.credential_env, "")
        if not value:
            raise ConfigurationError(
                f"credential environment variable {self.credential_env!r} is not set"
            )
        return value

    @classmethod
    def from_env(cls) -> "EndpointConfig":
        return cls(
            base_url=os.environ.get("HIVEMEM_ENDPOINT_URL", "http://localhost:8000/v1"),
            model=os.environ.get("HIVEMEM_MODEL", "default"),
        )


# -- action grammar ----------------------------------------------------------


def parse_action(completion: str) -> str | RetrieveMove | FinalMove | None:
    """First grammar-conformant line wins.

    A ``STEP`` line gives its instruction, a ``RETRIEVE`` or ``FINAL``
    line its runtime move; None when no line conforms.
    """
    for line in completion.splitlines():
        line = line.strip()
        if line.startswith("STEP:"):
            instruction = line[len("STEP:"):].strip()
            if instruction:
                return instruction
        elif line.startswith("RETRIEVE:"):
            try:
                return RetrieveMove(int(line[len("RETRIEVE:"):].strip()))
            except ValueError:
                continue
        elif line.startswith("FINAL:"):
            return FinalMove(line[len("FINAL:"):].strip())
    return None


# -- prompts -----------------------------------------------------------------

ORCHESTRATOR_PROMPT = """You are one of several orchestrators working the same task in parallel.
Task: {query}

Shared memory keys available for retrieval (id: summary):
{keys}

Your recent history:
{history}

Reply with exactly one action line, nothing else:
STEP:<instruction to make progress yourself>
RETRIEVE:<entry_id from the list above>
FINAL:<your final answer>
"""

SUMMARY_PROMPT = (
    "Summarize the outcome of that step in one short line "
    "(it becomes a shared memory key for other teams)."
)

AGGREGATOR_PROMPT = """Task: {query}

Candidate answers from parallel teams:
{candidates}

Reply with only the number of the best candidate.
"""


def render_orchestrator(
    query: str, history: list[HistoryItem], visible_keys: list[tuple[int, str]]
) -> str:
    keys = "\n".join(f"{eid}: {summary}" for eid, summary in visible_keys) or "(none yet)"
    hist = "\n".join(f"[{h.kind}] {h.text}" for h in history[-HISTORY_WINDOW:]) or "(empty)"
    return ORCHESTRATOR_PROMPT.format(query=query, keys=keys, history=hist)


def render_aggregator(query: str, candidates: list[Candidate]) -> str:
    listing = "\n".join(f"{i + 1}. {c.answer}" for i, c in enumerate(candidates))
    return AGGREGATOR_PROMPT.format(query=query, candidates=listing)


# -- HTTP client -------------------------------------------------------------


def call_chat(
    config: EndpointConfig,
    messages: list[dict],
    sleep_fn=time.sleep,
    call_log: list[dict] | None = None,
) -> str:
    """POST to /chat/completions with retry/backoff; returns the completion.

    Transport errors and retryable statuses back off exponentially
    (backoff_base * 2^attempt).  Auth failures raise ConfigurationError
    immediately; exhausted retries, another status and a body without a
    string at ``choices[0].message.content`` raise BackendFailure.  ``call_log``
    receives one metadata record per call (latency, status, attempt),
    never the credential.
    """
    if not messages:
        raise ValidationError("messages must be non-empty")
    credential = config.credential()
    url = config.base_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": config.model,
        "messages": messages,
        "temperature": config.temperature,
    }
    last_error: str = ""
    for attempt in range(config.max_retries + 1):
        if attempt > 0:
            sleep_fn(config.backoff_base * (2 ** (attempt - 1)))
        started = time.perf_counter()
        status = None
        try:
            response = requests.post(
                url,
                json=payload,
                headers={"Authorization": f"Bearer {credential}"},
                timeout=config.timeout,
            )
            status = response.status_code
        except requests.RequestException as exc:
            last_error = type(exc).__name__
            _log_call(call_log, url, None, started, attempt, error=last_error)
            continue
        _log_call(call_log, url, status, started, attempt)
        if status in AUTH_STATUS:
            raise ConfigurationError(f"endpoint authentication failed (HTTP {status})")
        if status in RETRYABLE_STATUS:
            last_error = f"HTTP {status}"
            continue
        if status != 200:
            raise BackendFailure(f"endpoint returned HTTP {status}")
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendFailure(f"malformed endpoint response: {exc}") from exc
        if not isinstance(content, str):
            raise BackendFailure("malformed endpoint response: content is not a string")
        return content
    raise BackendFailure(
        f"endpoint failed after {config.max_retries + 1} attempts ({last_error})"
    )


def _log_call(call_log, url, status, started, attempt, error=None):
    if call_log is None:
        return
    call_log.append(
        {
            "url": url,
            "status": status,
            "attempt": attempt,
            "latency_s": time.perf_counter() - started,
            "error": error,
        }
    )


# -- backend / aggregator over the endpoint ----------------------------------


class _EndpointClient:
    """One endpoint configuration, its backoff sleep and its call log."""

    def __init__(self, config: EndpointConfig, sleep_fn=time.sleep):
        self.config = config
        self.sleep_fn = sleep_fn
        self.call_log: list[dict] = []

    def _chat(self, messages: list[dict]) -> str:
        return call_chat(self.config, messages, sleep_fn=self.sleep_fn, call_log=self.call_log)


class LLMBackend(_EndpointClient):
    """AgentBackend driving every team through one chat endpoint.

    The action completion doubles as the step's raw output; the summary
    comes from a second short call, keeping each step at most two calls.
    Malformed action lines consume a step (the model wasted the turn)
    and are marked so the controller can learn to reject them.
    """

    def next_move(
        self,
        team: int,
        query: str,
        history: list[HistoryItem],
        visible_keys: list[tuple[int, str]],
        rng: np.random.Generator,
    ) -> Move:
        prompt = render_orchestrator(query, history, visible_keys)
        completion = self._chat([{"role": "user", "content": prompt}])
        parsed = parse_action(completion)
        if isinstance(parsed, (RetrieveMove, FinalMove)):
            return parsed
        if parsed is None:
            logger.warning("team %d produced a malformed action line", team)
            return StepMove(
                StepTriplet(
                    agent_input="(malformed action)",
                    step_summary="malformed action line",
                    agent_output=completion or "(empty completion)",
                ),
                label="malformed",
            )
        summary_reply = self._chat(
            [
                {"role": "user", "content": prompt},
                {"role": "assistant", "content": completion},
                {"role": "user", "content": SUMMARY_PROMPT},
            ]
        )
        summary = summary_reply.strip().splitlines()[0] if summary_reply.strip() else ""
        return StepMove(
            StepTriplet(
                agent_input=parsed,
                step_summary=summary or "step completed",
                agent_output=completion,
            ),
            label="llm-step",
        )


class LLMAggregator(_EndpointClient):
    """Selection-prompt aggregator: the first number in the reply picks a
    candidate (1-based); majority vote when there is none, it is out of
    range, or the endpoint fails."""

    def aggregate(self, query: str, candidates: list[Candidate]) -> str:
        try:
            reply = self._chat([{"role": "user", "content": render_aggregator(query, candidates)}])
        except BackendFailure:
            return MajorityAggregator().aggregate(query, candidates)
        number = re.search(r"\d+", reply)
        if number:
            index = int(number.group()) - 1
            if 0 <= index < len(candidates):
                return candidates[index].answer
        return MajorityAggregator().aggregate(query, candidates)
