"""Chat-completions endpoint adapter: prompts, action grammar, retries.

Drives real orchestrator teams and the aggregator through any
chat-completions-compatible HTTP endpoint.  The orchestrator replies
with a single action line:

    STEP:<instruction>  |  RETRIEVE:<entry_id>  |  FINAL:<answer>

One orchestrator step costs at most two endpoint calls: the action
completion plus a one-line summary elicitation.  Credentials come from
the environment and are never written to traces or logs.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from dataclasses import dataclass

import numpy as np
import requests

from .controller import StepTriplet
from .errors import BackendFailure, ConfigurationError, ValidationError
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
        if self.timeout <= 0:
            raise ValidationError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")

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


@dataclass(frozen=True)
class ActionStep:
    instruction: str


@dataclass(frozen=True)
class ActionRetrieve:
    entry_id: int


@dataclass(frozen=True)
class ActionFinal:
    answer: str


@dataclass(frozen=True)
class Malformed:
    text: str


Action = ActionStep | ActionRetrieve | ActionFinal | Malformed


def render_action(action: Action) -> str:
    """Inverse of parse_action on the three well-formed kinds."""
    if isinstance(action, ActionStep):
        return f"STEP:{action.instruction}"
    if isinstance(action, ActionRetrieve):
        return f"RETRIEVE:{action.entry_id}"
    if isinstance(action, ActionFinal):
        return f"FINAL:{action.answer}"
    raise ValidationError(f"cannot render {action!r}")


def parse_action(completion: str) -> Action:
    """First grammar-conformant line wins; anything else is Malformed."""
    for line in completion.splitlines():
        line = line.strip()
        if line.startswith("STEP:"):
            instruction = line[len("STEP:"):].strip()
            if instruction:
                return ActionStep(instruction)
        elif line.startswith("RETRIEVE:"):
            payload = line[len("RETRIEVE:"):].strip()
            try:
                return ActionRetrieve(int(payload))
            except ValueError:
                continue
        elif line.startswith("FINAL:"):
            return ActionFinal(line[len("FINAL:"):].strip())
    return Malformed(completion)


# -- prompt templates --------------------------------------------------------

_DEFAULT_ORCHESTRATOR = """You are one of several orchestrators working the same task in parallel.
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

_DEFAULT_SUMMARY_SUFFIX = (
    "Summarize the outcome of that step in one short line "
    "(it becomes a shared memory key for other teams)."
)

_DEFAULT_AGGREGATOR = """Task: {query}

Candidate answers from parallel teams:
{candidates}

Reply with only the number of the best candidate.
"""


@dataclass
class PromptTemplate:
    orchestrator_system: str = _DEFAULT_ORCHESTRATOR
    summary_suffix: str = _DEFAULT_SUMMARY_SUFFIX
    aggregator_prompt: str = _DEFAULT_AGGREGATOR

    @property
    def version_hash(self) -> str:
        blob = "\x1e".join(
            [self.orchestrator_system, self.summary_suffix, self.aggregator_prompt]
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    def render_orchestrator(
        self,
        query: str,
        history: list[HistoryItem],
        visible_keys: list[tuple[int, str]],
    ) -> str:
        keys = "\n".join(f"{eid}: {summary}" for eid, summary in visible_keys) or "(none yet)"
        hist = "\n".join(f"[{h.kind}] {h.text}" for h in history[-HISTORY_WINDOW:]) or "(empty)"
        return self.orchestrator_system.format(query=query, keys=keys, history=hist)

    def render_aggregator(self, query: str, candidates: list[Candidate]) -> str:
        listing = "\n".join(f"{i + 1}. {c.answer}" for i, c in enumerate(candidates))
        return self.aggregator_prompt.format(query=query, candidates=listing)


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
    immediately; exhausted retries raise BackendFailure.  ``call_log``
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
            return response.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, ValueError) as exc:
            raise BackendFailure(f"malformed endpoint response: {exc}") from exc
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


class LLMBackend:
    """AgentBackend driving every team through one chat endpoint.

    The action completion doubles as the step's raw output; the summary
    comes from a second short call, keeping each step at most two calls.
    Malformed action lines consume a step (the model wasted the turn)
    and are marked so the controller can learn to reject them.
    """

    def __init__(
        self,
        config: EndpointConfig,
        template: PromptTemplate | None = None,
        sleep_fn=time.sleep,
    ):
        self.config = config
        self.template = template or PromptTemplate()
        self.sleep_fn = sleep_fn
        self.call_log: list[dict] = []

    def next_move(
        self,
        team: int,
        query: str,
        history: list[HistoryItem],
        visible_keys: list[tuple[int, str]],
        rng: np.random.Generator,
    ) -> Move:
        prompt = self.template.render_orchestrator(query, history, visible_keys)
        completion = call_chat(
            self.config,
            [{"role": "user", "content": prompt}],
            sleep_fn=self.sleep_fn,
            call_log=self.call_log,
        )
        action = parse_action(completion)
        if isinstance(action, ActionRetrieve):
            return RetrieveMove(action.entry_id)
        if isinstance(action, ActionFinal):
            return FinalMove(action.answer)
        if isinstance(action, Malformed):
            logger.warning("team %d produced a malformed action line", team)
            return StepMove(
                StepTriplet(
                    agent_input="(malformed action)",
                    step_summary="malformed action line",
                    agent_output=completion or "(empty completion)",
                ),
                label="malformed",
            )
        summary_reply = call_chat(
            self.config,
            [
                {"role": "user", "content": prompt},
                {"role": "assistant", "content": completion},
                {"role": "user", "content": self.template.summary_suffix},
            ],
            sleep_fn=self.sleep_fn,
            call_log=self.call_log,
        )
        summary = summary_reply.strip().splitlines()[0] if summary_reply.strip() else ""
        return StepMove(
            StepTriplet(
                agent_input=action.instruction,
                step_summary=summary or "step completed",
                agent_output=completion,
            ),
            label="llm-step",
        )


class LLMAggregator:
    """Selection-prompt aggregator: asks for a candidate index, falls back
    to majority vote when the reply does not parse."""

    def __init__(
        self,
        config: EndpointConfig,
        template: PromptTemplate | None = None,
        sleep_fn=time.sleep,
    ):
        self.config = config
        self.template = template or PromptTemplate()
        self.sleep_fn = sleep_fn
        self.call_log: list[dict] = []

    def aggregate(self, query: str, candidates: list[Candidate]) -> str:
        prompt = self.template.render_aggregator(query, candidates)
        try:
            reply = call_chat(
                self.config,
                [{"role": "user", "content": prompt}],
                sleep_fn=self.sleep_fn,
                call_log=self.call_log,
            )
        except BackendFailure:
            return MajorityAggregator().aggregate(query, candidates)
        digits = "".join(ch for ch in reply if ch.isdigit())
        if digits:
            index = int(digits) - 1
            if 0 <= index < len(candidates):
                return candidates[index].answer
        return MajorityAggregator().aggregate(query, candidates)

