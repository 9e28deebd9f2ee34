"""Parallel team execution over one task.

K team loops run over the same query, communicating only through the
shared memory bank.  Each orchestrator step produces a triplet (agent
input, step summary, agent output); the admission rule gates what enters
the bank; teams may retrieve any visible entry; every team eventually
emits a candidate answer and an aggregator picks the final one.

Two schedulers share one loop body: a deterministic virtual-time
round-robin (teams advance in cost order, ties by team index) used by
tests and simulation, and real threads for live endpoint-backed runs.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Protocol, Union

import numpy as np

from .bank import MemoryBank
from .controller import (
    NO,
    YES,
    AdmissionPolicy,
    Decision,
    StepTriplet,
    build_context,
    embed,
    sample_binary_decision,
)
from .embeddings import EmbeddingProvider
from .errors import EntryNotFoundError, HivememError, ValidationError
from .tracefile import SCHEMA_VERSION, TraceSink

logger = logging.getLogger(__name__)

NO_ANSWER = ""

# Hard bound on total moves per team (any kind), guarding against
# backends that retrieve forever without stepping; the step cap itself
# only counts Step moves.
MOVE_LIMIT_FACTOR = 10


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    query: str
    scorer_id: str = ""
    step_cap: int = 30

    def __post_init__(self) -> None:
        if self.step_cap < 1:
            raise ValidationError("step_cap must be >= 1")
        if not self.query:
            raise ValidationError("query must be non-empty")


@dataclass(frozen=True)
class StepMove:
    triplet: StepTriplet
    cost: float = 1.0
    label: str = "step"


@dataclass(frozen=True)
class RetrieveMove:
    entry_id: int
    cost: float = 1.0


@dataclass(frozen=True)
class FinalMove:
    answer: str
    cost: float = 0.0


Move = Union[StepMove, RetrieveMove, FinalMove]


@dataclass(frozen=True)
class HistoryItem:
    kind: str  # "step" | "memory" | "failed_step"
    text: str


@dataclass(frozen=True)
class Candidate:
    team: int
    answer: str
    finish_time: float


class AgentBackend(Protocol):
    """One object drives all K teams; per-team state is keyed by team index."""

    def next_move(
        self,
        team: int,
        query: str,
        history: list[HistoryItem],
        visible_keys: list[tuple[int, str]],
        rng: np.random.Generator,
    ) -> Move: ...


class Aggregator(Protocol):
    def aggregate(self, query: str, candidates: list[Candidate]) -> str: ...


class AggregationError(HivememError):
    """Aggregation failed; the completed trace rides along for persistence."""

    def __init__(self, message: str, trace: "EpisodeTrace"):
        super().__init__(message)
        self.trace = trace


class MajorityAggregator:
    """Majority vote over normalized candidate strings.

    Ties (including the all-distinct case) go to the earliest finisher
    among the tied values; a unanimous candidate set is returned
    unchanged.
    """

    def aggregate(self, query: str, candidates: list[Candidate]) -> str:
        if not candidates:
            return NO_ANSWER
        counts = Counter(c.answer.strip().casefold() for c in candidates)
        best = max(counts.values())
        tied = {v for v, n in counts.items() if n == best}
        in_tie = [c for c in candidates if c.answer.strip().casefold() in tied]
        winner = min(in_tie, key=lambda c: (c.finish_time, c.team))
        return winner.answer


# -- admission rules ---------------------------------------------------------


class AdmissionRule(Protocol):
    """Decides one step: returns the decision and the memory size it saw."""

    def decide_step(
        self,
        query: str,
        bank: MemoryBank,
        triplet: StepTriplet,
        provider: EmbeddingProvider,
        rng: np.random.Generator,
    ) -> tuple[Decision, int]: ...


class LearnedAdmission:
    """Wraps a trainable policy: build context, evaluate, decide."""

    def __init__(
        self,
        policy: AdmissionPolicy,
        mode: str = "greedy",
        temperature: float = 1.0,
    ):
        self.policy = policy
        self.mode = mode
        self.temperature = temperature

    def decide_step(self, query, bank, triplet, provider, rng):
        context = build_context(query, bank, triplet, provider)
        logits, _ = self.policy.forward(context)
        decision = sample_binary_decision(
            logits[0], self.mode, rng=rng, temperature=self.temperature
        )
        return decision, int(context.memory_sizes[0])


class ConstantAdmission:
    """Admit-everything / admit-nothing reference rules.

    Reports probability 1.0 or 0.0 and log-prob 0.0 (the taken action is
    certain); traces produced under constant rules are never trained on.
    """

    def __init__(self, action: str):
        if action not in (YES, NO):
            raise ValidationError("action must be YES or NO")
        self.action = action
        self._decision = Decision(
            action=action, prob_yes=1.0 if action == YES else 0.0, log_prob_action=0.0
        )

    def decide_step(self, query, bank, triplet, provider, rng):
        return self._decision, len(bank)


class HeuristicAdmission:
    """Admit iff a predicate on the step triplet holds (LLM-judge proxy)."""

    def __init__(self, predicate: Callable[[StepTriplet], bool]):
        self.predicate = predicate
        self._yes = Decision(action=YES, prob_yes=1.0, log_prob_action=0.0)
        self._no = Decision(action=NO, prob_yes=0.0, log_prob_action=0.0)

    def decide_step(self, query, bank, triplet, provider, rng):
        return (self._yes if self.predicate(triplet) else self._no), len(bank)


def as_admission_rule(
    policy,
    decision_mode: str = "greedy",
    decision_temperature: float = 1.0,
) -> AdmissionRule | None:
    """Accepts None, an AdmissionPolicy, or a ready-made rule."""
    if policy is None:
        return None
    if isinstance(policy, AdmissionPolicy):
        return LearnedAdmission(policy, decision_mode, decision_temperature)
    return policy


# -- episode trace -----------------------------------------------------------


@dataclass
class StepRecord:
    team: int
    step_index: int
    triplet: StepTriplet
    label: str
    decision: Decision | None
    entry_id: int | None
    vt_start: float
    vt_end: float
    mem_size_at_decision: int


@dataclass
class EpisodeTrace:
    task_id: str
    k: int
    mode: str
    query: str
    seed: int
    team_steps: list[list[StepRecord]]
    candidates: list[Candidate]
    first_team: int | None
    first_answer: str
    aggregate_answer: str
    events: list[dict]
    end_time: float
    team_status: list[str] = field(default_factory=list)

    def decisions(self) -> list[StepRecord]:
        """All step records carrying a decision, team-major order."""
        return [r for steps in self.team_steps for r in steps if r.decision is not None]

    def step_count(self) -> int:
        return sum(len(steps) for steps in self.team_steps)

    def write(self, path) -> None:
        from .tracefile import write_events

        write_events(path, self.events)


def first_finisher(trace: EpisodeTrace) -> tuple[int | None, str]:
    """Team that finished first (ties to the lowest index) and its answer."""
    if not trace.candidates:
        return None, NO_ANSWER
    best = min(trace.candidates, key=lambda c: (c.finish_time, c.team))
    return best.team, best.answer


# -- episode execution -------------------------------------------------------


class _TeamState:
    def __init__(self, team: int):
        self.team = team
        self.history: list[HistoryItem] = []
        self.steps = 0
        self.moves = 0
        self.clock = 0.0
        self.done = False
        self.status = "running"
        self.candidate: Candidate | None = None
        self.records: list[StepRecord] = []


def _memory_injection(summary: str, value: str) -> str:
    return f"[shared memory result] {summary}: {value}"


def run_episode(
    task: TaskSpec,
    k: int,
    backend: AgentBackend,
    policy,
    provider: EmbeddingProvider,
    aggregator: Aggregator,
    seed: int = 0,
    decision_mode: str = "greedy",
    decision_temperature: float = 1.0,
    mode: str = "deterministic",
) -> EpisodeTrace:
    """Run one parallel episode and return the fully populated trace.

    ``policy=None`` disables the memory system entirely (no decisions, no
    admissions).  In deterministic mode all timing is virtual: move costs
    advance per-team clocks and the interleaving is fixed by the seed,
    so two runs with identical inputs produce identical traces including
    bank sequence numbers.  Controller decisions cost zero virtual time.
    In live mode vt is seconds and the bank's ``t_ns`` nanoseconds since
    one ``perf_counter`` origin.

    A backend failure ends its team with a failure candidate; any other
    error raised while running a team (an unknown move, say) propagates
    in both modes.  Live mode re-raises the first such error once every
    team thread has stopped.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if mode not in ("deterministic", "live"):
        raise ValidationError(f"unknown mode {mode!r}")

    rule = as_admission_rule(policy, decision_mode, decision_temperature)
    sink = TraceSink()
    now_vt = [0.0]  # deterministic-mode clock cell, read by the bank clock

    if mode == "deterministic":
        clock_ns = lambda: int(now_vt[0] * 1_000_000)  # noqa: E731
    else:  # the origin of vt, so bank events and vt share one clock
        t0 = time.perf_counter()
        clock_ns = lambda: int((time.perf_counter() - t0) * 1e9)  # noqa: E731
    bank = MemoryBank(provider.dimension, event_sink=sink, clock_ns=clock_ns)

    sink(
        {
            "kind": "header",
            "schema": SCHEMA_VERSION,
            "task_id": task.task_id,
            "k": k,
            "mode": mode,
            "cap": task.step_cap,
        }
    )

    root = np.random.SeedSequence(seed)
    team_seeds, decision_seeds = root.spawn(2)
    team_rngs = [np.random.default_rng(s) for s in team_seeds.spawn(k)]
    decision_rngs = [np.random.default_rng(s) for s in decision_seeds.spawn(k)]
    states = [_TeamState(i + 1) for i in range(k)]
    move_limit = task.step_cap * MOVE_LIMIT_FACTOR

    def advance(state: _TeamState, now: float) -> float:
        """Execute one move for a team at time ``now``; returns its cost."""
        team = state.team
        state.moves += 1
        if state.moves > move_limit:
            state.done = True
            state.status = "move_limit"
            logger.warning("team %d exceeded the move limit; stopping without a candidate", team)
            return 0.0
        visible = bank.list_keys()
        try:
            move = backend.next_move(team, task.query, state.history, visible, team_rngs[team - 1])
        except Exception:
            logger.exception("backend failure on team %d; recording failure candidate", team)
            state.candidate = Candidate(team, NO_ANSWER, now)
            state.done = True
            state.status = "failed"
            return 0.0

        if isinstance(move, StepMove):
            if state.steps >= task.step_cap:
                state.done = True
                state.status = "cap_exhausted"
                return 0.0
            state.steps += 1
            decision = None
            entry_id = None
            mem_size = len(visible)
            if rule is not None:
                decision, mem_size = rule.decide_step(
                    task.query, bank, move.triplet, provider, decision_rngs[team - 1]
                )
                sink(
                    {
                        "kind": "decision",
                        "team": team,
                        "step": state.steps,
                        "action": decision.action,
                        "prob_yes": decision.prob_yes,
                        "log_prob": decision.log_prob_action,
                        "fail_closed": decision.fail_closed,
                    }
                )
                if decision.action == YES:
                    # training rebuilds the bank's keys this same way
                    entry_id = bank.admit(
                        move.triplet.step_summary,
                        move.triplet.agent_output,
                        embed(provider, move.triplet.step_summary),
                        source_team=team,
                        source_step=state.steps,
                    )
            sink(
                {
                    "kind": "step",
                    "team": team,
                    "step": state.steps,
                    "label": move.label,
                    "vt_start": now,
                    "vt_end": now + move.cost,
                }
            )
            state.records.append(
                StepRecord(
                    team=team,
                    step_index=state.steps,
                    triplet=move.triplet,
                    label=move.label,
                    decision=decision,
                    entry_id=entry_id,
                    vt_start=now,
                    vt_end=now + move.cost,
                    mem_size_at_decision=mem_size,
                )
            )
            state.history.append(HistoryItem("step", move.triplet.agent_output))
            return move.cost

        if isinstance(move, RetrieveMove):
            try:
                value = bank.retrieve(move.entry_id, team, state.steps)
                summary = bank.get_entry(move.entry_id).summary
                state.history.append(HistoryItem("memory", _memory_injection(summary, value)))
            except EntryNotFoundError:
                state.history.append(
                    HistoryItem("failed_step", f"retrieval of entry {move.entry_id} failed")
                )
                sink(
                    {
                        "kind": "failed_retrieve",
                        "team": team,
                        "entry_id": move.entry_id,
                        "vt": now,
                    }
                )
            return move.cost

        if isinstance(move, FinalMove):
            state.candidate = Candidate(team, move.answer, now + move.cost)
            state.done = True
            state.status = "final"
            sink(
                {
                    "kind": "final",
                    "team": team,
                    "step": state.steps,
                    "answer": move.answer,
                    "vt": now + move.cost,
                }
            )
            return move.cost

        raise ValidationError(f"backend returned unknown move {move!r}")

    if mode == "deterministic":
        while True:
            pending = [s for s in states if not s.done]
            if not pending:
                break
            state = min(pending, key=lambda s: (s.clock, s.team))
            now_vt[0] = state.clock
            cost = advance(state, state.clock)
            state.clock += cost
        end_time = max(s.clock for s in states)
    else:
        errors: list[Exception] = []

        def team_loop(state: _TeamState) -> None:
            try:
                while not state.done:
                    now = time.perf_counter() - t0
                    advance(state, now)
                    state.clock = time.perf_counter() - t0
            except Exception as exc:  # re-raised once every team has stopped
                errors.append(exc)

        threads = [threading.Thread(target=team_loop, args=(s,)) for s in states]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        end_time = time.perf_counter() - t0

    candidates = [s.candidate for s in states if s.candidate is not None]
    trace = EpisodeTrace(
        task_id=task.task_id,
        k=k,
        mode=mode,
        query=task.query,
        seed=seed,
        team_steps=[s.records for s in states],
        candidates=candidates,
        first_team=None,
        first_answer=NO_ANSWER,
        aggregate_answer=NO_ANSWER,
        events=[],
        end_time=end_time,
        team_status=[s.status for s in states],
    )
    trace.first_team, trace.first_answer = first_finisher(trace)

    agg_error: Exception | None = None
    if candidates:
        try:
            trace.aggregate_answer = aggregator.aggregate(task.query, candidates)
        except Exception as exc:  # surfaced after the trace is finalized
            agg_error = exc
            logger.exception("aggregation failed for task %s", task.task_id)
    sink(
        {
            "kind": "aggregate",
            "answer": trace.aggregate_answer,
            "first_team": trace.first_team,
            "first_answer": trace.first_answer,
            "vt": end_time,
        }
    )
    trace.events = sink.events
    if agg_error is not None:
        raise AggregationError(str(agg_error), trace) from agg_error
    return trace
