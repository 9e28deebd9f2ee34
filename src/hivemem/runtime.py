"""Parallel team execution over one task.

K team loops run over the same query, communicating only through the
shared memory bank.  Each orchestrator step produces a triplet (agent
input, step summary, agent output); the admission rule gates what enters
the bank; teams may retrieve any visible entry; every team eventually
emits a candidate answer and an aggregator picks the final one.

Two schedulers share one loop body: a deterministic virtual-time
scheduler used by tests and simulation, which keeps the teams in a heap
and always moves the team with the lowest clock (ties to the lowest team
index), and real threads for live endpoint-backed runs.
"""

from __future__ import annotations

import functools
import heapq
import logging
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Protocol, Union

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .bank import MemoryBank
from .controller import (
    DECISION_MODES,
    NO,
    YES,
    AdmissionPolicy,
    Decision,
    StepTriplet,
    build_context,
    sample_binary_decision,
)
from .embeddings import EmbeddingProvider
from .errors import (
    EntryNotFoundError, HivememError, SchemaError, ValidationError, require_int, require_real,
)
from .tracefile import SCHEMA_VERSION, write_events

logger = logging.getLogger(__name__)

NO_ANSWER = ""

# Hard bound on total moves per team (any kind), guarding against
# backends that retrieve forever without stepping; the step cap itself
# only counts Step moves.
MOVE_LIMIT_FACTOR = 10


class EpisodeTask(Protocol):
    """What ``run_episode`` reads of a task: a ``TaskSpec`` or a ``sim.SimTask``."""

    task_id: str
    query: str
    step_cap: int


@dataclass(frozen=True)
class TaskSpec:
    """A task given by its query alone, as a live endpoint-backed run takes
    it; ``step_cap`` is an integer >= 1, kept as a plain int."""

    task_id: str
    query: str
    step_cap: int = 30

    def __post_init__(self) -> None:
        object.__setattr__(self, "step_cap", require_int("step_cap", self.step_cap, 1))
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
    ) -> tuple[Decision, int]:
        """``run_episode`` passes the team's decision generator as ``rng``: a
        stand-in that builds the ``np.random.Generator`` on first use and
        forwards every attribute to it, so a rule that never draws costs no
        generator."""


# Most logits rows one LearnedAdmission remembers (about 0.8 KB each at
# d_e=64), and most projected source rows; entries past the cap are
# computed but not stored.
DECISION_MEMO_LIMIT = 50_000


class LearnedAdmission:
    """Wraps a trainable policy: snapshot the bank, evaluate, decide.

    The rule remembers the logits row of every decision input it has
    evaluated: the query, the step triplet's three strings, the memory
    size and the bank's key sum bytes, for one provider, as one flat tuple
    whose hash reuses the strings' cached hashes.  A repeated input (the
    same task step under another episode seed, say) skips ``build_context``
    and the forward pass.  Every decision is still one
    ``sample_binary_decision`` call on the row, which in greedy mode
    returns a Decision shared through the controller's bounded cache and
    in sampled mode draws anew, so rng draws, ``fail_closed`` and the
    trace are as without the memo.

    A new input still runs ``build_context`` and ``policy.forward``, but
    its three source projections come from a second memo, keyed by the
    query, by the triplet's strings and by (memory size, key sum bytes):
    the tasks of one family share a query, and steps and bank states recur
    across them.  The rule hands the rows to ``forward`` as the context's
    ``projected`` rows, each what ``policy.project`` gave when first met,
    so the logits are the same bit for bit; an empty memory's row is the
    +0.0 row ``forward`` masks it to.

    Both memos live as long as the rule, so the policy's parameters must
    not change while a rule is in use.  ``run_variant`` given an
    ``AdmissionPolicy`` builds one greedy rule per call, and training one
    sampled rule per rollout group, before the group's updates.  A call
    with another provider empties both memos.  Live mode's team threads
    share them: a race can only recompute a row, never pair an input with
    another input's row.
    """

    def __init__(
        self,
        policy: AdmissionPolicy,
        mode: str = "greedy",
        temperature: float = 1.0,
    ):
        if mode not in DECISION_MODES:
            raise ValidationError(f"unknown decision mode {mode!r}")
        self.policy = policy
        self.mode = mode
        self.temperature = require_real("temperature", temperature, 0, above=True)
        self._provider: EmbeddingProvider | None = None
        self._logits: dict[tuple, np.ndarray] = {}
        self._rows: dict[str | tuple, np.ndarray] = {}

    def decide_step(self, query, bank, triplet, provider, rng):
        snapshot = bank.context_snapshot()
        size = len(snapshot[0])
        if provider is not self._provider:
            self._provider = provider
            self._logits.clear()
            self._rows.clear()
        key = (query, triplet.agent_input, triplet.step_summary, triplet.agent_output, size,
               snapshot[1].tobytes())
        logits = self._logits.get(key)
        if logits is None:
            context = build_context(query, bank, triplet, provider, snapshot)
            memory = (self._row(key[4:], "memory", context.memory_means) if size
                      else np.zeros(self.policy.controller_dim))
            context.projected = np.concatenate([
                self._row(query, "query", context.queries),
                memory,
                self._row(key[1:4], "step", context.step_means),
            ])[None]
            logits = self.policy.forward(context)[0][0]
            if len(self._logits) < DECISION_MEMO_LIMIT:
                self._logits[key] = logits
        decision = sample_binary_decision(logits, self.mode, rng=rng, temperature=self.temperature)
        return decision, size

    def _row(self, key, source: str, rows: np.ndarray) -> np.ndarray:
        """The projected row of ``source`` for ``key``, from the memo or ``rows``."""
        row = self._rows.get(key)
        if row is None:
            row = self.policy.project(source, rows)[0]
            if len(self._rows) < DECISION_MEMO_LIMIT:
                self._rows[key] = row
        return row


class HeuristicAdmission:
    """Admit iff a predicate on the step triplet holds: the one fixed rule.

    ``lambda t: True`` admits everything and ``lambda t: False`` nothing;
    a predicate on the triplet stands in for an LLM judge.  Reports
    probability 1.0 or 0.0 and log-prob 0.0 (the taken action is certain);
    traces produced under fixed rules are never trained on.
    """

    def __init__(self, predicate: Callable[[StepTriplet], bool]):
        self.predicate = predicate
        self._yes = Decision(action=YES, prob_yes=1.0, log_prob_action=0.0)
        self._no = Decision(action=NO, prob_yes=0.0, log_prob_action=0.0)

    def decide_step(self, query, bank, triplet, provider, rng):
        return (self._yes if self.predicate(triplet) else self._no), len(bank)


# -- episode trace -----------------------------------------------------------


@dataclass
class EpisodeTrace:
    """One episode, read from its events; ``from_events`` builds every trace.

    ``candidates`` and ``team_status`` follow team order, from the
    ``team_end`` events; the answers and ``end_time`` come from the
    ``aggregate`` event.  The task, k, mode, query and seed are the
    header's, ``events[0]``.
    """

    candidates: list[Candidate]
    team_status: list[str]
    first_team: int | None
    first_answer: str
    aggregate_answer: str
    end_time: float
    events: list[dict]

    @classmethod
    def from_events(cls, events: list[dict]) -> "EpisodeTrace":
        """The trace of one episode's events: a header first, then one
        ``team_end`` per team and an ``aggregate`` among the rest."""
        ends, aggregate = [], []
        for e in events:
            kind = e["kind"]
            if kind == "team_end":
                ends.append(e)
            elif kind == "aggregate":
                aggregate.append(e)
        if not events or events[0]["kind"] != "header" or len(aggregate) != 1:
            raise SchemaError("an episode is a header first and exactly one aggregate event")
        agg = aggregate[0]
        ends.sort(key=_team)
        return cls(
            candidates=_candidates(ends),
            team_status=[e["status"] for e in ends],
            first_team=agg["first_team"],
            first_answer=agg["first_answer"],
            aggregate_answer=agg["answer"],
            end_time=agg["vt"],
            events=events,
        )

    def write(self, path) -> None:
        write_events(path, self.events)


def decision_events(events: list[dict]) -> list[dict]:
    """An episode's ``decision`` events, team-major, each team's in step order."""
    return sorted((e for e in events if e["kind"] == "decision"), key=_team)


def _team(event: dict) -> int:
    return event["team"]


def _candidates(team_ends: list[dict]) -> list[Candidate]:
    """The answers of the teams that left one."""
    ends = [e for e in team_ends if e["answer"] is not None]
    return [Candidate(e["team"], e["answer"], e["vt"]) for e in ends]


def first_finisher(candidates: list[Candidate]) -> tuple[int | None, str]:
    """Team that finished first (ties to the lowest index) and its answer."""
    if not candidates:
        return None, NO_ANSWER
    best = min(candidates, key=lambda c: (c.finish_time, c.team))
    return best.team, best.answer


# -- episode execution -------------------------------------------------------


# Most (seed, spawn key) pairs whose seed words are kept, about 0.4 KB each.
SEED_WORDS_LIMIT = 1024


@functools.lru_cache(maxsize=SEED_WORDS_LIMIT)
def _seed_words(seed: int, spawn_key: tuple[int, ...]) -> np.ndarray:
    """The four uint64 words ``PCG64`` seeds itself with from
    ``SeedSequence(seed, spawn_key=spawn_key)``, read-only."""
    words = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(4, np.uint64)
    words.flags.writeable = False
    return words


class _SeedWords(ISpawnableSeedSequence):
    """``SeedSequence(seed, spawn_key=spawn_key)`` as ``default_rng`` sees it:
    ``PCG64``'s state words come from ``_seed_words``, and anything else,
    ``spawn`` included, from a real ``SeedSequence`` built on first use."""

    def __init__(self, seed: int, spawn_key: tuple[int, ...]):
        self._seed = seed
        self._spawn_key = spawn_key
        self._sequence: np.random.SeedSequence | None = None

    def _real(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(self._seed, spawn_key=self._spawn_key)
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return _seed_words(self._seed, self._spawn_key)
        return self._real().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._real().spawn(n_children)


def _generator(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    """``default_rng(SeedSequence(seed, spawn_key=spawn_key))``, same stream."""
    return np.random.default_rng(_SeedWords(seed, spawn_key))


class _LazyGenerator:
    """The generator ``_generator(seed, spawn_key)``, built on its first
    draw: greedy and fixed rules never draw, so their episodes never pay
    for it.  Any attribute is the generator's."""

    def __init__(self, seed: int, spawn_key: tuple[int, ...]):
        self._seed = seed
        self._spawn_key = spawn_key
        self._rng: np.random.Generator | None = None

    def __getattr__(self, name: str):
        if self._rng is None:
            self._rng = _generator(self._seed, self._spawn_key)
        return getattr(self._rng, name)


class _TeamState:
    def __init__(self, team: int):
        self.team = team
        self.history: list[HistoryItem] = []
        self.steps = 0
        self.moves = 0
        self.clock = 0.0
        self.done = False


def run_episode(
    task: EpisodeTask,
    k: int,
    backend: AgentBackend,
    rule: AdmissionRule | None,
    provider: EmbeddingProvider,
    aggregator: Aggregator,
    seed: int = 0,
    mode: str = "deterministic",
) -> EpisodeTrace:
    """Run one parallel episode; returns ``EpisodeTrace.from_events`` of its events.

    The events are the only record the run keeps (see ``tracefile``).
    ``task`` is read for its ``task_id``, ``query`` and ``step_cap`` alone:
    a ``TaskSpec`` for a live run, the ``SimTask`` itself for the sim.

    ``rule`` decides every step (see ``AdmissionRule``); a
    ``LearnedAdmission`` keeps its memo across the episodes it is given.
    None disables the memory system entirely (no decisions, no
    admissions).  Anything else, a bare ``AdmissionPolicy`` say, is a
    ``ValidationError`` before the first move.

    Team j (from 0) draws from the generator of
    ``SeedSequence(seed, spawn_key=(0, j))`` and its decisions from that of
    ``spawn_key=(1, j)``, the streams ``SeedSequence(seed).spawn(2)`` and
    then ``spawn(k)`` on each child give; a decision generator is built on
    its first draw (see ``AdmissionRule``), so an episode under a greedy or
    fixed rule builds k generators, not 2k.  The streams are exactly
    these, but the four seed words a generator starts from are derived once
    per (seed, spawn key) and kept (up to ``SEED_WORDS_LIMIT`` pairs), so
    the episodes of one seed on many tasks derive them once.  ``k`` and
    the task's ``step_cap`` must be integers >= 1 and ``seed`` one >= 0,
    numpy's included but no bool (``errors.require_int``); anything else
    is a ``ValidationError`` before the first move.  The header and the
    run use the plain ints the check returns.

    In deterministic mode all timing is virtual: move costs advance
    per-team clocks and the interleaving is fixed by the seed, so two
    runs with identical inputs produce identical traces including bank
    sequence numbers.  Controller decisions cost zero virtual time.  An
    admitted entry is visible from the start of the move that admits it,
    not from its end: a team whose clock lies inside that move already
    sees it.  Moving it to the end would change every pinned trace.
    In live mode vt is seconds and the bank's ``t_ns`` nanoseconds since
    one ``perf_counter`` origin, and a move is stamped when the backend's
    reply arrives.

    Errors have one contract in both modes.  A backend failure (an
    ``Exception`` from ``next_move``) ends its team with a failure
    candidate.  Anything else raised while running a team (an unknown
    move, a ``SystemExit`` from the backend) stops the episode: no team
    starts another move, and the error propagates with no trace.  Live
    mode lets each other team finish its move in flight, then re-raises
    the first error once every team thread has stopped.
    """
    k = require_int("k", k, 1)
    if mode not in ("deterministic", "live"):
        raise ValidationError(f"unknown mode {mode!r}")
    if rule is not None and not callable(getattr(rule, "decide_step", None)):
        raise ValidationError(f"rule must be an admission rule or None, not {type(rule).__name__}")
    seed = require_int("seed", seed, 0)
    step_cap = require_int("step_cap", task.step_cap, 1)

    events: list[dict] = []  # list.append is atomic: live teams and the bank share it
    sink = events.append
    live = mode == "live"
    now_vt = [0.0]  # deterministic-mode clock cell, read by the bank clock

    if live:  # the origin of vt, so bank events and vt share one clock
        t0 = time.perf_counter()
        elapsed = lambda: time.perf_counter() - t0  # noqa: E731
        clock_ns = lambda: int(elapsed() * 1e9)  # noqa: E731
    else:
        clock_ns = lambda: int(now_vt[0] * 1_000_000)  # noqa: E731
    bank = MemoryBank(provider.dimension, event_sink=sink, clock_ns=clock_ns)

    sink({"kind": "header", "schema": SCHEMA_VERSION, "task_id": task.task_id, "k": k,
          "mode": mode, "cap": step_cap, "query": task.query, "seed": seed})

    team_rngs = [_generator(seed, (0, j)) for j in range(k)]
    decision_rngs = [_LazyGenerator(seed, (1, j)) for j in range(k)]
    states = [_TeamState(i + 1) for i in range(k)]
    move_limit = step_cap * MOVE_LIMIT_FACTOR
    team_ends: list[dict] = []

    def end_team(state: _TeamState, status: str, answer: str | None, vt: float) -> float:
        """Stop a team at ``vt`` and return it; ``answer`` None leaves no candidate."""
        state.done = True
        end = {"kind": "team_end", "team": state.team, "step": state.steps, "status": status,
               "answer": answer, "vt": vt}
        sink(end)
        team_ends.append(end)
        return vt

    def advance(state: _TeamState, now: float) -> float:
        """Execute one move for a team at time ``now``; returns when it ends.

        A virtual move ends ``cost`` after ``now``; a live one when the
        backend's reply arrives.
        """
        team = state.team
        state.moves += 1
        if state.moves > move_limit:
            logger.warning("team %d exceeded the move limit; stopping without a candidate", team)
            return end_team(state, "move_limit", None, now)
        visible = bank.list_keys()
        try:
            move = backend.next_move(team, task.query, state.history, visible, team_rngs[team - 1])
        except Exception:
            logger.exception("backend failure on team %d; recording failure candidate", team)
            return end_team(state, "failed", NO_ANSWER, elapsed() if live else now)
        if not isinstance(move, (StepMove, RetrieveMove, FinalMove)):
            raise ValidationError(f"backend returned unknown move {move!r}")
        end = elapsed() if live else now + move.cost

        if isinstance(move, StepMove):
            if state.steps >= step_cap:  # not taken, so it costs nothing
                return end_team(state, "cap_exhausted", None, end if live else now)
            state.steps += 1
            triplet = move.triplet
            if rule is not None:
                decision, mem_size = rule.decide_step(
                    task.query, bank, triplet, provider, decision_rngs[team - 1]
                )
                sink({"kind": "decision", "team": team, "step": state.steps,
                      "action": decision.action, "prob_yes": decision.prob_yes,
                      "log_prob": decision.log_prob_action,
                      "fail_closed": decision.fail_closed, "mem_size": mem_size})
                if decision.action == YES:
                    # training rebuilds the bank's keys this same way
                    bank.admit(
                        triplet.step_summary,
                        triplet.agent_output,
                        provider.embed(triplet.step_summary),
                        source_team=team,
                        source_step=state.steps,
                    )
            sink({"kind": "step", "team": team, "step": state.steps, "label": move.label,
                  "vt_start": now, "vt_end": end, "agent_input": triplet.agent_input,
                  "step_summary": triplet.step_summary, "agent_output": triplet.agent_output})
            state.history.append(HistoryItem("step", triplet.agent_output))
            return end

        if isinstance(move, RetrieveMove):
            try:
                summary, output = bank.retrieve(move.entry_id, team, state.steps)
                text = f"[shared memory result] {summary}: {output}"
                state.history.append(HistoryItem("memory", text))
            except EntryNotFoundError:
                state.history.append(
                    HistoryItem("failed_step", f"retrieval of entry {move.entry_id} failed")
                )
                sink({"kind": "failed_retrieve", "team": team, "entry_id": move.entry_id,
                      "vt": end})
            return end

        return end_team(state, "final", move.answer, end)

    if live:
        errors: list[BaseException] = []

        def team_loop(state: _TeamState) -> None:
            try:
                while not state.done and not errors:  # one error stops every team
                    advance(state, elapsed())
            except BaseException as exc:  # re-raised once every team has stopped
                errors.append(exc)

        threads = [threading.Thread(target=team_loop, args=(s,)) for s in states]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        end_time = elapsed()
    else:
        heap = [(s.clock, s.team, s) for s in states]  # already in heap order
        while heap:
            clock, team, state = heap[0]
            now_vt[0] = clock
            state.clock = advance(state, clock)
            if state.done:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (state.clock, team, state))
        end_time = max(s.clock for s in states)

    candidates = _candidates(sorted(team_ends, key=_team))
    first_team, first_answer = first_finisher(candidates)
    answer = NO_ANSWER
    agg_error: Exception | None = None
    if candidates:
        try:
            answer = aggregator.aggregate(task.query, candidates)
        except Exception as exc:  # surfaced after the trace is finalized
            agg_error = exc
            logger.exception("aggregation failed for task %s", task.task_id)
    sink({"kind": "aggregate", "answer": answer, "first_team": first_team,
          "first_answer": first_answer, "vt": end_time})
    trace = EpisodeTrace.from_events(events)
    if agg_error is not None:
        raise AggregationError(str(agg_error), trace) from agg_error
    return trace
