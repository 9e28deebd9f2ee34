"""Deterministic desk-scale task environment.

A task is fixed by its parameters, a ``SimTask``'s fields: seed, shape
and economics.  It is a derivation graph: shared subtask chains whose
values every team needs (and can reuse through the bank), per-team
private chains that pad each team's schedule, and distractor lures whose
summaries mimic real shared keys but whose outputs are junk.  Costs are
fixed in virtual time units, so redundancy-reduction claims are exactly
checkable: solving costs ``solve_cost``, retrieving ``retrieve_cost``,
and consuming a lure inflates the victim's later steps.

The scripted backend solves its assigned chains first, then private
work, then reuses (or re-derives) the remaining shared subtasks; it is
deterministic given the per-team generator the runtime hands it.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .controller import AdmissionPolicy, StepTriplet
from .errors import ValidationError, require_int, require_real
from .metrics import RunMetrics, metrics_from_event_streams
from .runtime import (
    AdmissionRule,
    EpisodeTrace,
    FinalMove,
    HeuristicAdmission,
    HistoryItem,
    LearnedAdmission,
    MajorityAggregator,
    Move,
    RetrieveMove,
    StepMove,
    decision_events,
    run_episode,
)

CANONICAL_PREFIX = "result for subtask "

_DERIVED_RE = re.compile(r"derived value ([0-9a-f]+) for subtask (\S+)")


def canonical_key(node: str) -> str:
    """The summary text under which a shared subtask result is published."""
    return CANONICAL_PREFIX + node


def _digest(*parts) -> str:
    text = ":".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:6]


class SimScorer:
    """Weighted fraction of correct ``field=value`` pairs, in [0, 1]."""

    def __init__(self, answer_key: dict[str, str]):
        if not answer_key:
            raise ValidationError("answer key must have at least one field")
        self.answer_key = dict(answer_key)

    def score(self, answer: str) -> float:
        got: dict[str, str] = {}
        for part in answer.split(";"):
            if "=" in part:
                k, v = part.split("=", 1)
                got[k.strip()] = v.strip()
        correct = sum(1 for k, v in self.answer_key.items() if got.get(k) == v)
        return correct / len(self.answer_key)


@dataclass(frozen=True)
class SimTask:
    """A sim task, fixed by its parameters: seed, shape and economics.

    The fields are those parameters (a tasks block's ``family`` holds all
    but ``seed``).  ``__post_init__`` is their one check: each ``int``
    field passes ``require_int`` and each ``float`` field ``require_real``
    (never a bool; ``depth``, ``width`` and ``step_cap`` at least 1, the
    rest at least 0), which keeps the plain value, then the few upper
    bounds.  It then derives the rest once: ``task_id`` and
    ``query``, which ``run_episode`` reads with ``step_cap`` (an episode
    runs the task itself); ``shared_chains`` lays shared subtasks ``s0, s1,
    ...`` out in chains of length ``depth`` (the last may be shorter),
    ``values`` gives each a seeded value and ``corrupt_values`` the value a
    polluted team derives instead, ``answer_key`` asks for all
    (``status=ok`` without any) and ``distractor_targets`` holds each
    lure's seeded shared subtask.

    ``derived`` starts empty and holds what episodes of the task derive
    from it, each built once, on first use (see ``derive``), and shared by
    every episode and team that needs it: each team's plan layout for a
    team count k (its own and foreign shared nodes, its private nodes and
    its lures), and the step moves ``ScriptedBackend`` takes.  All are
    immutable, and the task bounds their number: a move per node, team,
    lure, recovery round and step cost (a cost per pollution level), a
    layout per team and k.  None of it, nor ``task_id`` or ``query``, is a
    field, so none is in ``dataclasses.asdict``, equality or the hash.
    ``scorer()`` builds a fresh ``SimScorer``; a score costs microseconds.
    """

    seed: int
    depth: int
    width: int
    overlap_count: int
    distractor_count: int = 0
    step_cap: int = 30
    p_fail: float = 0.15
    solve_cost: float = 10.0
    retrieve_cost: float = 1.0
    pollution_step_surcharge: float = 5.0
    pollution_recovery_steps: int = 1
    pollution_fail_boost: float = 0.2
    pollution_corrupt_rate: float = 0.35

    def __post_init__(self) -> None:
        for field in fields(self):
            require = require_int if field.type == "int" else require_real
            least = 1 if field.name in ("depth", "width", "step_cap") else 0
            self.__dict__[field.name] = require(field.name, getattr(self, field.name), least)
        if self.distractor_count > 0 and self.overlap_count == 0:
            raise ValidationError("distractors need at least one shared subtask to mimic")
        if self.p_fail >= 1.0:
            raise ValidationError("p_fail must be in [0, 1)")
        if self.pollution_corrupt_rate > 1.0:
            raise ValidationError("pollution_corrupt_rate must be <= 1")

        shared = [f"s{i}" for i in range(self.overlap_count)]
        values = {node: _digest(self.seed, node) for node in shared}
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xD15C]))
        targets = [shared[int(rng.integers(len(shared)))] for _ in range(self.distractor_count)]
        shape = f"d{self.depth}w{self.width}o{self.overlap_count}x{self.distractor_count}"
        self.__dict__.update(  # set once, here: the task is frozen
            task_id=f"sim-{self.seed}-{shape}",
            query=(f"determine values of shared subtasks {' '.join(shared)}" if shared
                   else "complete the local calibration work"),
            shared_chains=[shared[i : i + self.depth] for i in range(0, len(shared), self.depth)],
            values=values,
            corrupt_values={node: _digest(self.seed, node, "corrupt") for node in shared},
            answer_key=dict(values) if shared else {"status": "ok"},
            distractor_targets=targets,
            derived={},
        )

    def derive(self, build: Callable, *args):
        """``build(self, *args)``, built on first use and kept in ``derived``.

        Live team threads may race to build one; they build equal values."""
        key = (build, *args)
        value = self.derived.get(key)
        if value is None:
            value = self.derived[key] = build(self, *args)
        return value

    def scorer(self) -> SimScorer:
        return SimScorer(self.answer_key)

    def private_nodes(self, team: int) -> list[str]:
        return [
            f"t{team}p{c}n{l}" for c in range(self.width) for l in range(self.depth)
        ]

    def render_answer(self, known_shared: dict[str, str]) -> str:
        if not self.values:
            return "status=ok"
        return ";".join(f"{n}={known_shared[n]}" for n in sorted(known_shared))


generate_task = SimTask


def _plan_layout(task: SimTask, team: int, k: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Team ``team``'s own and foreign shared nodes among ``k`` teams (it
    owns every k-th chain), its private nodes and its lure indices."""
    owned, foreign = [], []
    for c, chain in enumerate(task.shared_chains):
        (owned if c % k == team - 1 else foreign).extend(chain)
    lures = tuple(i for i in range(task.distractor_count) if i % k == team - 1)
    return tuple(owned), tuple(foreign), tuple(task.private_nodes(team)), lures


# Step-move builders: each is a function of the task and the arguments its
# texts depend on, plus the step's cost.  ``ScriptedBackend`` takes each
# through ``task.derive``, so it is built once per task and arguments.


def _retry_move(task: SimTask, node: str, cost: float) -> StepMove:
    return StepMove(
        StepTriplet(
            agent_input=f"derive subtask {node} from prerequisites",
            step_summary=f"attempt at subtask {node} failed",
            agent_output=f"error while deriving subtask {node} retrying",
        ),
        cost=cost,
        label=f"retry:{node}",
    )


def _private_move(task: SimTask, team: int, node: str, cost: float) -> StepMove:
    value = _digest(task.seed, team, node)
    return StepMove(
        StepTriplet(
            agent_input=f"calibrate local parameter {node}",
            step_summary=f"local calibration {node} for team {team}",
            agent_output=f"calibrated local parameter {value} for team {team}",
        ),
        cost=cost,
        label=f"private:{node}",
    )


def _solve_move(task: SimTask, node: str, value: str, cost: float) -> StepMove:
    return StepMove(
        StepTriplet(
            agent_input=f"derive subtask {node} from prerequisites",
            step_summary=canonical_key(node),
            agent_output=f"derived value {value} for subtask {node} confirmed stable",
        ),
        cost=cost,
        label=f"solve:{node}",
    )


def _lure_move(task: SimTask, lure_index: int, cost: float) -> StepMove:
    target = task.distractor_targets[lure_index]
    nonce = _digest(task.seed, "lure", lure_index)
    return StepMove(
        StepTriplet(
            agent_input=f"investigate shortcut for subtask {target}",
            step_summary=canonical_key(target),
            agent_output=(
                f"exploratory probe {nonce} around subtask {target} inconclusive unverified"
            ),
        ),
        cost=cost,
        label=f"lure:{target}",
    )


def _recovery_move(task: SimTask, team: int, round_: int, cost: float) -> StepMove:
    return StepMove(
        StepTriplet(
            agent_input="re-verify working context",
            step_summary=f"context cleanup round {round_} for team {team}",
            agent_output="discarded misleading shared result rebuilding context",
        ),
        cost=cost,
        label="recovery",
    )


class _TeamPlan:
    def __init__(self, task: SimTask, team: int, k: int):
        self.team = team
        self.own_nodes, self.foreign_nodes, self.private_nodes, lures = task.derive(
            _plan_layout, team, k
        )
        self.own_idx = 0
        self.priv_idx = 0
        self.lures: list[int] = list(lures)
        self.lure_slot_open = True
        self.known_shared: dict[str, str] = {}
        self.consumed_ids: set[int] = set()
        self.own_junk: set[str] = set()
        self.pollution = 0
        self.fail_p = task.p_fail
        self.recovery_pending = 0
        self.recovery_count = 0
        self.steps = 0
        self.cursor = 0


class ScriptedBackend:
    """Deterministic per-team solver with a memory-reuse rule.

    Reuse rule: when the next needed shared subtask has a visible key
    matching its canonical summary, retrieve it instead of solving.
    Junk outputs (another team's lure) pollute the consumer: recovery
    steps, a per-step virtual-time surcharge, a higher retry rate, and a
    chance that its later solves silently yield corrupted values (which
    read like real results and spread through the bank).  A team
    recognizes its own lure output and is immune to it.

    Step moves and plan layouts come from the task's ``derived``: each
    distinct step is built once per task and the same immutable
    ``StepMove`` is returned to every episode and team that takes it.
    Only the team plans' progress and the draws from the team's generator
    differ between episodes.
    """

    def __init__(self, task: SimTask, k: int):
        self.task = task
        self.k = k
        self._plans: dict[int, _TeamPlan] = {}

    def plan(self, team: int) -> _TeamPlan:
        if team not in self._plans:
            self._plans[team] = _TeamPlan(self.task, team, self.k)
        return self._plans[team]

    # -- helpers -------------------------------------------------------------

    def _absorb_history(self, st: _TeamPlan, history: list[HistoryItem]) -> None:
        task = self.task
        while st.cursor < len(history):
            item = history[st.cursor]
            st.cursor += 1
            if item.kind != "memory":
                continue
            _, _, value = item.text.partition(": ")
            if value in st.own_junk:
                continue
            match = _DERIVED_RE.search(value)
            if match and match.group(2) in task.values:
                st.known_shared[match.group(2)] = match.group(1)
            else:
                st.pollution += 1
                st.fail_p = min(0.85, st.fail_p + task.pollution_fail_boost)
                st.recovery_pending += task.pollution_recovery_steps

    def _step_cost(self, st: _TeamPlan) -> float:
        return self.task.solve_cost + st.pollution * self.task.pollution_step_surcharge

    def _final(self, st: _TeamPlan) -> FinalMove:
        return FinalMove(self.task.render_answer(st.known_shared))

    def _budget_left(self, st: _TeamPlan) -> bool:
        return st.steps < self.task.step_cap - 1

    def _solve_attempt(
        self, st: _TeamPlan, node: str, kind: str, rng: np.random.Generator
    ) -> Move:
        task = self.task
        st.steps += 1
        cost = self._step_cost(st)
        if rng.random() < st.fail_p:
            return task.derive(_retry_move, node, cost)
        if kind == "private":
            st.priv_idx += 1
            return task.derive(_private_move, st.team, node, cost)
        value = task.values[node]
        if st.pollution > 0:
            corrupt_p = min(0.8, st.pollution * task.pollution_corrupt_rate)
            if rng.random() < corrupt_p:
                value = task.corrupt_values[node]
        st.known_shared[node] = value
        if kind == "own":
            st.own_idx += 1
        return task.derive(_solve_move, node, value, cost)

    def _emit_lure(self, st: _TeamPlan) -> Move:
        move = self.task.derive(_lure_move, st.lures.pop(0), self._step_cost(st))
        st.own_junk.add(move.triplet.agent_output)
        st.steps += 1
        st.lure_slot_open = False
        return move

    # -- protocol ------------------------------------------------------------

    def next_move(
        self,
        team: int,
        query: str,
        history: list[HistoryItem],
        visible_keys: list[tuple[int, str]],
        rng: np.random.Generator,
    ) -> Move:
        task = self.task
        st = self.plan(team)
        self._absorb_history(st, history)

        if st.recovery_pending > 0:
            if not self._budget_left(st):
                return self._final(st)
            st.recovery_pending -= 1
            st.recovery_count += 1
            st.steps += 1
            return self.task.derive(_recovery_move, team, st.recovery_count, self._step_cost(st))

        while st.own_idx < len(st.own_nodes) and st.own_nodes[st.own_idx] in st.known_shared:
            st.own_idx += 1

        if st.own_idx < len(st.own_nodes) or st.priv_idx < len(st.private_nodes):
            if not self._budget_left(st):
                return self._final(st)
            if st.lures and st.lure_slot_open:
                return self._emit_lure(st)
            st.lure_slot_open = True
            if st.own_idx < len(st.own_nodes):
                node = st.own_nodes[st.own_idx]
                reuse = self._reuse_option(st, node, visible_keys)
                if reuse is not None:
                    return reuse
                return self._solve_attempt(st, node, "own", rng)
            return self._solve_attempt(st, st.private_nodes[st.priv_idx], "private", rng)

        if st.lures:
            if not self._budget_left(st):
                return self._final(st)
            return self._emit_lure(st)

        pending = [n for n in st.foreign_nodes if n not in st.known_shared]
        if pending:
            node = pending[0]
            reuse = self._reuse_option(st, node, visible_keys)
            if reuse is not None:
                return reuse
            if not self._budget_left(st):
                return self._final(st)
            return self._solve_attempt(st, node, "foreign", rng)

        return self._final(st)

    def _reuse_option(
        self, st: _TeamPlan, node: str, visible_keys: list[tuple[int, str]]
    ) -> RetrieveMove | None:
        """Memory-reuse rule: retrieve the earliest unconsumed entry whose
        key matches the needed subtask, instead of solving it.  The keys
        come ordered by id, so the first match is the earliest."""
        wanted = canonical_key(node)
        for eid, summary in visible_keys:
            if summary == wanted and eid not in st.consumed_ids:
                st.consumed_ids.add(eid)
                return RetrieveMove(eid, cost=self.task.retrieve_cost)
        return None


# -- variant comparison ------------------------------------------------------

VARIANT_NAMES = ("no-memory", "add-all", "llm-proxy", "learned")


def llm_proxy_rule() -> HeuristicAdmission:
    """Scripted stand-in for a prompted LLM judge: admit steps publishing
    a plausibly shareable key, junk or not (it cannot inspect outcomes)."""
    return HeuristicAdmission(lambda t: t.step_summary.startswith(CANONICAL_PREFIX))


def variant_policy(name: str, trained: AdmissionPolicy | None = None) -> AdmissionRule | None:
    """The admission rule of a variant; ``no-memory`` has none, ``learned``
    decides greedily under ``trained``."""
    if name == "no-memory":
        return None
    if name == "add-all":
        return HeuristicAdmission(lambda t: True)
    if name == "llm-proxy":
        return llm_proxy_rule()
    if name == "learned":
        if trained is None:
            raise ValidationError("the learned variant needs a trained policy")
        return LearnedAdmission(trained)
    raise ValidationError(f"unknown variant {name!r}")


def score_event(trace: EpisodeTrace, score: Callable[[str], float]) -> dict:
    """The ``score`` event of an episode: its aggregate answer's score and
    its first finisher's, both in [0, 1] for a ``SimScorer``."""
    return {
        "kind": "score",
        "agg_score": float(score(trace.aggregate_answer)),
        "first_score": float(score(trace.first_answer)),
    }


def run_variant(
    tasks: list[SimTask],
    rule: AdmissionRule | AdmissionPolicy | None,
    k: int,
    seeds: list[int],
    provider,
    keep_traces: bool = False,
) -> tuple[RunMetrics, list[EpisodeTrace]]:
    """Run every (task, seed) pair under one admission rule and score it.

    A bare ``AdmissionPolicy`` decides greedily under a rule built for
    this call.  One rule serves the whole call, so a learned rule's memo
    carries repeated decision inputs across episodes (see
    ``LearnedAdmission``); the policy's parameters must not change during
    the call.
    """
    if isinstance(rule, AdmissionPolicy):
        rule = LearnedAdmission(rule)
    streams: list[list[dict]] = []
    traces: list[EpisodeTrace] = []
    for task in tasks:
        scorer = task.scorer()
        for seed in seeds:
            backend = ScriptedBackend(task, k)
            trace = run_episode(task, k, backend, rule, provider, MajorityAggregator(), seed=seed)
            trace.events.append(score_event(trace, scorer.score))
            streams.append(trace.events)
            if keep_traces:
                traces.append(trace)
    return metrics_from_event_streams(streams), traces


def solve_counts(events: list[dict]) -> dict[str, int]:
    """Successful shared-subtask computations per node, from step labels."""
    counts: dict[str, int] = {}
    for event in events:
        if event.get("kind") == "step" and str(event.get("label", "")).startswith("solve:"):
            node = event["label"].split(":", 1)[1]
            counts[node] = counts.get(node, 0) + 1
    return counts


def prob_yes_by_label(traces: list[EpisodeTrace]) -> dict[str, list[float]]:
    """Controller admit probabilities grouped by step class (solve, lure,
    private, retry, recovery); ground-truth labels come from the backend
    and reach each decision through its ``step`` event."""
    out: dict[str, list[float]] = {}
    for trace in traces:
        labels = {(e["team"], e["step"]): e["label"] for e in trace.events if e["kind"] == "step"}
        for d in decision_events(trace.events):
            label_class = labels[d["team"], d["step"]].split(":", 1)[0]
            out.setdefault(label_class, []).append(d["prob_yes"])
    return out
