"""Stepwise policy-gradient training for the admission controller.

The update step reads only each rollout's events, as ``read_events``
gives them back from a trace file.  An episode is rewarded by its
``score`` event: the aggregated answer's score plus the first
finisher's score.  Rewards are standardized within groups of G
rollouts of the same task, each admission decision gets its episode's
base advantage plus a usage bonus when its entry was actually retrieved
in a rewarded episode, and the policy minimizes the advantage-weighted
negative log-likelihood plus a sparsity penalty on the admit
probability, both at temperature 1.  Rollout trajectories are replayed
``replay_factor`` times per epoch, each update treated as on-policy:
log-probabilities are recomputed against the current parameters, and
actions and advantages stay fixed.  The behaviour log-prob of each
decision, at the sampling temperature, stays in its ``decision`` event
and is not used by the loss.  Each group's decisions are packed
into row matrices once per epoch, from the ``decision``, ``step`` and
``admit`` events, so a replay update is one batched forward and
backward pass over its stored rows.  A group's rollouts share one
sampled admission rule, whose memos of logits rows and of projected
source rows are valid because the parameters do not change until the
group is replayed.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .controller import (
    YES,
    AdmissionPolicy,
    ControllerContext,
    StepTriplet,
    action_index,
    step_loss_grads,
    step_mean,
)
# Not called here, but the benchmark tracer patches it under this name.
from .controller import log_prob  # noqa: F401
from .embeddings import EmbeddingProvider
from .errors import TrainingDiverged, ValidationError, require_int, require_real
from .runtime import LearnedAdmission, MajorityAggregator, decision_events, run_episode
from .sim import ScriptedBackend, SimTask, score_event

logger = logging.getLogger(__name__)

# AdamW's moment decay rates and epsilon, and the global gradient-norm clip.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
CLIP_NORM = 1.0


def episode_reward(events: list[dict]) -> float:
    """The aggregated answer's score plus the first finisher's, from the
    episode's one ``score`` event."""
    scores = [e for e in events if e["kind"] == "score"]
    if len(scores) != 1:
        raise ValidationError(f"an episode is rewarded by one score event, not {len(scores)}")
    r_agg, r_first = scores[0]["agg_score"], scores[0]["first_score"]
    for name, value in (("aggregate", r_agg), ("first-finisher", r_first)):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} score {value} outside [0, 1]")
    return r_agg + r_first


def group_advantage(rewards: Sequence[float]) -> np.ndarray:
    """Standardize rewards within a group (population standard deviation)."""
    if len(rewards) < 2:
        raise ValidationError("group advantage needs at least 2 rewards")
    r = np.asarray(rewards, dtype=np.float64)
    return (r - r.mean()) / (r.std() + 1e-8)


def shaped_advantages(
    events: list[dict], a_base: float, beta: float, r_total: float
) -> list[float]:
    """Per-decision advantages: a_base, plus beta for admitted-and-used
    steps of a positively rewarded episode.  Order matches
    ``decision_events(events)``.

    A step is admitted-and-used when its ``admit`` entry has a
    ``retrieve`` event, from any team, the admitting team included.
    """
    if not math.isfinite(a_base):
        raise ValidationError("a_base must be finite")
    retrieved = {e["entry_id"] for e in events if e["kind"] == "retrieve"}
    used = {
        (e["team"], e["step"])
        for e in events
        if e["kind"] == "admit" and e["entry_id"] in retrieved
    }
    bonus = beta if r_total > 0 else 0.0
    return [
        a_base + (bonus if (d["team"], d["step"]) in used else 0.0)
        for d in decision_events(events)
    ]


class AdamW:
    """Adam with decoupled weight decay and global gradient-norm clipping."""

    def __init__(self, policy: AdmissionPolicy, lr: float = 1e-4, weight_decay: float = 0.01):
        self.policy = policy
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in policy.params.items()}
        self._v = {k: np.zeros_like(v) for k, v in policy.params.items()}

    def grad_norm(self, grads: dict[str, np.ndarray]) -> float:
        """Global L2 norm, summed in parameter order whatever the dict's order."""
        return math.sqrt(sum(float((grads[k] * grads[k]).sum()) for k in self.policy.params))

    def step(self, grads: dict[str, np.ndarray]) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        norm = self.grad_norm(grads)
        scale = CLIP_NORM / norm if norm > CLIP_NORM else 1.0
        self.t += 1
        b1, b2 = ADAM_BETAS
        for key, param in self.policy.params.items():
            g = grads[key] * scale
            self._m[key] = b1 * self._m[key] + (1 - b1) * g
            self._v[key] = b2 * self._v[key] + (1 - b2) * g * g
            m_hat = self._m[key] / (1 - b1**self.t)
            v_hat = self._v[key] / (1 - b2**self.t)
            param -= self.lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + self.weight_decay * param)
        return norm


@dataclass
class TrainConfig:
    """Hyperparameters of ``train``, kept as the plain values their checks
    return: the counts pass ``require_int`` (numpy ints too; ``group_size``
    >= 2 for a defined reward std), the rates ``require_real`` (``beta``
    any finite value), so ``asdict`` of a config is plain JSON."""

    group_size: int = 5
    epochs: int = 5
    replay_factor: int = 10
    beta: float = 0.25
    lambda_sparse: float = 0.05
    sample_temperature: float = 1.2
    lr: float = 1e-4
    weight_decay: float = 0.01
    seed: int = 0
    k: int = 3
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        for name, least in (("group_size", 2), ("epochs", 1), ("replay_factor", 1),
                            ("seed", 0), ("k", 1)):
            setattr(self, name, require_int(name, getattr(self, name), least))
        for name, least, above in (("beta", -math.inf, False), ("lambda_sparse", 0, False),
                                   ("sample_temperature", 0, True), ("lr", 0, True),
                                   ("weight_decay", 0, False)):
            setattr(self, name, require_real(name, getattr(self, name), least, above))


@dataclass
class TrainReport:
    epochs: list[dict]
    config: dict

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "config", **self.config}, sort_keys=True) + "\n")
            for row in self.epochs:
                fh.write(json.dumps({"kind": "epoch", **row}, sort_keys=True) + "\n")


@dataclass
class _ReplayGroup:
    """One rollout group's trainable decisions, packed once per epoch.

    Rows run episode by episode, each in ``decision_events`` order.
    Fail-closed decisions are left out.
    """

    context: ControllerContext
    actions: np.ndarray        # (n,) action index, 0 = YES
    advantages: np.ndarray     # (n,)


def _store_group(
    streams: list[list[dict]],
    rewards: list[float],
    config: TrainConfig,
    provider: EmbeddingProvider,
) -> _ReplayGroup:
    """Freeze one group's advantages and pack its decisions into rows.

    Each stream is one rollout's events.  A decision is joined with its
    ``step`` event on (team, step); the bank's key rows are rebuilt from
    the ``admit`` events in file order.  No forward pass runs here: the
    rows are replayed against the parameters of each update, and the
    behaviour log-prob of a decision, at the temperature it was sampled
    with, is its ``decision`` event's ``log_prob``.
    """
    d_e = provider.dimension
    kept: list[tuple[dict, dict, float]] = []  # decision event, its step event, advantage
    queries, memory_means = [], []
    for events, reward, a_base in zip(streams, rewards, group_advantage(rewards)):
        steps = {(e["team"], e["step"]): e for e in events if e["kind"] == "step"}
        advantages = shaped_advantages(events, float(a_base), config.beta, reward)
        episode_kept = [
            (d, adv)
            for d, adv in zip(decision_events(events), advantages)
            if not d["fail_closed"]  # no meaningful log-prob to train on
        ]
        sizes = np.array([d["mem_size"] for d, _ in episode_kept], dtype=np.intp)
        present = sizes > 0
        # The bank's key rows: each admitted summary's embedding, in entry order.
        keys = np.array([
            provider.embed(steps[e["team"], e["step"]]["step_summary"])
            for e in events
            if e["kind"] == "admit"
        ])
        means = np.zeros((len(episode_kept), d_e))
        # cumsum[k - 1] / k is bit for bit the mean of the first k keys
        means[present] = (
            np.cumsum(keys.reshape(-1, d_e), axis=0)[sizes[present] - 1] / sizes[present, None]
        )
        queries.append(
            np.repeat(provider.embed(events[0]["query"])[None], len(episode_kept), axis=0)
        )
        memory_means.append(means)
        kept.extend((d, steps[d["team"], d["step"]], adv) for d, adv in episode_kept)
    n = len(kept)
    triplets = [
        StepTriplet(s["agent_input"], s["step_summary"], s["agent_output"]) for _, s, _ in kept
    ]
    context = ControllerContext(
        queries=np.concatenate(queries),
        memory_means=np.concatenate(memory_means),
        memory_sizes=np.array([d["mem_size"] for d, _, _ in kept], dtype=np.intp),
        step_means=np.array([step_mean(provider, t) for t in triplets]).reshape(n, d_e),
    )
    return _ReplayGroup(
        context=context,
        actions=np.array([action_index(d["action"]) for d, _, _ in kept], dtype=np.intp),
        advantages=np.array([adv for _, _, adv in kept], dtype=np.float64),
    )


def _rollout_group(
    policy: AdmissionPolicy,
    task: SimTask,
    provider: EmbeddingProvider,
    config: TrainConfig,
    epoch: int,
    task_index: int,
) -> tuple[list[list[dict]], list[float]]:
    """The events of G sampled rollouts of ``task``, sharing one admission
    rule, each ending in its ``score`` event; and their rewards."""
    rule = LearnedAdmission(policy, "sampled", config.sample_temperature)
    streams, rewards = [], []
    scorer = task.scorer()
    for g in range(config.group_size):
        seed = int(
            np.random.SeedSequence([config.seed, epoch, task_index, g]).generate_state(1)[0]
        )
        backend = ScriptedBackend(task, config.k)
        trace = run_episode(
            task, config.k, backend, rule, provider, MajorityAggregator(), seed=seed
        )
        trace.events.append(score_event(trace, scorer.score))
        streams.append(trace.events)
        rewards.append(episode_reward(trace.events))
    return streams, rewards


def _group_loss_and_grads(
    policy: AdmissionPolicy,
    group: _ReplayGroup,
    config: TrainConfig,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Policy and sparsity terms of one group's loss, and the loss gradient.

    The loss is the average over the group's traces of their summed
    per-decision losses.  One forward and one backward pass over every
    decision of the group.
    """
    weight = 1.0 / config.group_size
    p_terms, s_terms, grads = step_loss_grads(
        policy, group.context, group.actions, group.advantages, config.lambda_sparse, weight
    )
    # Python sums left to right, not pairwise as np.sum; the epoch rows rely on it
    return sum((weight * p_terms).tolist()), sum((weight * s_terms).tolist()), grads


def train(
    policy: AdmissionPolicy,
    tasks: Sequence[SimTask],
    provider: EmbeddingProvider,
    config: TrainConfig,
) -> TrainReport:
    """Run the full epoch/replay loop; returns the training report, which
    the caller writes if it wants it (``hivemem train`` writes
    ``report.jsonl``).

    Per epoch: G sampled rollouts per task, advantages frozen, then
    ``replay_factor`` optimization passes over the stored groups (one
    update per group, log-probs recomputed against current parameters).
    Non-finite losses abort with a checkpoint of the last finite state.
    """
    if not tasks:
        raise ValidationError("tasks must be non-empty")
    optimizer = AdamW(policy, lr=config.lr, weight_decay=config.weight_decay)
    ckpt_dir = Path(config.checkpoint_dir) if config.checkpoint_dir else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5EED]))
    report = TrainReport(epochs=[], config=asdict(config))

    def checkpoint(name: str) -> None:
        if ckpt_dir:
            policy.save(str(ckpt_dir / f"{name}.npz"), provider_name=provider.name)

    for epoch in range(config.epochs):
        groups: list[_ReplayGroup] = []
        reward_values: list[float] = []
        admit_flags: list[bool] = []
        for task_index, task in enumerate(tasks):
            streams, rewards = _rollout_group(policy, task, provider, config, epoch, task_index)
            groups.append(_store_group(streams, rewards, config, provider))
            reward_values.extend(rewards)
            for events in streams:
                admit_flags.extend(d["action"] == YES for d in decision_events(events))

        pass_losses: list[float] = []
        pass_policy: list[float] = []
        pass_sparse: list[float] = []
        for _ in range(config.replay_factor):
            order = shuffle_rng.permutation(len(groups))
            for gi in order:
                policy_term, sparsity_term, grads = _group_loss_and_grads(
                    policy, groups[gi], config
                )
                total = policy_term + config.lambda_sparse * sparsity_term
                if not math.isfinite(total):
                    checkpoint("last_finite")
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}; checkpoint saved"
                    )
                optimizer.step(grads)
                pass_losses.append(total)
                pass_policy.append(policy_term)
                pass_sparse.append(sparsity_term)

        row = {
            "epoch": epoch,
            "mean_reward": float(np.mean(reward_values)) if reward_values else 0.0,
            "admission_rate": float(np.mean(admit_flags)) if admit_flags else 0.0,
            "mean_total_loss": float(np.mean(pass_losses)) if pass_losses else 0.0,
            "mean_policy_loss": float(np.mean(pass_policy)) if pass_policy else 0.0,
            "mean_sparsity_loss": float(np.mean(pass_sparse)) if pass_sparse else 0.0,
            "updates": len(pass_losses),
        }
        report.epochs.append(row)
        logger.info(
            "epoch %d: reward %.3f admission %.3f loss %.3f",
            epoch, row["mean_reward"], row["admission_rate"], row["mean_total_loss"],
        )
        checkpoint(f"epoch_{epoch:03d}")

    return report
