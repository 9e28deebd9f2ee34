"""Stepwise policy-gradient training for the admission controller.

Episodes are rewarded by the aggregated answer's score plus a weighted
first-finisher score.  Rewards are standardized within groups of G
rollouts of the same task, each admission decision gets its trace's
base advantage plus a usage bonus when its entry was actually retrieved
in a rewarded trace, and the policy minimizes the advantage-weighted
negative log-likelihood plus a sparsity penalty on the admit
probability.  Rollout trajectories are replayed several times per epoch
with log-probabilities recomputed against the current parameters;
actions and advantages stay fixed.  Each trace's decisions are packed
into row matrices once per epoch, so a replay update is one batched
forward and backward pass over its group.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .controller import (
    YES,
    AdmissionPolicy,
    ControllerContext,
    action_index,
    embed,
    softmax,
    step_loss_grads,
    step_mean,
)
# Not called here, but the benchmark tracer patches it under this name.
from .controller import log_prob  # noqa: F401
from .embeddings import EmbeddingProvider
from .errors import TrainingDiverged, ValidationError
from .runtime import EpisodeTrace, MajorityAggregator, run_episode
from .sim import ScriptedBackend, SimTask

logger = logging.getLogger(__name__)

ScoreFn = Callable[[str], float]


@dataclass(frozen=True)
class RewardBreakdown:
    r_agg: float
    r_first: float
    lambda_first: float

    @property
    def r_total(self) -> float:
        return self.r_agg + self.lambda_first * self.r_first


def episode_reward(
    trace: EpisodeTrace, scorer: ScoreFn, lambda_first: float = 1.0
) -> RewardBreakdown:
    """Score the aggregated answer and the first finisher's answer."""
    if lambda_first < 0:
        raise ValidationError("lambda_first must be >= 0")
    r_agg = float(scorer(trace.aggregate_answer))
    r_first = float(scorer(trace.first_answer))
    for name, value in (("aggregate", r_agg), ("first-finisher", r_first)):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} score {value} outside [0, 1]")
    return RewardBreakdown(r_agg=r_agg, r_first=r_first, lambda_first=lambda_first)


def group_advantage(rewards: Sequence[float], eps: float = 1e-8) -> np.ndarray:
    """Standardize rewards within a group (population standard deviation)."""
    if len(rewards) < 2:
        raise ValidationError("group advantage needs at least 2 rewards")
    if eps <= 0:
        raise ValidationError("eps must be > 0")
    r = np.asarray(rewards, dtype=np.float64)
    return (r - r.mean()) / (r.std() + eps)


def shaped_advantages(
    trace: EpisodeTrace, a_base: float, beta: float, r_total: float
) -> list[float]:
    """Per-decision advantages: a_base, plus beta for admitted-and-used
    steps of a positively rewarded trace.  Order matches trace.decisions().

    An admitted step's entry is used when the trace has a ``retrieve``
    event for it, from any team, the admitting team included.
    """
    if not math.isfinite(a_base):
        raise ValidationError("a_base must be finite")
    used = {e["entry_id"] for e in trace.events if e["kind"] == "retrieve"}
    bonus = beta if r_total > 0 else 0.0
    return [a_base + (bonus if r.entry_id in used else 0.0) for r in trace.decisions()]


class AdamW:
    """Adam with decoupled weight decay and global gradient-norm clipping."""

    def __init__(
        self,
        policy: AdmissionPolicy,
        lr: float = 1e-4,
        weight_decay: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        clip_norm: float = 1.0,
    ):
        self.policy = policy
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in policy.params.items()}
        self._v = {k: np.zeros_like(v) for k, v in policy.params.items()}

    def grad_norm(self, grads: dict[str, np.ndarray]) -> float:
        """Global L2 norm, summed in parameter order whatever the dict's order."""
        return math.sqrt(sum(float((grads[k] * grads[k]).sum()) for k in self.policy.params))

    def step(self, grads: dict[str, np.ndarray]) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        norm = self.grad_norm(grads)
        scale = 1.0
        if self.clip_norm > 0 and norm > self.clip_norm:
            scale = self.clip_norm / norm
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key, param in self.policy.params.items():
            g = grads[key] * scale
            self._m[key] = b1 * self._m[key] + (1 - b1) * g
            self._v[key] = b2 * self._v[key] + (1 - b2) * g * g
            m_hat = self._m[key] / (1 - b1**self.t)
            v_hat = self._v[key] / (1 - b2**self.t)
            param -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * param)
        return norm


@dataclass
class TrainConfig:
    group_size: int = 5
    epochs: int = 5
    replay_factor: int = 10
    beta: float = 0.25
    lambda_sparse: float = 0.05
    lambda_first: float = 1.0
    sample_temperature: float = 1.2
    loss_temperature: float = 1.0
    lr: float = 1e-4
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    adv_eps: float = 1e-8
    seed: int = 0
    k: int = 3
    importance_weighting: bool = False
    checkpoint_dir: str | None = None
    report_path: str | None = None

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ValidationError("group_size must be >= 2 for a defined std")
        if self.epochs < 1 or self.replay_factor < 1:
            raise ValidationError("epochs and replay_factor must be >= 1")
        if self.sample_temperature <= 0 or self.loss_temperature <= 0:
            raise ValidationError("sample_temperature and loss_temperature must be > 0")
        if self.lambda_sparse < 0:
            raise ValidationError("lambda_sparse must be >= 0")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        return cls(**json.loads(text))


@dataclass
class _TracePack:
    """One trace's trainable decisions, packed once per epoch for replay.

    Fail-closed decisions are left out.  The query row is shared by every
    decision of the trace.
    """

    query: np.ndarray          # (d_e,)
    memory_means: np.ndarray   # (n, d_e), zero where memory was empty
    memory_sizes: np.ndarray   # (n,)
    step_means: np.ndarray     # (n, d_e)
    actions: np.ndarray        # (n,) action index, 0 = YES
    advantages: np.ndarray     # (n,)
    logp_collect: np.ndarray   # (n,) at loss temperature, under collection-time params


@dataclass
class TrainReport:
    epochs: list[dict]
    param_count: int
    config: dict

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "config", **self.config}, sort_keys=True) + "\n")
            for row in self.epochs:
                fh.write(json.dumps({"kind": "epoch", **row}, sort_keys=True) + "\n")


def _rows(packs: list[_TracePack]) -> ControllerContext:
    """Every decision of ``packs`` as one context, in pack order."""
    return ControllerContext(
        queries=np.repeat(
            np.stack([p.query for p in packs]), [len(p.actions) for p in packs], axis=0
        ),
        memory_means=np.concatenate([p.memory_means for p in packs]),
        memory_sizes=np.concatenate([p.memory_sizes for p in packs]),
        step_means=np.concatenate([p.step_means for p in packs]),
    )


def _store_trace(
    trace: EpisodeTrace,
    reward: RewardBreakdown,
    a_base: float,
    beta: float,
    policy: AdmissionPolicy,
    provider: EmbeddingProvider,
    loss_temperature: float,
) -> _TracePack:
    advantages = shaped_advantages(trace, a_base, beta, reward.r_total)
    kept = [
        (record, adv)
        for record, adv in zip(trace.decisions(), advantages)
        if not record.decision.fail_closed  # no meaningful log-prob to train on
    ]
    n, d_e = len(kept), provider.dimension
    sizes = np.array([r.mem_size_at_decision for r, _ in kept], dtype=np.intp)
    present = sizes > 0
    # The bank's key rows: each admitted summary's embedding, in entry order.
    admitted = sorted(
        (r for r in trace.decisions() if r.entry_id is not None), key=lambda r: r.entry_id
    )
    keys = np.array([embed(provider, r.triplet.step_summary) for r in admitted]).reshape(-1, d_e)
    memory_means = np.zeros((n, d_e))
    # cumsum[k - 1] / k is bit for bit the mean of the first k keys
    memory_means[present] = np.cumsum(keys, axis=0)[sizes[present] - 1] / sizes[present, None]
    step_means = np.array([step_mean(provider, r.triplet) for r, _ in kept]).reshape(n, d_e)
    query = embed(provider, trace.query)
    actions = np.array([action_index(r.decision.action) for r, _ in kept], dtype=np.intp)
    logits, _ = policy.forward(
        ControllerContext(np.repeat(query[None], n, axis=0), memory_means, sizes, step_means)
    )
    return _TracePack(
        query=query,
        memory_means=memory_means,
        memory_sizes=sizes,
        step_means=step_means,
        actions=actions,
        advantages=np.array([adv for _, adv in kept], dtype=np.float64),
        logp_collect=np.log(softmax(logits, loss_temperature)[np.arange(n), actions]),
    )


def _rollout_group(
    policy: AdmissionPolicy,
    task: SimTask,
    provider: EmbeddingProvider,
    config: TrainConfig,
    epoch: int,
    task_index: int,
) -> tuple[list[EpisodeTrace], list[RewardBreakdown]]:
    traces, rewards = [], []
    scorer = task.scorer()
    for g in range(config.group_size):
        seed = int(
            np.random.SeedSequence([config.seed, epoch, task_index, g]).generate_state(1)[0]
        )
        backend = ScriptedBackend(task, config.k)
        trace = run_episode(
            task.task_spec(),
            config.k,
            backend,
            policy,
            provider,
            MajorityAggregator(),
            seed=seed,
            decision_mode="sampled",
            decision_temperature=config.sample_temperature,
        )
        traces.append(trace)
        rewards.append(episode_reward(trace, scorer.score, config.lambda_first))
    return traces, rewards


def _group_loss_and_grads(
    policy: AdmissionPolicy,
    group: list[_TracePack],
    config: TrainConfig,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Policy and sparsity terms of one group's loss, and the loss gradient.

    The loss is the average over the group's traces of their summed
    per-decision losses.  One forward and one backward pass over every
    decision of the group.
    """
    actions = np.concatenate([pack.actions for pack in group])
    p_terms, s_terms, weights, grads = step_loss_grads(
        policy,
        policy.forward(_rows(group)),
        actions,
        np.concatenate([pack.advantages for pack in group]),
        config.lambda_sparse,
        config.loss_temperature,
        np.full(len(actions), 1.0 / max(1, len(group))),
        np.concatenate([pack.logp_collect for pack in group])
        if config.importance_weighting
        else None,
    )
    # Python sums left to right, not pairwise as np.sum; the epoch rows rely on it
    return sum((weights * p_terms).tolist()), sum((weights * s_terms).tolist()), grads


def train(
    policy: AdmissionPolicy,
    tasks: Sequence[SimTask],
    provider: EmbeddingProvider,
    config: TrainConfig,
) -> TrainReport:
    """Run the full epoch/replay loop; returns the training report.

    Per epoch: G sampled rollouts per task, advantages frozen, then
    ``replay_factor`` optimization passes over the stored groups (one
    update per group, log-probs recomputed against current parameters).
    Non-finite losses abort with a checkpoint of the last finite state.
    """
    if not tasks:
        raise ValidationError("tasks must be non-empty")
    optimizer = AdamW(
        policy,
        lr=config.lr,
        weight_decay=config.weight_decay,
        betas=(config.adam_beta1, config.adam_beta2),
        eps=config.adam_eps,
        clip_norm=config.clip_norm,
    )
    ckpt_dir = Path(config.checkpoint_dir) if config.checkpoint_dir else None
    if ckpt_dir:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5EED]))
    report = TrainReport(epochs=[], param_count=policy.param_count, config=asdict(config))

    def checkpoint(name: str) -> None:
        if ckpt_dir:
            policy.save(str(ckpt_dir / f"{name}.npz"), provider_name=provider.name)

    for epoch in range(config.epochs):
        groups: list[list[_TracePack]] = []
        reward_values: list[float] = []
        admit_flags: list[bool] = []
        for task_index, task in enumerate(tasks):
            traces, rewards = _rollout_group(policy, task, provider, config, epoch, task_index)
            totals = [r.r_total for r in rewards]
            base = group_advantage(totals, config.adv_eps)
            stored_group = [
                _store_trace(
                    trace, reward, float(a), config.beta, policy, provider,
                    config.loss_temperature,
                )
                for trace, reward, a in zip(traces, rewards, base)
            ]
            groups.append(stored_group)
            reward_values.extend(totals)
            for trace in traces:
                admit_flags.extend(r.decision.action == YES for r in trace.decisions())

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

    if config.report_path:
        report.write(config.report_path)
    return report
