"""Admission controller: context assembly and the trainable YES/NO policy.

The policy maps an embedded context (task query, current memory keys,
current step triplet) to two logits over {YES, NO}.  Reference
architecture: mean-pooling per input source (order-invariant over memory
keys), one learnable linear projection per source into the controller
width, then a small tanh MLP head.  Contexts are pooled once, when they
are built, into rows of (query, memory-key mean, memory size, step mean);
a decision is one row and a training replay many.  One forward and one
backward pass, hand-written numpy, serve both, so gradients can be
checked against finite differences and a row's result does not depend
on the rows batched with it.

``step_loss_grads`` is the training objective over N decisions and its
gradient, the one loss path.  ``log_prob`` and ``prob_yes_with_grad``
give its two terms alone for one decision; tests check them against
finite differences, and the benchmark tracer wraps them.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .bank import MemoryBank
from .embeddings import EmbeddingProvider
from .errors import ConfigurationError, ValidationError

logger = logging.getLogger(__name__)

YES = "YES"
NO = "NO"

CHECKPOINT_FORMAT_VERSION = 1

# Row a is the one-hot vector of action index a (0 = YES, 1 = NO).
_ONE_HOT = np.eye(2)

# Stable parameter order, used by the optimizer and finite-difference tests.
PARAM_KEYS = (
    "w_query", "b_query",
    "w_memory", "b_memory",
    "w_step", "b_step",
    "w_hidden", "b_hidden",
    "w_out", "b_out",
)


@dataclass(frozen=True)
class StepTriplet:
    """One agent step: orchestrator instruction, summary, raw output."""

    agent_input: str
    step_summary: str
    agent_output: str


@dataclass
class ControllerContext:
    """Pooled inputs of N admission decisions, one row each; a decision is N=1.

    A row's memory mean is zero where its memory size is 0; the policy
    ignores it there.
    """

    queries: np.ndarray        # (N, d_e)
    memory_means: np.ndarray   # (N, d_e), mean of the keys visible at decision time
    memory_sizes: np.ndarray   # (N,) number of keys that mean covers
    step_means: np.ndarray     # (N, d_e), mean of the step triplet's embeddings


@dataclass(frozen=True)
class Decision:
    """Outcome of one admission decision.

    ``log_prob_action`` is the log-probability of the taken action at the
    temperature the decision was made with; training recomputes
    log-probabilities at its own (default 1.0) temperature.
    """

    action: str
    prob_yes: float
    log_prob_action: float
    fail_closed: bool = False


def _rowwise(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row n is ``w @ x[n]``, computed as its own matrix-vector product.

    ``x @ w.T`` would be one matrix product whose sums can round
    differently from the single-row path.
    """
    return (w @ x[:, :, None])[:, :, 0]


def _outer_sum(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n outer(d[n], x[n]), accumulated over n in row order."""
    return np.einsum("ni,nj->ij", d, x)


def softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax over the last axis: (2,) logits or (N, 2) rows of them."""
    scaled = logits / temperature
    scaled = scaled - np.maximum(scaled[..., :1], scaled[..., 1:])
    e = np.exp(scaled)
    return e / (e[..., :1] + e[..., 1:])


def sample_binary_decision(
    logits: np.ndarray,
    mode: str,
    rng: np.random.Generator | None = None,
    temperature: float = 1.0,
) -> Decision:
    """Turn a 2-logit vector (YES, NO) into a Decision.

    Non-finite logits fail closed: the step is rejected and flagged, so a
    broken controller can never flood the memory bank.
    """
    if temperature <= 0:
        raise ValidationError("temperature must be > 0")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (2,):
        raise ValidationError("expected exactly two logits (YES, NO)")
    if not np.all(np.isfinite(logits)):
        logger.warning("non-finite controller logits %s; failing closed to NO", logits)
        return Decision(
            action=NO,
            prob_yes=0.5,
            log_prob_action=float(np.log(0.5)),
            fail_closed=True,
        )
    if mode == "greedy":
        probs = softmax(logits, 1.0)
        action = YES if logits[0] >= logits[1] else NO
    elif mode == "sampled":
        if rng is None:
            raise ValidationError("sampled mode requires a random generator")
        probs = softmax(logits, temperature)
        action = YES if rng.random() < probs[0] else NO
    else:
        raise ValidationError(f"unknown decision mode {mode!r}")
    p_action = probs[0] if action == YES else probs[1]
    return Decision(
        action=action,
        prob_yes=float(probs[0]),
        log_prob_action=float(np.log(p_action)),
    )


class AdmissionPolicy:
    """Trainable admission policy with analytic gradients.

    Parameters (all float64):
      * three per-source projections d_e -> d_c (query, memory, step),
      * a tanh hidden layer 3*d_c -> 4*d_c,
      * a 2-logit output layer, zero-initialized so the untrained policy
        admits with probability exactly 0.5.

    Memory keys are mean-pooled before projection, so decisions are
    invariant to the order of the keys by construction.  An empty memory
    pools to the zero vector.
    """

    def __init__(self, embed_dim: int, controller_dim: int = 32, seed: int = 0):
        if embed_dim < 1 or controller_dim < 1:
            raise ConfigurationError("embed_dim and controller_dim must be >= 1")
        self.embed_dim = embed_dim
        self.controller_dim = controller_dim
        rng = np.random.default_rng(seed)
        d_e, d_c = embed_dim, controller_dim
        hidden = 4 * d_c
        self.params: dict[str, np.ndarray] = {
            "w_query": rng.normal(0.0, d_e**-0.5, (d_c, d_e)),
            "b_query": np.zeros(d_c),
            "w_memory": rng.normal(0.0, d_e**-0.5, (d_c, d_e)),
            "b_memory": np.zeros(d_c),
            "w_step": rng.normal(0.0, d_e**-0.5, (d_c, d_e)),
            "b_step": np.zeros(d_c),
            "w_hidden": rng.normal(0.0, (3 * d_c) ** -0.5, (hidden, 3 * d_c)),
            "b_hidden": np.zeros(hidden),
            "w_out": np.zeros((2, hidden)),
            "b_out": np.zeros(2),
        }

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, context: ControllerContext) -> tuple[np.ndarray, dict]:
        """Logits (N, 2) over (YES, NO) of N decisions; returns (logits, cache).

        Each matrix-vector product runs row by row as its own gemv, so a
        row's logits are the same bit for bit whatever rows share its batch.
        """
        if context.queries.shape[1] != self.embed_dim:
            raise ConfigurationError(
                f"context dimension {context.queries.shape[1]} != policy embed_dim {self.embed_dim}"
            )
        p = self.params
        pooled_q = _rowwise(p["w_query"], context.queries) + p["b_query"]
        pooled_m = _rowwise(p["w_memory"], context.memory_means) + p["b_memory"]
        pooled_m[context.memory_sizes == 0] = 0.0
        pooled_s = _rowwise(p["w_step"], context.step_means) + p["b_step"]
        h0 = np.concatenate([pooled_q, pooled_m, pooled_s], axis=1)
        h1 = np.tanh(_rowwise(p["w_hidden"], h0) + p["b_hidden"])
        logits = _rowwise(p["w_out"], h1) + p["b_out"]
        return logits, {"context": context, "h0": h0, "h1": h1}

    def backward_batch(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of sum_n dlogits[n] . logits[n], keyed in PARAM_KEYS order.

        Every sum over rows runs in row order, so the result equals adding
        up the rows' single-row gradients one by one.
        """
        p = self.params
        d_c = self.controller_dim
        context, h0, h1 = cache["context"], cache["h0"], cache["h1"]
        da1 = _rowwise(p["w_out"].T, dlogits) * (1.0 - h1 * h1)
        dh0 = _rowwise(p["w_hidden"].T, da1)
        dh0[context.memory_sizes == 0, d_c : 2 * d_c] = 0.0  # empty memory pools to a constant
        db0 = np.add.reduce(dh0, axis=0)
        return {
            "w_query": _outer_sum(dh0[:, :d_c], context.queries),
            "b_query": db0[:d_c],
            "w_memory": _outer_sum(dh0[:, d_c : 2 * d_c], context.memory_means),
            "b_memory": db0[d_c : 2 * d_c],
            "w_step": _outer_sum(dh0[:, 2 * d_c :], context.step_means),
            "b_step": db0[2 * d_c :],
            "w_hidden": _outer_sum(da1, h0),
            "b_hidden": np.add.reduce(da1, axis=0),
            "w_out": _outer_sum(dlogits, h1),
            "b_out": np.add.reduce(dlogits, axis=0),
        }

    # -- serialization -------------------------------------------------------

    def save(self, path: str, provider_name: str = "") -> None:
        """Write a self-describing checkpoint (npz with a JSON meta blob)."""
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "embed_dim": self.embed_dim,
            "controller_dim": self.controller_dim,
            "provider": provider_name,
        }
        np.savez(path, __meta__=np.bytes_(json.dumps(meta).encode()), **self.params)

    @classmethod
    def load(
        cls,
        path: str,
        expected_embed_dim: int | None = None,
    ) -> tuple["AdmissionPolicy", dict]:
        with np.load(path) as data:
            if "__meta__" not in data:
                raise ConfigurationError(f"{path} is not a policy checkpoint")
            meta = json.loads(bytes(data["__meta__"]).decode())
            if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise ConfigurationError(
                    f"unsupported checkpoint format {meta.get('format_version')!r}"
                )
            if expected_embed_dim is not None and meta["embed_dim"] != expected_embed_dim:
                raise ConfigurationError(
                    f"checkpoint embed_dim {meta['embed_dim']} != expected {expected_embed_dim}"
                )
            policy = cls(meta["embed_dim"], meta["controller_dim"])
            for key in PARAM_KEYS:
                if key not in data:
                    raise ConfigurationError(f"checkpoint missing parameter {key!r}")
                if data[key].shape != policy.params[key].shape:
                    raise ConfigurationError(f"checkpoint parameter {key!r} has wrong shape")
                policy.params[key] = np.asarray(data[key], dtype=np.float64)
        return policy, meta


def embed(provider: EmbeddingProvider, text: str) -> np.ndarray:
    """Embed text with the frozen provider (validates non-empty input)."""
    if not text:
        raise ValidationError("cannot embed empty text")
    return provider.embed(text)


def step_mean(provider: EmbeddingProvider, triplet: StepTriplet) -> np.ndarray:
    """Mean of the triplet's embeddings: (input + summary) + output, over 3."""
    return (
        embed(provider, triplet.agent_input)
        + embed(provider, triplet.step_summary)
        + embed(provider, triplet.agent_output)
    ) / 3


def build_context(
    query: str,
    bank: MemoryBank,
    triplet: StepTriplet,
    provider: EmbeddingProvider,
) -> ControllerContext:
    """Assemble the one-row decision context for the current step.

    The memory mean comes from the bank's running key sum, never
    recomputed; the snapshot is taken at decision time, so admissions
    racing with this call land in the next step's context.
    """
    if not (triplet.agent_input and triplet.step_summary and triplet.agent_output):
        raise ValidationError("all step triplet fields must be non-empty")
    if provider.dimension != bank.embedding_dim:
        raise ConfigurationError(
            f"provider dimension {provider.dimension} != bank dimension {bank.embedding_dim}"
        )
    entries, key_sum = bank.context_snapshot()
    size = len(entries)
    return ControllerContext(
        queries=embed(provider, query)[None],
        memory_means=(key_sum / max(size, 1))[None],
        memory_sizes=np.array([size]),
        step_means=step_mean(provider, triplet)[None],
    )


def decide(
    policy: AdmissionPolicy,
    context: ControllerContext,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    temperature: float = 1.0,
) -> Decision:
    """Evaluate the policy on a one-row context and emit a YES/NO decision."""
    logits, _ = policy.forward(context)
    return sample_binary_decision(logits[0], mode, rng=rng, temperature=temperature)


def action_index(action: str) -> int:
    """Column of ``action`` in the (YES, NO) logits."""
    if action not in (YES, NO):
        raise ValidationError(f"action must be YES or NO, got {action!r}")
    return 0 if action == YES else 1


def step_loss_grads(
    policy: AdmissionPolicy,
    forward: tuple[np.ndarray, dict],
    actions: np.ndarray,
    advantages: np.ndarray,
    lambda_sparse: float,
    temperature: float,
    loss_weights: np.ndarray,
    logp_collect: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Per-decision loss pieces of N decisions and their summed gradient.

    ``forward`` is the (logits, cache) pair of ``AdmissionPolicy.forward``;
    ``actions`` are action indices.  Returns
    (policy_terms, sparsity_terms, weights, grads): -advantages * log
    pi(action), pi(YES), the loss weights, and the gradient of
    sum_n weights[n] * (policy_terms[n] + lambda_sparse * sparsity_terms[n]).
    With ``logp_collect`` each weight is multiplied by the importance ratio
    exp(log pi(action) - logp_collect), held constant in the gradient.
    """
    if temperature <= 0:
        raise ValidationError("temperature must be > 0")
    logits, cache = forward
    probs = softmax(logits, temperature)
    logp = np.log(probs[np.arange(len(actions)), actions])
    weights = loss_weights
    if logp_collect is not None:
        weights = loss_weights * np.exp(logp - logp_collect)
    dlogp = (_ONE_HOT[actions] - probs) / temperature
    dpyes = probs[:, :1] * (_ONE_HOT[0] - probs) / temperature
    dlogits = weights[:, None] * (-advantages[:, None] * dlogp + lambda_sparse * dpyes)
    return -advantages * logp, probs[:, 0], weights, policy.backward_batch(cache, dlogits)


def log_prob(
    policy: AdmissionPolicy,
    context: ControllerContext,
    action: str,
    temperature: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """log pi(action | context) and its gradient w.r.t. all parameters."""
    idx = action_index(action)
    if temperature <= 0:
        raise ValidationError("temperature must be > 0")
    logits, cache = policy.forward(context)
    probs = softmax(logits[0], temperature)
    dlogits = (_ONE_HOT[idx] - probs) / temperature
    return float(np.log(probs[idx])), policy.backward_batch(cache, dlogits[None])


def prob_yes_with_grad(
    policy: AdmissionPolicy,
    context: ControllerContext,
    temperature: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """pi(YES | context) and its gradient; the sparsity penalty term."""
    if temperature <= 0:
        raise ValidationError("temperature must be > 0")
    logits, cache = policy.forward(context)
    probs = softmax(logits[0], temperature)
    dlogits = probs[0] * (_ONE_HOT[0] - probs) / temperature
    return float(probs[0]), policy.backward_batch(cache, dlogits[None])
