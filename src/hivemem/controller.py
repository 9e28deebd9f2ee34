"""Admission controller: context assembly and the trainable YES/NO policy.

The policy maps an embedded context (task query, current memory keys,
current step triplet) to two logits over {YES, NO}.  Reference
architecture: one learnable linear projection per input source into the
controller width, mean-pooling per source (order-invariant over memory
keys), then a small tanh MLP head.  Forward and backward passes are
hand-written numpy so gradients can be checked against finite
differences.  The forward pass has a single-row form for decisions and
a batched form over row matrices for training replay, equal bit for bit;
one batched backward pass serves both.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

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
    """Pre-projection embedded inputs for one admission decision."""

    query_embedding: np.ndarray        # (d_e,)
    memory_key_embeddings: np.ndarray  # (n_keys, d_e), bank order
    step_embeddings: np.ndarray        # (3, d_e): input, summary, output

    @property
    def dimension(self) -> int:
        return int(self.query_embedding.shape[0])

    @property
    def token_count(self) -> int:
        return 1 + int(self.memory_key_embeddings.shape[0]) + 3


@dataclass
class DecisionRows:
    """N decisions as row matrices, the input of the batched forward pass.

    A row's memory mean is zero where ``memory_empty`` holds; the policy
    ignores it there.
    """

    queries: np.ndarray        # (N, d_e)
    memory_means: np.ndarray   # (N, d_e), mean of the keys visible at decision time
    memory_empty: np.ndarray   # (N,) bool
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
    mode: str                 # "sampled" | "greedy"
    temperature: float = 1.0
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
            mode=mode,
            temperature=temperature,
            fail_closed=True,
        )
    if mode == "greedy":
        probs = softmax(logits, 1.0)
        action = YES if logits[0] >= logits[1] else NO
        p_action = probs[0] if action == YES else probs[1]
        return Decision(
            action=action,
            prob_yes=float(probs[0]),
            log_prob_action=float(np.log(p_action)),
            mode="greedy",
            temperature=1.0,
        )
    if mode == "sampled":
        if rng is None:
            raise ValidationError("sampled mode requires a random generator")
        probs = softmax(logits, temperature)
        action = YES if rng.random() < probs[0] else NO
        p_action = probs[0] if action == YES else probs[1]
        return Decision(
            action=action,
            prob_yes=float(probs[0]),
            log_prob_action=float(np.log(p_action)),
            mode="sampled",
            temperature=temperature,
        )
    raise ValidationError(f"unknown decision mode {mode!r}")


class AdmissionPolicy:
    """Trainable admission policy with analytic gradients.

    Parameters (all float64):
      * three per-source projections d_e -> d_c (query, memory, step),
      * a tanh hidden layer 3*d_c -> 4*d_c,
      * a 2-logit output layer, zero-initialized so the untrained policy
        admits with probability exactly 0.5.

    Memory keys are mean-pooled before projection, so decisions are
    invariant to the order of ``memory_key_embeddings`` by construction.
    An empty memory pools to the zero vector.
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

    def _pooled_inputs(
        self, context: ControllerContext
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Validated (query, memory-key mean or None when empty, step mean)."""
        if context.dimension != self.embed_dim:
            raise ConfigurationError(
                f"context dimension {context.dimension} != policy embed_dim {self.embed_dim}"
            )
        q = np.asarray(context.query_embedding, dtype=np.float64)
        mem = np.asarray(context.memory_key_embeddings, dtype=np.float64)
        steps = np.asarray(context.step_embeddings, dtype=np.float64)
        if steps.shape != (3, self.embed_dim):
            raise ValidationError("step_embeddings must have shape (3, d_e)")
        # np.add.reduce(x, axis=0) / n is what x.mean(axis=0) computes, minus its overhead
        mem_mean = np.add.reduce(mem, axis=0) / mem.shape[0] if mem.shape[0] > 0 else None
        return q, mem_mean, np.add.reduce(steps, axis=0) / 3

    def _forward_row(
        self, q: np.ndarray, mem_mean: np.ndarray | None, step_mean: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(logits, h0, h1) of one decision."""
        p = self.params
        pooled_q = p["w_query"] @ q + p["b_query"]
        if mem_mean is not None:
            pooled_m = p["w_memory"] @ mem_mean + p["b_memory"]
        else:
            pooled_m = np.zeros(self.controller_dim)
        pooled_s = p["w_step"] @ step_mean + p["b_step"]
        h0 = np.concatenate([pooled_q, pooled_m, pooled_s])
        h1 = np.tanh(p["w_hidden"] @ h0 + p["b_hidden"])
        return p["w_out"] @ h1 + p["b_out"], h0, h1

    def forward(self, context: ControllerContext) -> np.ndarray:
        """The 2 logits (YES, NO) of one decision.

        Equals the matching :meth:`forward_batch` row bit for bit, without
        the cost of the batch path's stacked arrays.
        """
        return self._forward_row(*self._pooled_inputs(context))[0]

    def forward_cached(self, context: ControllerContext) -> tuple[np.ndarray, dict]:
        """:meth:`forward` as a one-row batch: logits (1, 2) and the cache
        :meth:`backward_batch` takes."""
        q, mem_mean, step_mean = self._pooled_inputs(context)
        logits, h0, h1 = self._forward_row(q, mem_mean, step_mean)
        empty = mem_mean is None
        rows = DecisionRows(
            queries=q[None],
            memory_means=np.zeros((1, self.embed_dim)) if empty else mem_mean[None],
            memory_empty=np.array([empty]),
            step_means=step_mean[None],
        )
        return logits[None], {"rows": rows, "h0": h0[None], "h1": h1[None]}

    def forward_batch(self, rows: DecisionRows) -> tuple[np.ndarray, dict]:
        """Logits (N, 2) of N decisions; returns (logits, cache).

        Each matrix-vector product runs row by row as its own gemv, so row
        n equals :meth:`forward` on the same context bit for bit.
        """
        p = self.params
        pooled_q = _rowwise(p["w_query"], rows.queries) + p["b_query"]
        pooled_m = _rowwise(p["w_memory"], rows.memory_means) + p["b_memory"]
        pooled_m[rows.memory_empty] = 0.0
        pooled_s = _rowwise(p["w_step"], rows.step_means) + p["b_step"]
        h0 = np.concatenate([pooled_q, pooled_m, pooled_s], axis=1)
        h1 = np.tanh(_rowwise(p["w_hidden"], h0) + p["b_hidden"])
        logits = _rowwise(p["w_out"], h1) + p["b_out"]
        return logits, {"rows": rows, "h0": h0, "h1": h1}

    def backward_batch(self, cache: dict, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of sum_n dlogits[n] . logits[n], keyed in PARAM_KEYS order.

        Every sum over rows runs in row order, so the result equals adding
        up the rows' single-row gradients one by one.
        """
        p = self.params
        d_c = self.controller_dim
        rows, h0, h1 = cache["rows"], cache["h0"], cache["h1"]
        da1 = _rowwise(p["w_out"].T, dlogits) * (1.0 - h1 * h1)
        dh0 = _rowwise(p["w_hidden"].T, da1)
        dh0[rows.memory_empty, d_c : 2 * d_c] = 0.0  # empty memory pools to a constant
        db0 = np.add.reduce(dh0, axis=0)
        return {
            "w_query": _outer_sum(dh0[:, :d_c], rows.queries),
            "b_query": db0[:d_c],
            "w_memory": _outer_sum(dh0[:, d_c : 2 * d_c], rows.memory_means),
            "b_memory": db0[d_c : 2 * d_c],
            "w_step": _outer_sum(dh0[:, 2 * d_c :], rows.step_means),
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


def build_context(
    query: str,
    bank: MemoryBank,
    triplet: StepTriplet,
    provider: EmbeddingProvider,
) -> ControllerContext:
    """Assemble the decision context for the current step.

    Memory-key embeddings come from the bank's cache, never recomputed;
    the snapshot is taken at decision time, so admissions racing with
    this call land in the next step's context.
    """
    if not (triplet.agent_input and triplet.step_summary and triplet.agent_output):
        raise ValidationError("all step triplet fields must be non-empty")
    if provider.dimension != bank.embedding_dim:
        raise ConfigurationError(
            f"provider dimension {provider.dimension} != bank dimension {bank.embedding_dim}"
        )
    _, key_matrix = bank.context_snapshot()
    step_rows = np.stack(
        [
            embed(provider, triplet.agent_input),
            embed(provider, triplet.step_summary),
            embed(provider, triplet.agent_output),
        ]
    )
    return ControllerContext(
        query_embedding=embed(provider, query),
        memory_key_embeddings=key_matrix,
        step_embeddings=step_rows,
    )


def decide(
    policy: AdmissionPolicy,
    context: ControllerContext,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
    temperature: float = 1.0,
) -> Decision:
    """Evaluate the policy on a context and emit a YES/NO decision."""
    return sample_binary_decision(policy.forward(context), mode, rng=rng, temperature=temperature)


def action_index(action: str) -> int:
    """Column of ``action`` in the (YES, NO) logits."""
    if action not in (YES, NO):
        raise ValidationError(f"action must be YES or NO, got {action!r}")
    return 0 if action == YES else 1


def batch_loss_grads(
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

    ``forward`` is a (logits, cache) pair from ``forward_batch`` or
    ``forward_cached``; ``actions`` are action indices.  Returns
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


def step_loss_grads(
    policy: AdmissionPolicy,
    context: ControllerContext,
    action: str,
    advantage: float,
    lambda_sparse: float,
    temperature: float = 1.0,
    loss_weight: float = 1.0,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Fused per-step loss pieces and their combined parameter gradient.

    Returns (policy_term, sparsity_term, grads) where
    policy_term = -advantage * log pi(action), sparsity_term = pi(YES),
    and grads is the gradient of
    loss_weight * (policy_term + lambda_sparse * sparsity_term).
    """
    p_terms, s_terms, _, grads = batch_loss_grads(
        policy,
        policy.forward_cached(context),
        np.array([action_index(action)]),
        np.array([float(advantage)]),
        lambda_sparse,
        temperature,
        np.array([float(loss_weight)]),
    )
    return float(p_terms[0]), float(s_terms[0]), grads


def _context_probs(
    policy: AdmissionPolicy, context: ControllerContext, temperature: float
) -> tuple[np.ndarray, dict]:
    """pi(YES), pi(NO) for one context, and the cache of its batch pass."""
    if temperature <= 0:
        raise ValidationError("temperature must be > 0")
    logits, cache = policy.forward_cached(context)
    return softmax(logits[0], temperature), cache


def log_prob(
    policy: AdmissionPolicy,
    context: ControllerContext,
    action: str,
    temperature: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """log pi(action | context) and its gradient w.r.t. all parameters."""
    idx = action_index(action)
    probs, cache = _context_probs(policy, context, temperature)
    dlogits = (_ONE_HOT[idx] - probs) / temperature
    return float(np.log(probs[idx])), policy.backward_batch(cache, dlogits[None])


def prob_yes_with_grad(
    policy: AdmissionPolicy,
    context: ControllerContext,
    temperature: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """pi(YES | context) and its gradient; the sparsity penalty term."""
    probs, cache = _context_probs(policy, context, temperature)
    dlogits = probs[0] * (_ONE_HOT[0] - probs) / temperature
    return float(probs[0]), policy.backward_batch(cache, dlogits[None])
