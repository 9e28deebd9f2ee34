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

import functools
import json
import logging
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .bank import MemoryBank
from .embeddings import EmbeddingProvider
from .errors import ConfigurationError, ValidationError, require_int

logger = logging.getLogger(__name__)

YES = "YES"
NO = "NO"

CHECKPOINT_FORMAT_VERSION = 1

DECISION_MODES = ("greedy", "sampled")

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
    ignores it there.  ``projected``, when set, holds each row's three
    source projections (query, memory, step) as ``forward`` would compute
    them, so ``forward`` runs only the head: ``LearnedAdmission`` fills it
    from its memo of rows, and every other caller leaves it None.
    """

    queries: np.ndarray        # (N, d_e)
    memory_means: np.ndarray   # (N, d_e), mean of the keys visible at decision time
    memory_sizes: np.ndarray   # (N,) number of keys that mean covers
    step_means: np.ndarray     # (N, d_e), mean of the step triplet's embeddings
    projected: np.ndarray | None = None  # (N, 3 * d_c), the first layer's input rows


@dataclass(frozen=True)
class Decision:
    """Outcome of one admission decision.

    ``log_prob_action`` is the log-probability of the taken action at the
    temperature the decision was made with; training recomputes
    log-probabilities at temperature 1.
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
    broken controller can never flood the memory bank.  The two logits
    are worked on as Python floats with ``softmax``'s formula and numpy's
    ``exp`` and ``log``, so the probabilities match ``softmax`` bit for bit.

    A greedy decision depends on the logits alone, so it is built once per
    pair of finite logits and then shared: up to ``GREEDY_CACHE_SIZE``
    pairs, least recently used first out (``_greedy_decision``).  Every
    decision is still one call here; sampled decisions are never cached.
    """
    if not 0 < temperature < math.inf:  # NaN fails both comparisons
        raise ValidationError(f"temperature must be finite and > 0, not {temperature!r}")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (2,):
        raise ValidationError("expected exactly two logits (YES, NO)")
    yes, no = logits.tolist()
    if not (math.isfinite(yes) and math.isfinite(no)):
        logger.warning("non-finite controller logits %s; failing closed to NO", logits)
        return _FAIL_CLOSED
    if mode == "greedy":
        return _greedy_decision(yes, no)
    if mode != "sampled":
        raise ValidationError(f"unknown decision mode {mode!r}")
    if rng is None:
        raise ValidationError("sampled mode requires a random generator")
    p_yes, p_no = _two_way_softmax(yes / temperature, no / temperature)
    return _decision(p_yes, p_no, rng.random() < p_yes)


def _decision(p_yes: float, p_no: float, take_yes: bool) -> Decision:
    return Decision(
        action=YES if take_yes else NO,
        prob_yes=p_yes,
        log_prob_action=float(np.log(p_yes if take_yes else p_no)),
    )


def _two_way_softmax(yes: float, no: float) -> tuple[float, float]:
    """``softmax``'s formula on two finite Python floats."""
    top = max(yes, no)
    e_yes, e_no = float(np.exp(yes - top)), float(np.exp(no - top))
    return e_yes / (e_yes + e_no), e_no / (e_yes + e_no)


# A cached pair costs about 350 bytes; an eval pass of the benchmark meets about 2k pairs.
GREEDY_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=GREEDY_CACHE_SIZE)
def _greedy_decision(yes: float, no: float) -> Decision:
    """The greedy Decision of two finite logits, at temperature 1; ties go to YES.

    0.0 and -0.0 compare and hash equal, so they share a key; they give
    the same bits too, since a zero's sign reaches ``exp`` only as the
    sign of a zero, and ``exp`` maps both zeros to 1.
    """
    p_yes, p_no = _two_way_softmax(yes, no)
    return _decision(p_yes, p_no, yes >= no)


_FAIL_CLOSED = Decision(
    action=NO, prob_yes=0.5, log_prob_action=float(np.log(0.5)), fail_closed=True
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
    pools to the zero vector.  ``embed_dim`` and ``controller_dim`` are
    integers >= 1 and ``seed`` one >= 0 (``require_int``).
    """

    def __init__(self, embed_dim: int, controller_dim: int = 32, seed: int = 0):
        self.embed_dim = d_e = require_int("embed_dim", embed_dim, 1)
        self.controller_dim = d_c = require_int("controller_dim", controller_dim, 1)
        rng = np.random.default_rng(require_int("seed", seed, 0))
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

    def project(self, source: str, rows: np.ndarray) -> np.ndarray:
        """Rows (N, d_e) of one source ("query", "memory" or "step")
        projected into the controller width, each by its own gemv."""
        return _rowwise(self.params[f"w_{source}"], rows) + self.params[f"b_{source}"]

    def forward(self, context: ControllerContext) -> tuple[np.ndarray, dict]:
        """Logits (N, 2) over (YES, NO) of N decisions; returns (logits, cache).

        Each matrix-vector product runs row by row as its own gemv, so a
        row's logits are the same bit for bit whatever rows share its batch.
        A context whose ``projected`` rows are set skips the three source
        projections; those rows must be what ``project`` gives, with the
        memory part +0.0 where the memory is empty.
        """
        if context.queries.shape[1] != self.embed_dim:
            raise ConfigurationError(
                f"context dimension {context.queries.shape[1]} != policy embed_dim {self.embed_dim}"
            )
        p = self.params
        h0 = context.projected
        if h0 is None:
            pooled_m = self.project("memory", context.memory_means)
            pooled_m[context.memory_sizes == 0] = 0.0
            h0 = np.concatenate([self.project("query", context.queries), pooled_m,
                                 self.project("step", context.step_means)], axis=1)
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
        """The policy and meta of a checkpoint ``save`` wrote; a ConfigurationError
        names ``path`` if it is missing, unreadable or not such a checkpoint."""
        try:
            with np.load(path) as data:  # a missing array raises KeyError
                meta = json.loads(bytes(data["__meta__"]).decode())
                version = meta.get("format_version") if isinstance(meta, dict) else None
                if version != CHECKPOINT_FORMAT_VERSION:
                    raise ValueError(f"unsupported checkpoint format {version!r}")
                policy = cls(meta.get("embed_dim"), meta.get("controller_dim"))
                dim = policy.embed_dim
                if expected_embed_dim not in (None, dim):
                    raise ValueError(f"embed_dim {dim} != expected {expected_embed_dim}")
                for key in PARAM_KEYS:
                    value = data[key]
                    if value.shape != policy.params[key].shape:
                        raise ValueError(f"parameter {key!r} has wrong shape")
                    policy.params[key] = np.asarray(value, dtype=np.float64)
        except (OSError, EOFError, KeyError, ValueError, ValidationError,
                zipfile.BadZipFile) as exc:
            raise ConfigurationError(f"bad checkpoint {path}: {type(exc).__name__}: {exc}") from exc
        return policy, meta


def step_mean(provider: EmbeddingProvider, triplet: StepTriplet) -> np.ndarray:
    """Mean of the triplet's embeddings: (input + summary) + output, over 3."""
    return (
        provider.embed(triplet.agent_input)
        + provider.embed(triplet.step_summary)
        + provider.embed(triplet.agent_output)
    ) / 3


def build_context(
    query: str,
    bank: MemoryBank,
    triplet: StepTriplet,
    provider: EmbeddingProvider,
    snapshot: tuple[list, np.ndarray] | None = None,
) -> ControllerContext:
    """Assemble the one-row decision context for the current step.

    The memory mean comes from the bank's running key sum, never
    recomputed; the snapshot is taken at decision time, so admissions
    racing with this call land in the next step's context.  A caller that
    has already taken this decision's ``bank.context_snapshot()`` passes it
    as ``snapshot``.
    """
    if not (triplet.agent_input and triplet.step_summary and triplet.agent_output):
        raise ValidationError("all step triplet fields must be non-empty")
    if provider.dimension != bank.embedding_dim:
        raise ConfigurationError(
            f"provider dimension {provider.dimension} != bank dimension {bank.embedding_dim}"
        )
    keys, key_sum = bank.context_snapshot() if snapshot is None else snapshot
    size = len(keys)
    return ControllerContext(
        queries=provider.embed(query)[None],
        memory_means=(key_sum / max(size, 1))[None],
        memory_sizes=np.array([size]),
        step_means=step_mean(provider, triplet)[None],
    )


def action_index(action: str) -> int:
    """Column of ``action`` in the (YES, NO) logits."""
    if action not in (YES, NO):
        raise ValidationError(f"action must be YES or NO, got {action!r}")
    return 0 if action == YES else 1


def step_loss_grads(
    policy: AdmissionPolicy,
    context: ControllerContext,
    actions: np.ndarray,
    advantages: np.ndarray,
    lambda_sparse: float,
    loss_weight: float,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Per-decision loss pieces of N decisions and their summed gradient.

    Runs one forward pass over ``context``; ``actions`` are action indices,
    and the loss is taken at temperature 1.  Returns
    (policy_terms, sparsity_terms, grads): -advantages * log pi(action),
    pi(YES), and the gradient of
    sum_n loss_weight * (policy_terms[n] + lambda_sparse * sparsity_terms[n]).
    """
    logits, cache = policy.forward(context)
    probs = softmax(logits, 1.0)
    logp = np.log(probs[np.arange(len(actions)), actions])
    dlogp = _ONE_HOT[actions] - probs
    dpyes = probs[:, :1] * (_ONE_HOT[0] - probs)
    dlogits = loss_weight * (-advantages[:, None] * dlogp + lambda_sparse * dpyes)
    return -advantages * logp, probs[:, 0], policy.backward_batch(cache, dlogits)


def log_prob(
    policy: AdmissionPolicy,
    context: ControllerContext,
    action: str,
) -> tuple[float, dict[str, np.ndarray]]:
    """log pi(action | context) at temperature 1 and its gradient w.r.t. all parameters."""
    idx = action_index(action)
    logits, cache = policy.forward(context)
    probs = softmax(logits[0], 1.0)
    dlogits = _ONE_HOT[idx] - probs
    return float(np.log(probs[idx])), policy.backward_batch(cache, dlogits[None])


def prob_yes_with_grad(
    policy: AdmissionPolicy,
    context: ControllerContext,
) -> tuple[float, dict[str, np.ndarray]]:
    """pi(YES | context) at temperature 1 and its gradient; the sparsity penalty term."""
    logits, cache = policy.forward(context)
    probs = softmax(logits[0], 1.0)
    dlogits = probs[0] * (_ONE_HOT[0] - probs)
    return float(probs[0]), policy.backward_batch(cache, dlogits[None])
