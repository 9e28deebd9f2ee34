import math

import numpy as np
import pytest

from hivemem.bank import MemoryBank
from hivemem.controller import (
    NO,
    YES,
    AdmissionPolicy,
    ControllerContext,
    StepTriplet,
    build_context,
    decide,
    log_prob,
    prob_yes_with_grad,
    sample_binary_decision,
    step_loss_grads,
)
from hivemem.errors import ConfigurationError, ValidationError


def pooled_context(query, keys, steps):
    """One-row context from raw embeddings, pooled here as plain means."""
    return ControllerContext(
        queries=query[None],
        memory_means=(keys.mean(axis=0) if len(keys) else np.zeros_like(query))[None],
        memory_sizes=np.array([len(keys)]),
        step_means=steps.mean(axis=0)[None],
    )


def random_context(d_e, m, rng):
    return pooled_context(
        rng.normal(size=d_e), rng.normal(size=(m, d_e)), rng.normal(size=(3, d_e))
    )


def randomized_policy(d_e, d_c, seed):
    policy = AdmissionPolicy(d_e, d_c, seed=seed)
    rng = np.random.default_rng(seed + 999)
    for key in policy.params:
        policy.params[key] = rng.normal(0, 0.5, policy.params[key].shape)
    return policy


def test_initial_probability_is_half():
    policy = AdmissionPolicy(8, 4, seed=1)
    d = decide(policy, random_context(8, 3, np.random.default_rng(0)))
    assert d.prob_yes == pytest.approx(0.5, abs=1e-12)


def test_equal_logits_give_half():
    d = sample_binary_decision(np.array([3.7, 3.7]), "greedy")
    assert d.prob_yes == pytest.approx(0.5, abs=1e-12)
    assert d.action == YES  # documented tie-break toward YES


def test_greedy_argmax():
    d = sample_binary_decision(np.array([2.0, 1.0]), "greedy")
    assert d.action == YES
    d = sample_binary_decision(np.array([0.5, 1.5]), "greedy")
    assert d.action == NO


def test_sampled_frequency_matches_closed_form():
    # two-way softmax at T=1.2: sigma(1/1.2) ~= 0.6971
    p_expected = 1.0 / (1.0 + math.exp(-1.0 / 1.2))
    rng = np.random.default_rng(7)
    hits = sum(
        sample_binary_decision(np.array([2.0, 1.0]), "sampled", rng, 1.2).action == YES
        for _ in range(20_000)
    )
    assert hits / 20_000 == pytest.approx(p_expected, abs=0.01)


def test_probability_normalization():
    rng = np.random.default_rng(3)
    policy = randomized_policy(6, 4, 3)
    for _ in range(20):
        c = random_context(6, int(rng.integers(0, 5)), rng)
        d = decide(policy, c)
        lp_yes, _ = log_prob(policy, c, YES)
        lp_no, _ = log_prob(policy, c, NO)
        assert math.exp(lp_yes) + math.exp(lp_no) == pytest.approx(1.0, abs=1e-12)
        assert d.prob_yes + (1 - d.prob_yes) == pytest.approx(1.0, abs=1e-12)


def test_temperature_monotonicity():
    logits = np.array([1.3, -0.4])
    probs = [
        sample_binary_decision(logits, "sampled", np.random.default_rng(0), t).prob_yes
        for t in (0.5, 1.0, 2.0, 8.0)
    ]
    gaps = [abs(p - 0.5) for p in probs]
    assert gaps == sorted(gaps, reverse=True)


def test_low_temperature_matches_greedy():
    rng = np.random.default_rng(11)
    policy = randomized_policy(6, 4, 5)
    agree = total = 0
    for _ in range(20):
        c = random_context(6, 2, rng)
        g = decide(policy, c, "greedy").action
        for _ in range(500):
            total += 1
            agree += decide(policy, c, "sampled", rng, temperature=0.01).action == g
    assert agree / total >= 0.99


def test_fail_closed_on_nonfinite():
    d = sample_binary_decision(np.array([np.nan, 1.0]), "sampled", np.random.default_rng(0))
    assert d.action == NO and d.fail_closed


def test_log_prob_at_zero_logits():
    policy = AdmissionPolicy(6, 4, seed=0)  # zero-init head
    c = random_context(6, 2, np.random.default_rng(0))
    lp, _ = log_prob(policy, c, YES)
    assert lp == pytest.approx(math.log(0.5), abs=1e-12)


def test_gradient_matches_finite_differences():
    # >= 100 random contexts across several random policies
    h = 1e-5
    worst = 0.0
    checked = 0
    for trial in range(10):
        rng = np.random.default_rng(trial)
        policy = randomized_policy(4, 8, trial)
        for _ in range(11):
            c = random_context(4, int(rng.integers(0, 4)), rng)
            action = YES if rng.random() < 0.5 else NO
            lp, grads = log_prob(policy, c, action)
            checked += 1
            for key in policy.params:
                flat = policy.params[key].ravel()
                for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                    orig = flat[i]
                    flat[i] = orig + h
                    up, _ = log_prob(policy, c, action)
                    flat[i] = orig - h
                    down, _ = log_prob(policy, c, action)
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    an = grads[key].ravel()[i]
                    # floor keeps the ratio meaningful for vanishing gradients,
                    # where central differences bottom out near 1e-12 absolute
                    worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    assert checked >= 100
    assert worst < 1e-4


def test_all_parameters_participate_in_gradient():
    rng = np.random.default_rng(5)
    policy = randomized_policy(6, 4, 9)
    c = random_context(6, 3, rng)  # non-empty memory so memory projection is live
    _, grads = log_prob(policy, c, YES)
    for key, g in grads.items():
        assert np.abs(g).max() > 0, f"parameter {key} got zero gradient"


def test_memory_permutation_invariance(provider):
    # two banks admit the same keys in different orders
    rng = np.random.default_rng(13)
    policy = randomized_policy(provider.dimension, 4, 13)
    summaries = [f"partial result {i} pinned down" for i in range(5)]
    perm = rng.permutation(5)
    assert list(perm) != sorted(perm)
    triplet = StepTriplet("check the result", "result checked", "the result holds")
    decisions = []
    for order in (range(5), perm):
        bank = MemoryBank(provider.dimension)
        for step, i in enumerate(order, 1):
            bank.admit(summaries[i], "out", provider.embed(summaries[i]), 1, step)
        decisions.append(decide(policy, build_context("the query", bank, triplet, provider)))
    d1, d2 = decisions
    assert d1.prob_yes == pytest.approx(d2.prob_yes, abs=1e-12)
    assert d1.action == d2.action


def test_build_context_shapes(provider):
    bank = MemoryBank(provider.dimension)
    triplet = StepTriplet("do thing", "thing done", "result of thing")
    c = build_context("the query", bank, triplet, provider)
    for rows in (c.queries, c.memory_means, c.step_means):
        assert rows.shape == (1, provider.dimension)
    assert list(c.memory_sizes) == [0]
    assert not c.memory_means.any()
    steps = [provider.embed(t) for t in ("do thing", "thing done", "result of thing")]
    assert np.allclose(c.step_means[0], np.mean(steps, axis=0))

    for i in range(5):
        text = f"key {i}"
        bank.admit(text, "out", provider.embed(text), 1, i + 1)
    c = build_context("the query", bank, triplet, provider)
    assert c.memory_means.shape == (1, provider.dimension)
    assert list(c.memory_sizes) == [5]
    keys = [provider.embed(summary) for _, summary in bank.list_keys()]
    assert np.allclose(c.memory_means[0], np.mean(keys, axis=0))


def test_build_context_cached_embeddings_match_recompute(provider):
    bank = MemoryBank(provider.dimension)
    rng = np.random.default_rng(0)
    for i in range(10):
        text = f"memory item {rng.integers(1_000_000)}"
        bank.admit(text, "out", provider.embed(text), 1, i + 1)
    c = build_context("q", bank, StepTriplet("a", "b", "c"), provider)
    recomputed = np.stack([provider.embed(e.summary) for e in bank.entries])
    assert np.allclose(c.memory_means[0], recomputed.mean(axis=0))


def test_dimension_mismatch_rejected(tiny_provider):
    policy = AdmissionPolicy(16, 4)
    c = pooled_context(np.zeros(8), np.zeros((0, 8)), np.zeros((3, 8)))
    with pytest.raises(ConfigurationError):
        policy.forward(c)


def test_empty_triplet_field_rejected(provider):
    bank = MemoryBank(provider.dimension)
    with pytest.raises(ValidationError):
        build_context("q", bank, StepTriplet("", "s", "o"), provider)


def test_checkpoint_roundtrip(tmp_path):
    policy = randomized_policy(6, 4, 21)
    path = tmp_path / "ckpt.npz"
    policy.save(str(path), provider_name="hashing-v1:d=6")
    loaded, meta = AdmissionPolicy.load(str(path), expected_embed_dim=6)
    assert meta["provider"] == "hashing-v1:d=6"
    assert meta["format_version"] == 1
    for key in policy.params:
        assert np.array_equal(loaded.params[key], policy.params[key])
    with pytest.raises(ConfigurationError):
        AdmissionPolicy.load(str(path), expected_embed_dim=12)


def test_param_count_reported():
    policy = AdmissionPolicy(4, 8)
    total = sum(p.size for p in policy.params.values())
    assert policy.param_count == total > 0


def test_step_loss_grads_consistency():
    rng = np.random.default_rng(2)
    policy = randomized_policy(5, 4, 2)
    c = random_context(5, 2, rng)
    p_terms, s_terms, weights, grads = step_loss_grads(
        policy, policy.forward(c), np.array([0]), np.array([0.7]), 0.05, 1.0, np.array([2.0])
    )
    lp, lp_grads = log_prob(policy, c, YES)
    py, py_grads = prob_yes_with_grad(policy, c)
    assert p_terms[0] == pytest.approx(-0.7 * lp, abs=1e-12)
    assert s_terms[0] == pytest.approx(py, abs=1e-12)
    assert weights[0] == 2.0
    for key in policy.params:  # weight * (-advantage * dlog pi + lambda * dpi(YES))
        expected = 2.0 * (-0.7 * lp_grads[key] + 0.05 * py_grads[key])
        np.testing.assert_allclose(grads[key], expected, rtol=0.0, atol=1e-12)
