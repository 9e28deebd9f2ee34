import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hivemem.bank import MemoryBank
from hivemem.controller import (
    NO,
    YES,
    GREEDY_CACHE_SIZE,
    AdmissionPolicy,
    ControllerContext,
    StepTriplet,
    _greedy_decision,
    build_context,
    log_prob,
    prob_yes_with_grad,
    sample_binary_decision,
    softmax,
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
    context = random_context(8, 3, np.random.default_rng(0))
    d = sample_binary_decision(policy.forward(context)[0][0], "greedy")
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
        d = sample_binary_decision(policy.forward(c)[0][0], "greedy")
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
        logits = policy.forward(c)[0][0]
        g = sample_binary_decision(logits, "greedy").action
        for _ in range(500):
            total += 1
            agree += sample_binary_decision(logits, "sampled", rng, 0.01).action == g
    assert agree / total >= 0.99


def test_fail_closed_on_nonfinite():
    d = sample_binary_decision(np.array([np.nan, 1.0]), "sampled", np.random.default_rng(0))
    assert d.action == NO and d.fail_closed


def _bits(decision):
    return (decision.action, decision.prob_yes.hex(), decision.log_prob_action.hex(),
            decision.fail_closed)


_LOGITS = st.floats(-700.0, 700.0)


@settings(max_examples=400, deadline=None)
@given(yes=_LOGITS, no=_LOGITS, tie=st.booleans(), temperature=st.floats(0.05, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_decision_matches_the_softmax_reference_bit_for_bit(yes, no, tie, temperature, seed):
    logits = np.array([yes, yes if tie else no])
    for mode in ("greedy", "sampled"):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        probs = softmax(logits, temperature if mode == "sampled" else 1.0)
        if mode == "greedy":
            take_yes = logits[0] >= logits[1]
        else:
            take_yes = ref_rng.random() < probs[0]
        p_action = probs[0] if take_yes else probs[1]
        reference = (YES if take_yes else NO, float(probs[0]).hex(),
                     float(np.log(p_action)).hex(), False)
        decision = sample_binary_decision(logits, mode, rng, temperature)
        assert _bits(decision) == reference
        assert rng.random() == ref_rng.random()  # the same number of draws


def _reference_bits(yes, no):
    """A greedy decision's bits by ``softmax``, as ``_bits`` gives them."""
    probs = softmax(np.array([yes, no]), 1.0)
    take_yes = yes >= no
    return (YES if take_yes else NO, float(probs[0]).hex(),
            float(np.log(probs[0] if take_yes else probs[1])).hex(), False)


@settings(max_examples=400, deadline=None)
@given(yes=_LOGITS, no=_LOGITS, tie=st.booleans())
def test_cached_greedy_decision_matches_the_softmax_reference_bit_for_bit(yes, no, tie):
    logits = np.array([yes, yes if tie else no])
    first = sample_binary_decision(logits, "greedy")
    second = sample_binary_decision(logits.copy(), "greedy")
    assert second is first  # the second call is a cache hit
    assert _bits(second) == _reference_bits(*logits.tolist())


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 700.0, -700.0]


@pytest.mark.parametrize("yes", _EDGES)
@pytest.mark.parametrize("no", _EDGES)
def test_signed_zeros_and_ties_share_cached_decisions_bit_for_bit(yes, no):
    def flip_zero(x):
        return -x if x == 0 else x

    _greedy_decision.cache_clear()  # (yes, no) fills the cache; the zero flips may hit it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in ((yes, no), (flip_zero(yes), no), (yes, flip_zero(no)),
                     (flip_zero(yes), flip_zero(no))):
            assert _bits(sample_binary_decision(np.array(pair), "greedy")) == _reference_bits(*pair)


@settings(max_examples=200, deadline=None)
@given(yes=_LOGITS, no=_LOGITS, temperature=st.floats(0.05, 5.0), seed=st.integers(0, 2**32 - 1))
def test_decisions_raise_no_runtime_warning(yes, no, temperature, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            sample_binary_decision(np.array([yes, no]), "greedy")
            sample_binary_decision(np.array([yes, no]), "sampled",
                                   np.random.default_rng(seed), temperature)


def test_greedy_cache_stops_at_its_cap():
    _greedy_decision.cache_clear()
    for i in range(GREEDY_CACHE_SIZE + 100):
        sample_binary_decision(np.array([float(i), 0.5]), "greedy")
    info = _greedy_decision.cache_info()
    assert info.currsize == info.maxsize == GREEDY_CACHE_SIZE
    assert info.misses == GREEDY_CACHE_SIZE + 100
    sample_binary_decision(np.array([0.0, 0.5]), "greedy")  # the first pair was evicted
    assert _greedy_decision.cache_info().misses == GREEDY_CACHE_SIZE + 101
    _greedy_decision.cache_clear()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_logits_are_never_cached_and_warn_every_call(caplog, bad):
    _greedy_decision.cache_clear()
    with caplog.at_level("WARNING", logger="hivemem.controller"):
        for _ in range(3):
            decision = sample_binary_decision(np.array([bad, 1.0]), "greedy")
            assert decision.fail_closed
    assert sum("non-finite" in r.getMessage() for r in caplog.records) == 3
    assert _greedy_decision.cache_info() == (0, 0, GREEDY_CACHE_SIZE, 0)


def test_sampled_decisions_leave_the_greedy_cache_untouched():
    _greedy_decision.cache_clear()
    rng = np.random.default_rng(0)
    first = sample_binary_decision(np.array([0.3, -0.2]), "sampled", rng)
    again = sample_binary_decision(np.array([0.3, -0.2]), "sampled", rng, 1.0)
    assert again is not first
    assert _greedy_decision.cache_info() == (0, 0, GREEDY_CACHE_SIZE, 0)


@settings(max_examples=100, deadline=None)
@given(bad=st.sampled_from([np.nan, np.inf, -np.inf]), other=st.one_of(_LOGITS, st.just(np.nan)),
       bad_first=st.booleans(), mode=st.sampled_from(["greedy", "sampled"]))
def test_nonfinite_logits_fail_closed_without_a_draw(bad, other, bad_first, mode):
    rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
    logits = np.array([bad, other] if bad_first else [other, bad])
    decision = sample_binary_decision(logits, mode, rng, 1.3)
    assert decision.action == NO and decision.fail_closed
    assert decision.prob_yes == 0.5 and decision.log_prob_action == math.log(0.5)
    assert rng.random() == ref_rng.random()


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
        context = build_context("the query", bank, triplet, provider)
        decisions.append(sample_binary_decision(policy.forward(context)[0][0], "greedy"))
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
    recomputed = np.stack([provider.embed(summary) for _, summary in bank.list_keys()])
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
    p_terms, s_terms, grads = step_loss_grads(
        policy, c, np.array([0]), np.array([0.7]), 0.05, 2.0
    )
    lp, lp_grads = log_prob(policy, c, YES)
    py, py_grads = prob_yes_with_grad(policy, c)
    assert p_terms[0] == pytest.approx(-0.7 * lp, abs=1e-12)
    assert s_terms[0] == pytest.approx(py, abs=1e-12)
    for key in policy.params:  # weight * (-advantage * dlog pi + lambda * dpi(YES))
        expected = 2.0 * (-0.7 * lp_grads[key] + 0.05 * py_grads[key])
        np.testing.assert_allclose(grads[key], expected, rtol=0.0, atol=1e-12)
