import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hivemem.controller import (
    NO,
    YES,
    AdmissionPolicy,
    ControllerContext,
    action_index,
    decide,
    log_prob,
    prob_yes_with_grad,
    step_loss_grads,
)
from hivemem.embeddings import HashingEmbedder
from hivemem.errors import TrainingDiverged, ValidationError
from hivemem.runtime import ConstantAdmission, MajorityAggregator, run_episode
from hivemem.sim import ScriptedBackend, generate_task
from hivemem.training import (
    AdamW,
    TrainConfig,
    _group_loss_and_grads,
    _rollout_group,
    _rows,
    _store_trace,
    episode_reward,
    group_advantage,
    shaped_advantages,
    train,
)

PROVIDER = HashingEmbedder(32)


def pooled_context(query, keys, steps):
    """One-row context from raw embeddings, pooled here with np.add.reduce."""
    n = len(keys)
    return ControllerContext(
        queries=query[None],
        memory_means=(np.add.reduce(keys, axis=0) / n if n else np.zeros_like(query))[None],
        memory_sizes=np.array([n]),
        step_means=(np.add.reduce(steps, axis=0) / 3)[None],
    )


def step_loss(policy, context, action, advantage, lambda_sparse, loss_weight=1.0):
    """``step_loss_grads`` on a one-row context: (policy term, sparsity term, grads)."""
    p_terms, s_terms, _, grads = step_loss_grads(
        policy,
        policy.forward(context),
        np.array([action_index(action)]),
        np.array([float(advantage)]),
        lambda_sparse,
        1.0,
        np.array([float(loss_weight)]),
    )
    return float(p_terms[0]), float(s_terms[0]), grads


HEAVY = dict(
    depth=2, width=1, overlap_count=6, distractor_count=6, step_cap=14,
    p_fail=0.08, pollution_fail_boost=0.25, pollution_recovery_steps=2,
    pollution_corrupt_rate=0.65,
)
HEAVY_PROVIDER = HashingEmbedder(64)


def sim_trace(policy=None, seed=0, distractors=0, p_fail=0.1):
    task = generate_task(seed=50, depth=2, width=1, overlap_count=4,
                         distractor_count=distractors, p_fail=p_fail)
    trace = run_episode(task.task_spec(), 3, ScriptedBackend(task, 3), policy, PROVIDER,
                        MajorityAggregator(), seed=seed)
    return task, trace


# -- rewards -----------------------------------------------------------------


def test_episode_reward_full_marks():
    _, trace = sim_trace(ConstantAdmission(YES))
    reward = episode_reward(trace, lambda answer: 1.0, lambda_first=1.0)
    assert reward.r_total == 2.0


def test_episode_reward_zero():
    _, trace = sim_trace()
    reward = episode_reward(trace, lambda answer: 0.0)
    assert reward.r_total == 0.0


def test_episode_reward_partial_credit():
    _, trace = sim_trace()
    scores = iter([0.6, 0.4])  # aggregate then first-finisher
    reward = episode_reward(trace, lambda answer: next(scores), lambda_first=1.0)
    assert reward.r_total == pytest.approx(1.0)


def test_episode_reward_rejects_out_of_range_scorer():
    _, trace = sim_trace()
    with pytest.raises(ValidationError):
        episode_reward(trace, lambda answer: 1.5)


# -- group advantage ----------------------------------------------------------


def test_group_advantage_identical_rewards():
    assert np.allclose(group_advantage([1.0, 1.0, 1.0]), 0.0)


def test_group_advantage_reference_values():
    # independent arithmetic: mu=1, sigma=sqrt(0.4) (population)
    adv = group_advantage([2.0, 0.0, 1.0, 1.0, 1.0], eps=1e-8)
    sigma = math.sqrt(0.4)
    expected = [(r - 1.0) / (sigma + 1e-8) for r in (2.0, 0.0, 1.0, 1.0, 1.0)]
    assert np.allclose(adv, expected, atol=1e-9)
    assert adv[0] == pytest.approx(1.58114, abs=1e-5)
    assert adv[1] == pytest.approx(-1.58114, abs=1e-5)


def test_group_advantage_requires_two():
    with pytest.raises(ValidationError):
        group_advantage([1.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 2, allow_nan=False), min_size=2, max_size=10))
def test_group_advantage_normalization_identity(rewards):
    adv = group_advantage(rewards)
    sigma = float(np.std(rewards))
    # the epsilon in the denominator skews the unit-std identity by eps/sigma,
    # so the 1e-6 tolerance applies for practically sized reward spreads
    if sigma > 1e-2:
        assert abs(float(np.mean(adv))) < 1e-9
        assert float(np.std(adv)) == pytest.approx(1.0, abs=1e-6)
    else:
        assert np.all(np.isfinite(adv))


# -- shaped advantages ---------------------------------------------------------


def _trace_with_usage():
    task = generate_task(seed=51, depth=2, width=1, overlap_count=6,
                         distractor_count=0, p_fail=0.0)
    trace = run_episode(task.task_spec(), 3, ScriptedBackend(task, 3),
                        ConstantAdmission(YES), PROVIDER, MajorityAggregator(), seed=1)
    assert any(e["kind"] == "retrieve" for e in trace.events)
    return trace


def used_steps(trace):
    """(team, step) of every admitted step whose entry some team retrieved."""
    admitted_by = {e["entry_id"]: (e["team"], e["step"])
                   for e in trace.events if e["kind"] == "admit"}
    return {admitted_by[e["entry_id"]] for e in trace.events if e["kind"] == "retrieve"}


def test_shaped_advantage_bonus_applied():
    trace = _trace_with_usage()
    advantages = shaped_advantages(trace, a_base=-0.5, beta=0.25, r_total=0.8)
    used = used_steps(trace)
    for record, adv in zip(trace.decisions(), advantages):
        assert adv == pytest.approx(-0.25 if (record.team, record.step_index) in used else -0.5)
    assert any(a == pytest.approx(-0.25) for a in advantages)


def test_shaped_advantage_no_bonus_without_reward():
    trace = _trace_with_usage()
    advantages = shaped_advantages(trace, a_base=-0.5, beta=0.25, r_total=0.0)
    assert all(a == pytest.approx(-0.5) for a in advantages)


def test_shaped_advantage_values_restricted():
    trace = _trace_with_usage()
    a_base = 0.37
    advantages = shaped_advantages(trace, a_base=a_base, beta=0.25, r_total=1.0)
    for a in advantages:
        assert a == pytest.approx(a_base) or a == pytest.approx(a_base + 0.25)


def test_shaped_advantage_unretrieved_entry_gets_base():
    task = generate_task(seed=52, depth=1, width=1, overlap_count=1,
                         distractor_count=0, p_fail=0.0)
    trace = run_episode(task.task_spec(), 1, ScriptedBackend(task, 1),
                        ConstantAdmission(YES), PROVIDER, MajorityAggregator(), seed=0)
    assert any(e["kind"] == "admit" for e in trace.events)
    assert not any(e["kind"] == "retrieve" for e in trace.events)
    advantages = shaped_advantages(trace, a_base=0.1, beta=0.25, r_total=1.0)
    assert all(a == pytest.approx(0.1) for a in advantages)


def test_shaped_advantage_pays_own_team_retrievals():
    # k=1, so every retrieval is by the admitting team: the bonus still applies
    task = generate_task(seed=1005, **HEAVY)
    trace = run_episode(task.task_spec(), 1, ScriptedBackend(task, 1),
                        ConstantAdmission(YES), HEAVY_PROVIDER, MajorityAggregator(), seed=0)
    admits = [e for e in trace.events if e["kind"] == "admit"]
    own_used = {
        (a["team"], a["step"]) for a in admits
        if any(e["kind"] == "retrieve" and e["entry_id"] == a["entry_id"]
               and e["team"] == a["team"] for e in trace.events)
    }
    assert len(own_used) >= 2 and len(admits) > len(own_used)
    advantages = shaped_advantages(trace, a_base=0.5, beta=0.25, r_total=2.0)
    assert len(advantages) == len(admits)
    for record, adv in zip(trace.decisions(), advantages):
        assert adv == (0.75 if (record.team, record.step_index) in own_used else 0.5)


# -- losses --------------------------------------------------------------------


def random_contexts(rng, n, d=8):
    return [
        pooled_context(rng.normal(size=d), rng.normal(size=(2, d)), rng.normal(size=(3, d)))
        for _ in range(n)
    ]


def test_policy_loss_reference_value():
    # the untrained head admits with probability 0.5: the term is -2 * log 0.5
    policy = AdmissionPolicy(8, 4, seed=0)
    (context,) = random_contexts(np.random.default_rng(0), 1)
    p_term, _, _ = step_loss(policy, context, YES, advantage=2.0, lambda_sparse=0.0)
    assert p_term == pytest.approx(1.3862, abs=1e-3)


def test_policy_loss_zero_advantages():
    rng = np.random.default_rng(2)
    policy = AdmissionPolicy(8, 4, seed=2)
    for key in policy.params:
        policy.params[key] = rng.normal(0, 0.3, policy.params[key].shape)
    for context, action in zip(random_contexts(rng, 2), (YES, NO)):
        p_term, _, grads = step_loss(policy, context, action, advantage=0.0, lambda_sparse=0.0)
        assert p_term == 0.0
        assert all(not g.any() for g in grads.values())


def test_sparsity_loss_values():
    # the sparsity term is pi(YES): 0.5 untrained, 0 under a head that never admits
    policy = AdmissionPolicy(8, 4, seed=0)
    contexts = random_contexts(np.random.default_rng(1), 3)
    assert sum(step_loss(policy, c, NO, 0.0, 0.05)[1] for c in contexts[:2]) == 1.0
    policy.params["b_out"][:] = (-800.0, 0.0)
    assert sum(step_loss(policy, c, NO, 0.0, 0.05)[1] for c in contexts) == 0.0


def test_total_loss_arithmetic():
    # train() reports total = policy + lambda_sparse * sparsity for every update
    cfg = TrainConfig(group_size=2, epochs=1, replay_factor=3, lr=1e-3, seed=5, k=2,
                      lambda_sparse=0.1)
    (row,) = train(AdmissionPolicy(32, 8, seed=0), small_tasks(1), PROVIDER, cfg).epochs
    assert row["mean_sparsity_loss"] > 0
    assert row["mean_total_loss"] == pytest.approx(
        row["mean_policy_loss"] + 0.1 * row["mean_sparsity_loss"], abs=1e-12
    )


def test_total_loss_lambda_zero_is_policy_only():
    rng = np.random.default_rng(3)
    policy = AdmissionPolicy(8, 4, seed=3)
    for key in policy.params:
        policy.params[key] = rng.normal(0, 0.3, policy.params[key].shape)
    (context,) = random_contexts(rng, 1)
    _, _, grads = step_loss(policy, context, NO, advantage=1.5, lambda_sparse=0.0,
                            loss_weight=0.5)
    _, lp_grads = log_prob(policy, context, NO)
    for key in policy.params:
        np.testing.assert_allclose(grads[key], -0.75 * lp_grads[key], rtol=0.0, atol=1e-12)


def test_positive_advantage_increases_action_probability():
    rng = np.random.default_rng(0)
    policy = AdmissionPolicy(8, 4, seed=3)
    for key in policy.params:
        policy.params[key] = rng.normal(0, 0.3, policy.params[key].shape)
    (context,) = random_contexts(rng, 1)
    before, _ = log_prob(policy, context, YES)
    assert math.exp(before) < 1.0
    _, _, grads = step_loss(policy, context, YES, advantage=1.0, lambda_sparse=0.0)
    for key in policy.params:  # plain SGD step, lr 1e-3
        policy.params[key] -= 1e-3 * grads[key]
    after, _ = log_prob(policy, context, YES)
    assert after > before


def test_sparsity_only_training_drives_prob_down():
    rng = np.random.default_rng(1)
    policy = AdmissionPolicy(8, 4, seed=7)
    for key in policy.params:
        policy.params[key] = rng.normal(0, 0.3, policy.params[key].shape)
    contexts = random_contexts(rng, 6)
    optimizer = AdamW(policy, lr=1e-2, weight_decay=0.0)
    history = []
    for _ in range(200):
        grads = policy.zero_grads()
        mean_p = 0.0
        for c in contexts:
            p, g = prob_yes_with_grad(policy, c)
            mean_p += p / len(contexts)
            for key in grads:
                grads[key] += g[key] / len(contexts)
        history.append(mean_p)
        optimizer.step(grads)
    assert history[-1] < 0.1
    assert history[-1] < history[0]


# -- gradient of the composed objective ----------------------------------------


def test_composed_objective_gradcheck():
    h = 1e-5
    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(trial + 30)
        policy = AdmissionPolicy(4, 8, seed=trial)
        for key in policy.params:
            policy.params[key] = rng.normal(0, 0.5, policy.params[key].shape)
        contexts = [
            pooled_context(
                rng.normal(size=4),
                rng.normal(size=(int(rng.integers(1, 4)), 4)),
                rng.normal(size=(3, 4)),
            )
            for _ in range(4)
        ]
        actions = [YES if rng.random() < 0.5 else NO for _ in range(4)]
        advs = [float(rng.normal()) for _ in range(4)]
        lam = 0.05

        def objective():
            total = 0.0
            for c, a, adv in zip(contexts, actions, advs):
                lp, _ = log_prob(policy, c, a)
                py, _ = prob_yes_with_grad(policy, c)
                total += -adv * lp + lam * py
            return total

        grads = policy.zero_grads()
        for c, a, adv in zip(contexts, actions, advs):
            _, _, g = step_loss(policy, c, a, adv, lam)
            for key in grads:
                grads[key] += g[key]
        for key in policy.params:
            flat = policy.params[key].ravel()
            for i in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up = objective()
                flat[i] = orig - h
                down = objective()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                an = grads[key].ravel()[i]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    assert worst < 1e-4


# -- training loop --------------------------------------------------------------


def small_tasks(n=3, distractors=2):
    return [
        generate_task(seed=60 + i, depth=2, width=1, overlap_count=4,
                      distractor_count=distractors, step_cap=14, p_fail=0.1)
        for i in range(n)
    ]


def test_zero_advantage_no_learning():
    # identical rewards in every group, beta=0, lambda=0: parameters frozen
    policy = AdmissionPolicy(32, 8, seed=0)
    before = {k: v.copy() for k, v in policy.params.items()}
    tasks = [generate_task(seed=70, depth=1, width=1, overlap_count=2,
                           distractor_count=0, p_fail=0.0)]
    cfg = TrainConfig(group_size=3, epochs=1, replay_factor=2, beta=0.0,
                      lambda_sparse=0.0, lr=1e-3, weight_decay=0.0, seed=1, k=2)
    train(policy, tasks, PROVIDER, cfg)
    for key in policy.params:
        assert np.allclose(policy.params[key], before[key], atol=1e-12)
    context = pooled_context(
        PROVIDER.embed("q"), np.zeros((0, 32)), np.stack([PROVIDER.embed(t) for t in "abc"])
    )
    assert decide(policy, context).prob_yes == pytest.approx(0.5, abs=1e-9)


def test_training_report_structure(tmp_path):
    policy = AdmissionPolicy(32, 8, seed=0)
    cfg = TrainConfig(group_size=2, epochs=2, replay_factor=2, lr=1e-3, seed=3, k=2,
                      checkpoint_dir=str(tmp_path / "ckpts"),
                      report_path=str(tmp_path / "report.jsonl"))
    report = train(policy, small_tasks(2), PROVIDER, cfg)
    assert len(report.epochs) == 2
    for row in report.epochs:
        assert {"epoch", "mean_reward", "admission_rate", "mean_total_loss"} <= set(row)
    assert (tmp_path / "ckpts" / "epoch_001.npz").exists()
    assert (tmp_path / "report.jsonl").exists()
    lines = (tmp_path / "report.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3  # config + two epochs


def test_training_does_not_mutate_traces():
    # off-trace immutability: advantages and actions fixed during replay is
    # structural; here we check reward bookkeeping equals a recomputation
    policy = AdmissionPolicy(32, 8, seed=0)
    cfg = TrainConfig(group_size=2, epochs=1, replay_factor=3, lr=1e-3, seed=5, k=2)
    report = train(policy, small_tasks(1), PROVIDER, cfg)
    assert 0.0 <= report.epochs[0]["admission_rate"] <= 1.0


def test_training_diverged_checkpoint(tmp_path, monkeypatch):
    # sampled decisions fail closed on non-finite logits, so a blown-up loss
    # can only enter through the replay objective; inject one there
    import hivemem.training as training_mod

    def poisoned(policy, group, config):
        return float("inf"), 0.0, policy.zero_grads()

    monkeypatch.setattr(training_mod, "_group_loss_and_grads", poisoned)
    policy = AdmissionPolicy(32, 8, seed=0)
    cfg = TrainConfig(group_size=2, epochs=1, replay_factor=1, lr=1e-3, seed=7, k=2,
                      checkpoint_dir=str(tmp_path))
    with pytest.raises(TrainingDiverged):
        train(policy, small_tasks(1, distractors=0), PROVIDER, cfg)
    assert (tmp_path / "last_finite.npz").exists()


def test_nonfinite_logits_fail_closed_in_rollout():
    # a broken controller must not flood memory: decisions fail closed to NO
    policy = AdmissionPolicy(32, 8, seed=0)
    policy.params["w_out"][:] = np.nan
    task = generate_task(seed=71, depth=1, width=1, overlap_count=2,
                         distractor_count=0, p_fail=0.0)
    trace = run_episode(task.task_spec(), 2, ScriptedBackend(task, 2), policy, PROVIDER,
                        MajorityAggregator(), seed=0)
    assert not any(e["kind"] == "admit" for e in trace.events)
    assert all(r.decision.fail_closed for r in trace.decisions())


def test_config_roundtrip():
    cfg = TrainConfig(group_size=4, epochs=2, beta=0.5, lambda_sparse=0.01, seed=9)
    again = TrainConfig.from_json(cfg.to_json())
    assert again == cfg


def test_importance_weighting_flag():
    # replayed passes optionally reweight stale trajectories; both modes run
    for weighted in (False, True):
        policy = AdmissionPolicy(32, 8, seed=0)
        cfg = TrainConfig(group_size=2, epochs=1, replay_factor=3, lr=1e-3, seed=11,
                          k=2, importance_weighting=weighted)
        report = train(policy, small_tasks(1), PROVIDER, cfg)
        assert np.isfinite(report.epochs[0]["mean_total_loss"])


def test_group_size_validation():
    with pytest.raises(ValidationError):
        TrainConfig(group_size=1)


def test_negative_lambda_sparse_rejected():
    with pytest.raises(ValidationError, match="lambda_sparse"):
        TrainConfig(lambda_sparse=-0.01)


def test_adamw_grad_norm_ignores_dict_order():
    rng = np.random.default_rng(4)
    policy = AdmissionPolicy(6, 3, seed=0)
    grads = {k: rng.normal(0.0, 10.0 ** rng.integers(-3, 4), v.shape)
             for k, v in policy.params.items()}
    reordered = dict(reversed(list(grads.items())))
    squares = [float((g * g).sum()) for g in grads.values()]
    assert sum(squares) != sum(reversed(squares))  # dict order would show
    twin = AdmissionPolicy(6, 3, seed=0)
    first, second = AdamW(policy, lr=0.1), AdamW(twin, lr=0.1)
    assert first.step(grads) == second.step(reordered)
    for key in policy.params:
        assert np.array_equal(policy.params[key], twin.params[key])


def test_adamw_weight_decay_decoupled():
    policy = AdmissionPolicy(4, 2, seed=0)
    policy.params["w_query"][:] = 1.0
    optimizer = AdamW(policy, lr=0.1, weight_decay=0.5)
    optimizer.step(policy.zero_grads())
    # zero gradient: only the decay term applies
    assert np.allclose(policy.params["w_query"], 1.0 - 0.1 * 0.5 * 1.0)


def test_adamw_clips_gradient_norm():
    policy = AdmissionPolicy(4, 2, seed=0)
    grads = policy.zero_grads()
    grads["w_query"][:] = 100.0
    optimizer = AdamW(policy, lr=0.1, weight_decay=0.0, clip_norm=1.0)
    norm = optimizer.step(grads)
    assert norm > 1.0  # reported pre-clip norm


# -- packed replay ---------------------------------------------------------------


def _heavy_group(importance_weighting):
    """Packs of one sampled HEAVY group (k=3, G=5) and the per-step reference.

    One decision is marked fail-closed, and the parameters move after the
    packs are taken, as they do between replay passes.  Returns the policy,
    config, packs, and per kept decision (context, action, advantage,
    log-prob at collection time).
    """
    rng = np.random.default_rng(8)
    policy = AdmissionPolicy(64, 32, seed=0)
    for key in policy.params:
        policy.params[key] = rng.normal(0.0, 0.3, policy.params[key].shape)
    config = TrainConfig(group_size=5, k=3, seed=2, sample_temperature=1.2,
                         importance_weighting=importance_weighting)
    task = generate_task(seed=1005, **HEAVY)
    traces, rewards = _rollout_group(policy, task, HEAVY_PROVIDER, config, 0, 0)
    record = traces[1].decisions()[2]
    record.decision = dataclasses.replace(record.decision, fail_closed=True)
    base = group_advantage([r.r_total for r in rewards])
    packs, reference = [], []
    for trace, reward, a in zip(traces, rewards, base):
        packs.append(_store_trace(trace, reward, float(a), config.beta, policy,
                                  HEAVY_PROVIDER, config.loss_temperature))
        # the bank's key rows, rebuilt from the admit events in file order
        summaries = {(r.team, r.step_index): r.triplet.step_summary for r in trace.decisions()}
        keys = np.array([HEAVY_PROVIDER.embed(summaries[e["team"], e["step"]])
                         for e in trace.events if e["kind"] == "admit"]).reshape(-1, 64)
        advantages = shaped_advantages(trace, float(a), config.beta, reward.r_total)
        for record, adv in zip(trace.decisions(), advantages):
            if record.decision.fail_closed:
                continue
            t = record.triplet
            context = pooled_context(
                HEAVY_PROVIDER.embed(trace.query),
                keys[: record.mem_size_at_decision],
                np.stack([HEAVY_PROVIDER.embed(x) for x in
                          (t.agent_input, t.step_summary, t.agent_output)]),
            )
            action = record.decision.action
            reference.append((context, action, adv, log_prob(policy, context, action)[0]))
    assert len(reference) == sum(len(t.decisions()) for t in traces) - 1
    for key in policy.params:
        policy.params[key] += rng.normal(0.0, 0.05, policy.params[key].shape)
    return policy, config, packs, reference


def _reference_loss_and_grads(policy, config, reference):
    """The per-step replay loop: one one-row step_loss_grads call per decision, in order."""
    grads = policy.zero_grads()
    per_policy, per_sparse = [], []
    for context, action, adv, logp_collect in reference:
        weight = 1.0 / config.group_size
        if config.importance_weighting:
            logp_now, _ = log_prob(policy, context, action)
            weight *= math.exp(logp_now - logp_collect)
        p_term, s_term, g = step_loss(policy, context, action, adv,
                                      config.lambda_sparse, loss_weight=weight)
        per_policy.append(weight * p_term)
        per_sparse.append(weight * s_term)
        for key in grads:
            grads[key] += g[key]
    return per_policy, per_sparse, grads


def test_packed_group_covers_empty_memory_and_fail_closed_steps():
    policy, _, packs, reference = _heavy_group(False)
    assert sum(len(p.actions) for p in packs) == len(reference)
    empty = np.concatenate([p.memory_sizes for p in packs]) == 0
    assert empty.any() and not empty.all()
    # rows of the group's forward equal the one-row forwards, bit for bit
    logits, _ = policy.forward(_rows(packs))
    for row, (context, *_) in zip(logits, reference):
        assert np.array_equal(row, policy.forward(context)[0][0])


def _packed_loss_and_grads(policy, config, packs, monkeypatch):
    """``_group_loss_and_grads``, plus the weighted per-decision terms of the
    one ``step_loss_grads`` call it makes."""
    import hivemem.training as training_mod

    calls = []

    def recording(*args):
        calls.append(step_loss_grads(*args))
        return calls[-1]

    monkeypatch.setattr(training_mod, "step_loss_grads", recording)
    policy_term, sparsity_term, grads = _group_loss_and_grads(policy, packs, config)
    ((p_terms, s_terms, weights, _),) = calls
    per_policy, per_sparse = (weights * p_terms).tolist(), (weights * s_terms).tolist()
    return per_policy, per_sparse, policy_term, sparsity_term, grads


def test_packed_replay_equals_per_step_loop_bit_for_bit(monkeypatch):
    policy, config, packs, reference = _heavy_group(False)
    packed_policy, packed_sparse, policy_term, sparsity_term, grads = _packed_loss_and_grads(
        policy, config, packs, monkeypatch)
    per_policy, per_sparse, ref_grads = _reference_loss_and_grads(policy, config, reference)
    assert packed_policy == per_policy
    assert packed_sparse == per_sparse
    assert policy_term == sum(per_policy)
    assert sparsity_term == sum(per_sparse)
    assert list(grads) == list(policy.params)
    for key in policy.params:
        assert np.array_equal(grads[key], ref_grads[key]), key


def test_packed_replay_with_importance_weights_matches_loop(monkeypatch):
    policy, config, packs, reference = _heavy_group(True)
    packed_policy, packed_sparse, _, _, grads = _packed_loss_and_grads(
        policy, config, packs, monkeypatch)
    per_policy, per_sparse, ref_grads = _reference_loss_and_grads(policy, config, reference)
    # the ratios are not all 1: the parameters moved after collection
    plain = _reference_loss_and_grads(
        policy, dataclasses.replace(config, importance_weighting=False), reference)
    assert not np.allclose(plain[0], per_policy, rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(packed_policy, per_policy, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(packed_sparse, per_sparse, rtol=0.0, atol=1e-12)
    for key in policy.params:
        np.testing.assert_allclose(grads[key], ref_grads[key], rtol=0.0, atol=1e-12)
