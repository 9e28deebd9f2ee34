"""Acceptance suite: one test per criterion, tolerances pinned.

Criterion 6 is split into its two clauses so each prints its own
pass/fail line: without the sparsity penalty (c06a) the controller admits
nearly everything; without the usage bonus (c06b) admission of useful
steps collapses, fewer memories are saved and the runtime gain is lost.
"""

import json
import math
import threading
import time

import numpy as np
import pytest

from hivemem.bank import MemoryBank
from hivemem.controller import (
    NO,
    YES,
    AdmissionPolicy,
    ControllerContext,
    sample_binary_decision,
    step_loss_grads,
)
from hivemem.embeddings import HashingEmbedder
from hivemem.errors import EntryNotFoundError
from hivemem.metrics import metrics_from_event_streams
from hivemem.runtime import HeuristicAdmission, MajorityAggregator, run_episode
from hivemem.sim import ScriptedBackend, generate_task, prob_yes_by_label, run_variant, variant_policy
from hivemem.training import TrainConfig, group_advantage, shaped_advantages, train

PROVIDER = HashingEmbedder(64)
K = 3

# Distractor-heavy family used by criteria 5 and 6 (training + held-out).
HEAVY = dict(
    depth=2, width=1, overlap_count=6, distractor_count=6, step_cap=14,
    p_fail=0.08, pollution_fail_boost=0.25, pollution_recovery_steps=2,
    pollution_corrupt_rate=0.65,
)
TRAIN_SEED0 = 1000
HELD_SEED0 = 20000
EVAL_SEED = 17


def heavy_task(seed):
    return generate_task(seed=seed, **HEAVY)


def train_policy(beta: float, lambda_sparse: float) -> AdmissionPolicy:
    tasks = [heavy_task(TRAIN_SEED0 + i) for i in range(50)]
    policy = AdmissionPolicy(64, 32, seed=0)
    config = TrainConfig(
        group_size=5, epochs=5, replay_factor=10, sample_temperature=1.2,
        beta=beta, lambda_sparse=lambda_sparse, lr=1.5e-3, seed=42, k=K,
    )
    train(policy, tasks, PROVIDER, config)
    return policy


@pytest.fixture(scope="module")
def held_out_tasks():
    return [heavy_task(HELD_SEED0 + i) for i in range(100)]


@pytest.fixture(scope="module")
def trained_full():
    return train_policy(beta=0.25, lambda_sparse=0.05)


@pytest.fixture(scope="module")
def full_objective_metrics(trained_full, held_out_tasks):
    return run_variant(held_out_tasks, trained_full, K, [EVAL_SEED], PROVIDER,
                       keep_traces=True)


def test_c01_math_oracles():
    start = time.perf_counter()
    # group advantage against independent arithmetic
    adv = group_advantage([2.0, 0.0, 1.0, 1.0, 1.0])
    sigma = math.sqrt(0.4)
    expected = [(r - 1.0) / (sigma + 1e-8) for r in (2.0, 0.0, 1.0, 1.0, 1.0)]
    assert np.allclose(adv, expected, atol=1e-9)

    assert np.allclose(group_advantage([0.7, 0.7, 0.7, 0.7, 0.7]), 0.0)

    # shaped advantages take values only in {a_base, a_base + beta}
    task = generate_task(seed=51, depth=2, width=1, overlap_count=6,
                         distractor_count=0, p_fail=0.0)
    trace = run_episode(task, K, ScriptedBackend(task, K),
                        variant_policy("add-all"), PROVIDER, MajorityAggregator(), seed=1)
    a_base, beta = -0.31, 0.25
    values = shaped_advantages(trace.events, a_base, beta, r_total=1.2)
    for v in values:
        assert v == pytest.approx(a_base) or v == pytest.approx(a_base + beta)
    assert any(v == pytest.approx(a_base + beta) for v in values)
    assert time.perf_counter() - start < 1.0


def test_c02_gradient_correctness():
    start = time.perf_counter()
    h, lam = 1e-5, 0.05
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(trial)
        policy = AdmissionPolicy(4, 8, seed=trial)
        for key in policy.params:
            policy.params[key] = rng.normal(0, 0.5, policy.params[key].shape)
        rows = []
        for _ in range(3):
            query = rng.normal(size=4)
            keys = rng.normal(size=(int(rng.integers(1, 4)), 4))
            steps = rng.normal(size=(3, 4))
            rows.append((query, keys.mean(axis=0), len(keys), steps.mean(axis=0)))
        context = ControllerContext(  # three decisions, pooled as plain means
            queries=np.stack([r[0] for r in rows]),
            memory_means=np.stack([r[1] for r in rows]),
            memory_sizes=np.array([r[2] for r in rows]),
            step_means=np.stack([r[3] for r in rows]),
        )
        actions = np.array([0 if rng.random() < 0.5 else 1 for _ in rows])  # 0 = YES
        advantages = np.array([float(rng.normal()) for _ in rows])

        def objective():
            """sum_n -advantage * log pi(action) + lam * pi(YES), softmax taken here."""
            logits, _ = policy.forward(context)
            z = logits - logits.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            chosen = logp[np.arange(len(actions)), actions]
            return float(np.sum(-advantages * chosen + lam * np.exp(logp[:, 0])))

        *_, grads = step_loss_grads(policy, context, actions, advantages, lam, 1.0)
        for key in policy.params:
            flat = policy.params[key].ravel()
            for i in range(flat.size):
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
    assert time.perf_counter() - start < 30.0


def test_c03_baseline_equivalence():
    start = time.perf_counter()
    strip = lambda events: [e for e in events if e["kind"] != "decision"]  # noqa: E731
    for i in range(100):
        task = generate_task(seed=3000 + i, depth=2, width=1, overlap_count=6,
                             distractor_count=2, p_fail=0.15)
        disabled = run_episode(task, K, ScriptedBackend(task, K), None,
                               PROVIDER, MajorityAggregator(), seed=i)
        always_no = run_episode(task, K, ScriptedBackend(task, K),
                                HeuristicAdmission(lambda t: False), PROVIDER, MajorityAggregator(), seed=i)
        assert json.dumps(strip(disabled.events), sort_keys=True) == json.dumps(
            strip(always_no.events), sort_keys=True
        )
    assert time.perf_counter() - start < 60.0


def test_c04_redundancy_reduction():
    start = time.perf_counter()
    tasks = [
        generate_task(seed=4000 + i, depth=2, width=1, overlap_count=6,
                      distractor_count=0, step_cap=30, p_fail=0.15)
        for i in range(200)
    ]
    none_metrics, _ = run_variant(tasks, None, K, [7], PROVIDER)
    yes_metrics, _ = run_variant(tasks, variant_policy("add-all"), K, [7], PROVIDER)

    assert abs(yes_metrics.mean_score - none_metrics.mean_score) <= 0.01
    reduction = 1.0 - yes_metrics.mean_runtime / none_metrics.mean_runtime
    assert reduction >= 0.20

    for q in np.arange(0.1, 1.0, 0.1):  # decile-wise CDF dominance
        assert np.quantile(yes_metrics.runtime_samples, q) <= np.quantile(
            none_metrics.runtime_samples, q
        )
    assert time.perf_counter() - start < 300.0


def test_c05_selectivity_learning(trained_full, held_out_tasks, full_objective_metrics):
    start = time.perf_counter()
    learned_metrics, learned_traces = full_objective_metrics
    none_metrics, _ = run_variant(held_out_tasks, None, K, [EVAL_SEED], PROVIDER)
    addall_metrics, _ = run_variant(held_out_tasks, variant_policy("add-all"), K,
                                    [EVAL_SEED], PROVIDER)

    assert learned_metrics.mean_score > addall_metrics.mean_score
    assert learned_metrics.mean_runtime < none_metrics.mean_runtime

    by_label = prob_yes_by_label(learned_traces)
    useful = float(np.mean(by_label["solve"]))
    distractor = float(np.mean(by_label["lure"]))
    assert useful - distractor >= 0.30
    assert time.perf_counter() - start < 1800.0


def test_c06a_sparsity_ablation(held_out_tasks):
    start = time.perf_counter()
    policy = train_policy(beta=0.25, lambda_sparse=0.0)
    metrics, _ = run_variant(held_out_tasks, policy, K, [EVAL_SEED], PROVIDER)
    assert metrics.memories_saved_pct >= 95.0
    assert time.perf_counter() - start < 1800.0


def test_c06b_usage_bonus_ablation(held_out_tasks, full_objective_metrics):
    """Removing the usage bonus (beta=0) loses the admission of useful steps.

    The documented objective gives each decision its trace's base
    advantage, plus beta only for a YES whose entry was retrieved in a
    positively rewarded trace (``shaped_advantages``; checked by c01 and
    the ``test_shaped_advantage_*`` tests).  beta therefore only ever adds
    to the YES log-likelihood gradient: removing it cannot strengthen
    admission, so an ablation asserting that the beta=0 run saves *more*
    memories asserts a direction the method does not promise.

    Measured with these tasks and seeds, mean reward per epoch saturates
    at 2.0 (full run: 1.49, 1.996, 2.0, 2.0, 2.0; beta=0: 1.49, then 2.0
    from epoch 1).  Once every group's reward variance is zero,
    ``group_advantage`` is exactly 0 for every group, and zero-variance
    groups carry no gradient signal (DAPO, Yu et al. 2025,
    arXiv:2503.14476).  With beta=0 the loss is then only
    lambda * sum(p_yes), which drives admission to zero from epoch 2 on:
    0 % memories saved, solve-step p_yes about 1e-9, mean runtime 100.0
    (the no-memory level).  The full run keeps admitting retrieved steps:
    30.8 % saved, solve-step p_yes 0.877, mean runtime 67.69.  Both runs
    score 1.0 on the held-out tasks.

    So the ablation checks that the usage bonus is the term that keeps
    globally useful steps admitted: without it fewer memories are saved,
    the runtime gain is lost, and solve steps lose admit probability by
    at least the margin c05 uses.  Training is deterministic, so strict
    inequalities are stable; if beta stopped reaching the advantages the
    two runs would be identical and every assertion here would fail.
    """
    start = time.perf_counter()
    policy = train_policy(beta=0.0, lambda_sparse=0.05)
    metrics, traces = run_variant(held_out_tasks, policy, K, [EVAL_SEED], PROVIDER,
                                  keep_traces=True)
    full_metrics, full_traces = full_objective_metrics
    assert metrics.memories_saved_pct < full_metrics.memories_saved_pct
    assert metrics.mean_runtime > full_metrics.mean_runtime
    full_solve = float(np.mean(prob_yes_by_label(full_traces)["solve"]))
    ablated_solve = float(np.mean(prob_yes_by_label(traces)["solve"]))
    assert full_solve - ablated_solve >= 0.30
    assert time.perf_counter() - start < 1800.0


def test_c07_metrics_correctness():
    from tests.test_trace_metrics import brute_force_metrics, synth_episode

    start = time.perf_counter()
    rng = np.random.default_rng(9)
    streams = [synth_episode(rng) for _ in range(1000)]
    got = metrics_from_event_streams(streams)
    want, runtimes, steps_list, scores = brute_force_metrics(streams)
    assert got.candidate_steps == want["candidates"]
    assert got.admitted == want["admits"]
    assert got.retrieval_events == want["retr_events"]
    assert got.cross_team_events == want["cross_events"]
    assert got.entries_retrieved == want["entries_retrieved"]
    assert got.cross_team_entries == want["cross_entries"]
    assert got.memories_saved_pct == 100.0 * want["admits"] / want["candidates"]
    assert got.runtime_samples == runtimes and got.step_samples == steps_list

    # add-all traces report memories_saved == 100.0 by construction
    task = generate_task(seed=77, depth=2, width=1, overlap_count=4,
                         distractor_count=0, p_fail=0.1)
    addall, _ = run_variant([task], variant_policy("add-all"), K, [0, 1, 2], PROVIDER)
    assert addall.memories_saved_pct == 100.0
    assert time.perf_counter() - start < 60.0


def test_c08_concurrency_linearizability():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    violations = 0
    for schedule in range(10_000):
        events = []
        bank = MemoryBank(2, event_sink=events.append)
        n_threads = int(rng.integers(2, 4))
        plans = []
        for t in range(n_threads):
            ops = []
            for _ in range(int(rng.integers(2, 5))):
                r = rng.random()
                if r < 0.45:
                    ops.append(("admit", f"s{schedule}-{t}-{len(ops)}"))
                elif r < 0.8:
                    ops.append(("retrieve", int(rng.integers(1, 6))))
                else:
                    ops.append(("list", None))
            plans.append(ops)

        records = [[] for _ in range(n_threads)]

        def worker(tid, ops):
            for kind, arg in ops:
                t0 = time.monotonic_ns()
                if kind == "admit":
                    eid = bank.admit(arg, f"out-{arg}", np.zeros(2), tid + 1, 1)
                    # its seq is read from its admit event once every thread is done
                    records[tid].append((kind, arg, eid, None, t0, time.monotonic_ns()))
                elif kind == "retrieve":
                    try:
                        out = bank.retrieve(arg, tid + 1, 1)
                        records[tid].append((kind, arg, out, None, t0, time.monotonic_ns()))
                    except EntryNotFoundError:
                        records[tid].append((kind, arg, EntryNotFoundError, None, t0, time.monotonic_ns()))
                else:
                    seq, snap = bank.list_keys_seq()
                    records[tid].append((kind, arg, snap, seq, t0, time.monotonic_ns()))

        threads = [threading.Thread(target=worker, args=(t, plans[t])) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        # replay check: order admits/list by recorded seq, verify a sequential
        # bank reproduces every result; retrieved pairs checked against the
        # final keys (append-only store: an id's summary and output never change)
        final_keys = bank.list_keys()
        admit_seq = {e["entry_id"]: e["seq"] for e in events if e["kind"] == "admit"}
        admitted_ids = [rec[2] for recs in records for rec in recs if rec[0] == "admit"]
        ok = sorted(admitted_ids) == sorted(admit_seq)  # one admit event per admission
        tagged = []
        for tid in range(n_threads):
            for rec in records[tid]:
                if rec[0] == "admit":
                    rec = (*rec[:3], admit_seq.get(rec[2], 0), *rec[4:])
                tagged.append((tid, rec))
        seq_ops = sorted(
            (rec for _, rec in tagged if rec[3] is not None), key=lambda r: r[3]
        )
        model_keys = []
        next_id = 1
        for kind, arg, result, seq, _, _ in seq_ops:
            if kind == "admit":
                if result != next_id:
                    ok = False
                model_keys.append((next_id, arg))
                next_id += 1
            elif kind == "list":
                if result != list(model_keys):
                    ok = False
        if model_keys != final_keys:
            ok = False
        # real-time order must agree with seq order
        seq_records = [r for _, r in tagged if r[3] is not None]
        for a in seq_records:
            for b in seq_records:
                if a[5] < b[4] and not a[3] < b[3]:
                    ok = False
        # retrieves: successful ones return the (immutable) stored pair,
        # and the bank's retrieve events obey causality and match the op count
        summaries = dict(final_keys)
        successful = 0
        for _, rec in tagged:
            if rec[0] == "retrieve" and rec[2] is not EntryNotFoundError:
                successful += 1
                summary = summaries.get(rec[1])
                if rec[2] != (summary, f"out-{summary}"):
                    ok = False
        log = [e for e in events if e["kind"] == "retrieve"]
        if len(log) != successful:
            ok = False
        for event in log:
            if event["seq"] <= admit_seq.get(event["entry_id"], event["seq"]):
                ok = False
        if not ok:
            violations += 1
    assert violations == 0
    assert time.perf_counter() - start < 300.0


def test_c09_controller_sampling():
    start = time.perf_counter()
    p_expected = 1.0 / (1.0 + math.exp(-(2.0 - 1.0) / 1.2))
    assert p_expected == pytest.approx(0.6971, abs=5e-5)
    rng = np.random.default_rng(777)
    logits = np.array([2.0, 1.0])
    hits = sum(
        sample_binary_decision(logits, "sampled", rng, temperature=1.2).action == YES
        for _ in range(100_000)
    )
    assert hits / 100_000 == pytest.approx(p_expected, abs=0.01)
    assert time.perf_counter() - start < 10.0


def test_c10_endpoint_adapter(tmp_path, monkeypatch):
    import tests.test_endpoint as te
    from http.server import ThreadingHTTPServer

    from hivemem.endpoint import LLMBackend, call_chat, parse_action
    from hivemem.runtime import FinalMove, MajorityAggregator, RetrieveMove, TaskSpec, run_episode

    start = time.perf_counter()
    monkeypatch.setenv(te.CRED_ENV, te.SECRET)
    server = ThreadingHTTPServer(("127.0.0.1", 0), te._MockHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        config = te.make_config(server)

        # all three action kinds parse to their runtime values
        for line, parsed in [
            ("STEP:look it up", "look it up"),
            ("RETRIEVE:4", RetrieveMove(4)),
            ("FINAL:Paris", FinalMove("Paris")),
        ]:
            assert parse_action(line) == parsed

        # malformed degrades to a failed step and the team continues
        server.script.extend([(200, "no action here"), (200, "FINAL:done")])
        backend = LLMBackend(config, sleep_fn=lambda s: None)
        trace = run_episode(TaskSpec("t", "q", step_cap=4), 1, backend, None, PROVIDER,
                            MajorityAggregator(), seed=0, mode="live")
        assert trace.candidates and trace.candidates[0].answer == "done"
        assert any(e["kind"] == "step" and e["label"] == "malformed" for e in trace.events)
        assert parse_action("RETRIEVE:abc") is None

        # retries and backoff obey configuration
        server.script.extend([(500, ""), (503, ""), (200, "FINAL:ok")])
        sleeps = []
        log = []
        reply = call_chat(config, [{"role": "user", "content": "x"}],
                          sleep_fn=sleeps.append, call_log=log)
        assert reply == "FINAL:ok"
        assert sleeps == [config.backoff_base, config.backoff_base * 2]
        assert [c["status"] for c in log] == [500, 503, 200]

        # no credential bytes anywhere in persisted traces or call logs
        path = tmp_path / "trace.jsonl"
        trace.write(path)
        blob = path.read_bytes() + json.dumps(backend.call_log).encode()
        assert te.SECRET.encode() not in blob
    finally:
        server.shutdown()
        thread.join()
    assert time.perf_counter() - start < 60.0
