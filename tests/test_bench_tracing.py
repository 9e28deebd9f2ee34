"""The benchmark's tracer still finds the hivemem names it patches.

``hivebench/tracing.py`` wraps functions under the names hivemem looks them
up by; renaming one of them would silently empty a per-layer metric, or
fail only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import hivemem
from hivemem.controller import AdmissionPolicy
from hivemem.embeddings import HashingEmbedder
from hivemem.runtime import MajorityAggregator, run_episode
from hivemem.sim import ScriptedBackend, generate_task, variant_policy

_TRACING = Path(__file__).resolve().parent.parent / "hivebench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("hivebench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_a_learned_greedy_episode():
    forward = AdmissionPolicy.forward
    tracer = _load_tracing().Tracer()
    tracer.install(hivemem)
    try:
        task = generate_task(seed=9, depth=2, width=1, overlap_count=4,
                             distractor_count=0, p_fail=0.1)
        provider = HashingEmbedder(64)
        run_episode(task, 3, ScriptedBackend(task, 3),
                    variant_policy("learned", AdmissionPolicy(64, 8)), provider,
                    MajorityAggregator(), seed=0)
    finally:
        tracer.restore()
    assert AdmissionPolicy.forward is forward
    metrics, _ = tracer.layer_metrics(passes=1)
    for name in ("controller.forward", "controller.build_context", "bank.context_snapshot"):
        assert metrics[f"{name}.calls"] > 0, name


def test_tracer_counts_every_decision_but_fewer_forward_passes():
    # A learned run_variant reuses the logits of repeated decision inputs:
    # every decision still snapshots the bank and draws its action, while
    # build_context and the forward pass run only for new inputs, once each.
    import numpy as np

    tasks = [
        generate_task(seed=seed, depth=2, width=1, overlap_count=6, distractor_count=6,
                      step_cap=14, p_fail=0.08)
        for seed in (1, 2)
    ]
    policy = AdmissionPolicy(64, 8)
    policy.params["w_out"] = np.random.default_rng(0).normal(0, 0.5, (2, 32))
    tracer = _load_tracing().Tracer()
    tracer.install(hivemem)
    try:
        _, traces = hivemem.sim.run_variant(tasks, policy, 3, [0, 1, 2], HashingEmbedder(64),
                                            keep_traces=True)
    finally:
        tracer.restore()
    decisions = sum(e["kind"] == "decision" for trace in traces for e in trace.events)
    metrics, samples = tracer.layer_metrics(passes=1)
    assert samples["controller_decisions"] == decisions > 0
    assert metrics["bank.context_snapshot.calls"] == decisions
    for name in ("controller.forward", "controller.build_context"):
        assert 0 < metrics[f"{name}.calls"] < decisions, name
    assert metrics["controller.forward.calls"] == metrics["controller.build_context.calls"]


def test_tracer_yes_ratio_is_the_yes_share_of_a_greedy_run_variant():
    # Greedy decisions are shared objects from the controller's cache; the
    # tracer must still count one per decision, each by its own action.
    import numpy as np

    from hivemem.controller import _greedy_decision

    tasks = [
        generate_task(seed=seed, depth=2, width=1, overlap_count=6, distractor_count=6,
                      step_cap=14, p_fail=0.08)
        for seed in (1, 2)
    ]
    policy = AdmissionPolicy(64, 8)
    policy.params["w_out"] = np.random.default_rng(0).normal(0, 0.5, (2, 32))
    _greedy_decision.cache_clear()
    tracer = _load_tracing().Tracer()
    tracer.install(hivemem)
    try:
        _, traces = hivemem.sim.run_variant(tasks, policy, 3, [0, 1, 2], HashingEmbedder(64),
                                            keep_traces=True)
    finally:
        tracer.restore()
    actions = [e["action"] for trace in traces for e in trace.events if e["kind"] == "decision"]
    assert 0 < actions.count("YES") < len(actions)
    assert _greedy_decision.cache_info().hits > 0
    metrics, _ = tracer.layer_metrics(passes=1)
    assert metrics["controller.yes_ratio"] == actions.count("YES") / len(actions)


def test_tracer_counts_the_bank_reads_of_an_add_all_run():
    # run-addall's bank layer: the counters come from the patched admit and
    # retrieve calls and must agree with the episodes' own events.
    tasks = [
        generate_task(seed=seed, depth=2, width=1, overlap_count=6, distractor_count=2,
                      p_fail=0.1)
        for seed in (3, 4)
    ]
    tracer = _load_tracing().Tracer()
    tracer.install(hivemem)
    try:
        _, traces = hivemem.sim.run_variant(tasks, variant_policy("add-all"), 3, [0, 1],
                                            HashingEmbedder(64), keep_traces=True)
    finally:
        tracer.restore()
    metrics, _ = tracer.layer_metrics(passes=1)
    admitted = used = retrieves = 0
    for trace in traces:
        ids = {e["entry_id"] for e in trace.events if e["kind"] == "admit"}
        got = [e["entry_id"] for e in trace.events if e["kind"] == "retrieve"]
        admitted += len(ids)
        used += len(ids & set(got))
        retrieves += len(got)
    assert metrics["bank.retrieve.calls"] == retrieves > 0
    assert metrics["bank.admit.calls"] == admitted
    assert 0 < metrics["bank.admit.used_ratio"] <= 1
    assert metrics["bank.admit.used_ratio"] == used / admitted


def test_tracer_spans_the_replay_gradient():
    from hivemem.training import TrainConfig

    step_loss_grads = hivemem.training.step_loss_grads
    tasks = [
        generate_task(seed=seed, depth=2, width=1, overlap_count=4,
                      distractor_count=0, p_fail=0.1)
        for seed in (9, 10)
    ]
    config = TrainConfig(group_size=2, epochs=1, replay_factor=2, seed=3, k=2)
    tracer = _load_tracing().Tracer()
    tracer.install(hivemem)
    try:
        hivemem.training.train(AdmissionPolicy(32, 8), tasks, HashingEmbedder(32), config)
    finally:
        tracer.restore()
    assert hivemem.training.step_loss_grads is step_loss_grads
    metrics, _ = tracer.layer_metrics(passes=1)
    assert metrics["training.updates"] == 4  # replay_factor x tasks
    assert metrics["training.grad_calls_per_update"] == 1
    assert metrics["training.grad_s"] > 0
    # each update's forward pass runs inside its gradient span, so grad_s counts it
    names = [tracer.names[code] for code in tracer.name_of]
    grads = [sid for sid, name in enumerate(names) if name == "controller.grad"]
    assert len(grads) == 4
    for sid in grads:
        children = [names[c] for c, parent in enumerate(tracer.parents) if parent == sid]
        assert children.count("controller.forward") == 1


def test_tracer_sees_every_trace_file_write_and_read(tmp_path):
    from collections import Counter

    from hivemem.metrics import compute_metrics, metrics_from_event_streams
    from hivemem.runtime import EpisodeTrace

    task = generate_task(seed=9, depth=2, width=1, overlap_count=4,
                         distractor_count=0, p_fail=0.1)
    traces = [
        run_episode(task, 3, ScriptedBackend(task, 3), variant_policy("add-all"),
                    HashingEmbedder(64), MajorityAggregator(), seed=seed)
        for seed in (0, 1)
    ]
    paths = [tmp_path / f"episode_{n}.jsonl" for n in range(len(traces))]
    write, read = EpisodeTrace.write, hivemem.metrics.read_events
    tracer = _load_tracing().Tracer()
    tracer.install(hivemem)
    try:
        for trace, path in zip(traces, paths):
            trace.write(path)
        metrics = compute_metrics(paths)
    finally:
        tracer.restore()
    assert EpisodeTrace.write is write and hivemem.metrics.read_events is read
    calls = Counter(tracer.names[code] for code in tracer.name_of)
    assert calls["tracefile.write"] == 2
    assert calls["tracefile.read"] == 2
    assert calls["metrics.from_streams"] >= 1
    assert tracer.counts["events_read"] == sum(len(t.events) for t in traces)
    assert [read(path) for path in paths] == [t.events for t in traces]
    assert metrics == metrics_from_event_streams(t.events for t in traces)
