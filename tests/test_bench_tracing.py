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
from hivemem.sim import ScriptedBackend, generate_task

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
        run_episode(task.task_spec(), 3, ScriptedBackend(task, 3), AdmissionPolicy(64, 8),
                    provider, MajorityAggregator(), seed=0)
    finally:
        tracer.restore()
    assert AdmissionPolicy.forward is forward
    metrics, _ = tracer.layer_metrics(passes=1)
    for name in ("controller.forward", "controller.build_context", "bank.context_snapshot"):
        assert metrics[f"{name}.calls"] > 0, name


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


def test_tracer_sees_every_trace_file_write_and_read(tmp_path):
    from collections import Counter

    from hivemem.metrics import compute_metrics, metrics_from_event_streams
    from hivemem.runtime import ConstantAdmission, EpisodeTrace

    task = generate_task(seed=9, depth=2, width=1, overlap_count=4,
                         distractor_count=0, p_fail=0.1)
    traces = [
        run_episode(task.task_spec(), 3, ScriptedBackend(task, 3), ConstantAdmission("YES"),
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
