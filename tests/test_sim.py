import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hivemem.controller import AdmissionPolicy
from hivemem.errors import ValidationError
from hivemem.runtime import MajorityAggregator, StepMove, run_episode
from hivemem.sim import (
    ScriptedBackend,
    SimScorer,
    SimTask,
    canonical_key,
    generate_task,
    llm_proxy_rule,
    run_variant,
    solve_counts,
    variant_policy,
)
from hivemem.tracefile import write_events

PINNED_POLICY = Path(__file__).resolve().parent.parent / "hivebench" / "pinned" / "policy.npz"


def test_generation_deterministic():
    reference = generate_task(seed=42, depth=3, width=2, overlap_count=4, distractor_count=2)
    for _ in range(100):
        again = generate_task(seed=42, depth=3, width=2, overlap_count=4, distractor_count=2)
        assert asdict(again) == asdict(reference)


_HEAVY = dict(depth=2, width=1, overlap_count=6, distractor_count=6, step_cap=14, p_fail=0.08,
              pollution_fail_boost=0.25, pollution_recovery_steps=2, pollution_corrupt_rate=0.65)
_VALUES_3 = {"s0": "cf716e", "s1": "e4e222", "s2": "747517", "s3": "646950"}
_VALUES_1000 = {"s0": "bef96c", "s1": "db0b40", "s2": "964d3e", "s3": "73d7eb",
                "s4": "7a6ab6", "s5": "7215e5"}


@pytest.mark.parametrize("params, task_id, chains, values, answer_key, targets", [
    (dict(seed=3, depth=2, width=1, overlap_count=4, distractor_count=2), "sim-3-d2w1o4x2",
     [["s0", "s1"], ["s2", "s3"]], _VALUES_3, _VALUES_3, ["s1", "s3"]),
    (dict(seed=1000, **_HEAVY), "sim-1000-d2w1o6x6",
     [["s0", "s1"], ["s2", "s3"], ["s4", "s5"]], _VALUES_1000, _VALUES_1000,
     ["s2", "s4", "s4", "s1", "s1", "s3"]),
    (dict(seed=5, depth=2, width=2, overlap_count=0), "sim-5-d2w2o0x0",
     [], {}, {"status": "ok"}, []),
], ids=["small", "heavy", "no-overlap"])
def test_parameters_derive_the_recorded_structures(
    params, task_id, chains, values, answer_key, targets
):
    # recorded literals: benchmark pins and old trace files depend on this derivation
    task = generate_task(**params)
    assert task.task_id == task_id
    assert task.shared_chains == chains
    assert task.values == values
    assert task.answer_key == answer_key
    assert task.distractor_targets == targets


def test_generation_validation():
    with pytest.raises(ValidationError):
        generate_task(seed=1, depth=0, width=1, overlap_count=2)
    with pytest.raises(ValidationError):
        generate_task(seed=1, depth=1, width=1, overlap_count=-1)
    with pytest.raises(ValidationError):
        generate_task(seed=1, depth=1, width=1, overlap_count=0, distractor_count=3)


@pytest.mark.parametrize("p_fail", [-0.1, 1.0, 3.0])
def test_task_rejects_p_fail_outside_unit_interval(p_fail):
    with pytest.raises(ValidationError, match="p_fail"):
        generate_task(seed=1, depth=1, width=1, overlap_count=2, p_fail=p_fail)
    fields = asdict(generate_task(seed=1, depth=1, width=1, overlap_count=2))
    with pytest.raises(ValidationError, match="p_fail"):  # every construction checks it
        SimTask(**{**fields, "p_fail": p_fail})


@pytest.mark.parametrize("field, value", [
    ("solve_cost", -5.0),
    ("retrieve_cost", float("inf")),
    ("pollution_step_surcharge", float("nan")),
    ("pollution_recovery_steps", -1),
    ("pollution_fail_boost", -0.1),
    ("pollution_corrupt_rate", 7.0),
])
def test_task_rejects_bad_economics(field, value):
    with pytest.raises(ValidationError):
        generate_task(seed=1, depth=1, width=1, overlap_count=2, **{field: value})


@pytest.mark.parametrize("field, value", [
    ("step_cap", 0), ("step_cap", True), ("step_cap", 2.5), ("width", 2.0),
    ("overlap_count", True), ("pollution_recovery_steps", 0.5), ("seed", -1),
    ("seed", np.float64(1.0)), ("p_fail", False), ("solve_cost", "10"),
    ("retrieve_cost", np.bool_(True)), ("distractor_count", None),
])
def test_task_rejects_a_mistyped_or_out_of_range_field(field, value):
    with pytest.raises(ValidationError, match=field):
        SimTask(**{"seed": 1, "depth": 1, "width": 1, "overlap_count": 2, field: value})


def test_task_takes_numpy_ints_and_ints_for_real_fields():
    plain = SimTask(seed=1, depth=2, width=1, overlap_count=2, step_cap=9, solve_cost=10)
    numpy = SimTask(seed=np.int64(1), depth=np.int32(2), width=np.uint8(1),
                    overlap_count=np.int64(2), step_cap=np.int16(9), solve_cost=np.int64(10))
    assert numpy == plain and numpy.task_id == plain.task_id


def test_overlap_nodes_on_all_solution_paths():
    task = generate_task(seed=2, depth=3, width=2, overlap_count=4, distractor_count=0)
    shared = [node for chain in task.shared_chains for node in chain]
    assert len(shared) == 4
    # oracle: enumerate each team's required path from the plan structure
    backend = ScriptedBackend(task, 3)
    for team in (1, 2, 3):
        plan = backend.plan(team)
        path = set(plan.own_nodes) | set(plan.foreign_nodes)
        assert set(shared) <= path


def test_scorer_properties():
    task = generate_task(seed=4, depth=2, width=1, overlap_count=4, distractor_count=0)
    scorer = task.scorer()
    full = task.render_answer(dict(task.values))
    assert scorer.score(full) == 1.0
    assert scorer.score("") == 0.0
    partial_fields = dict(list(task.values.items())[:2])
    partial = ";".join(f"{k}={v}" for k, v in partial_fields.items())
    assert 0 < scorer.score(partial) < 1
    # monotone in correct fields
    more_fields = dict(list(task.values.items())[:3])
    more = ";".join(f"{k}={v}" for k, v in more_fields.items())
    assert scorer.score(more) > scorer.score(partial)


_SCORE_KEY = {"s0": "a1", "s1": "b", "s 2": "=", "a": "1"}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="s012ab=; \t\n", max_size=16), max_size=20))
def test_a_score_is_a_float_and_scoring_again_repeats_it(answers):
    scorer = SimScorer(_SCORE_KEY)
    for answer in answers:
        got = scorer.score(answer)
        assert type(got) is float and 0.0 <= got <= 1.0
        assert scorer.score(answer) == got


def test_a_task_derives_on_first_use_and_its_derived_data_is_no_parameter(provider):
    params = dict(seed=6, depth=2, width=1, overlap_count=4, distractor_count=2)
    task = generate_task(**params)
    assert task.derived == {}
    run_variant([task], variant_policy("add-all"), 3, [0, 1], provider)
    fresh = generate_task(**params)
    assert len(task.derived) > 2 and fresh.derived == {}
    assert task == fresh and hash(task) == hash(fresh) and asdict(task) == asdict(fresh)
    # the attributes run_episode reads are set once, from the fields, and are no field
    assert (task.task_id, task.query) == ("sim-6-d2w1o4x2",
                                          "determine values of shared subtasks s0 s1 s2 s3")
    assert not {"task_id", "query", "derived"} & set(asdict(task))
    renamed = generate_task(**params)
    renamed.__dict__.update(task_id="another", query="another query")
    assert renamed == task and hash(renamed) == hash(task)


def test_zero_overlap_yields_zero_savings(provider):
    task = generate_task(seed=5, depth=2, width=2, overlap_count=0, distractor_count=0, p_fail=0.0)
    none_trace = run_episode(task, 3, ScriptedBackend(task, 3), None, provider,
                             MajorityAggregator(), seed=1)
    yes_trace = run_episode(task, 3, ScriptedBackend(task, 3), variant_policy("add-all"), provider,
                            MajorityAggregator(), seed=1)
    assert none_trace.end_time == yes_trace.end_time
    assert not any(e["kind"] == "retrieve" for e in yes_trace.events)
    assert yes_trace.aggregate_answer == "status=ok"


def test_memory_disabled_computations_scale_with_k(provider):
    task = generate_task(seed=6, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.2)
    trace = run_episode(task, 3, ScriptedBackend(task, 3), None, provider,
                        MajorityAggregator(), seed=2)
    per_team = {t: 0 for t in (1, 2, 3)}
    for e in trace.events:
        if e["kind"] == "step" and e["label"].startswith(("solve:", "private:")):
            per_team[e["team"]] += 1
    assert len(set(per_team.values())) == 1
    total = sum(per_team.values())
    assert total == 3 * per_team[1]


def test_retrieval_cheaper_than_solve(provider):
    task = generate_task(seed=7, depth=2, width=1, overlap_count=6, distractor_count=0, p_fail=0.0)
    t_none = run_episode(task, 3, ScriptedBackend(task, 3), None, provider,
                         MajorityAggregator(), seed=1)
    t_yes = run_episode(task, 3, ScriptedBackend(task, 3), variant_policy("add-all"), provider,
                        MajorityAggregator(), seed=1)
    assert t_yes.end_time < t_none.end_time


def test_score_invariant_without_distractors(provider):
    task = generate_task(seed=8, depth=2, width=1, overlap_count=6, distractor_count=0, p_fail=0.1)
    scorer = task.scorer()
    scores = []
    for policy in (None, variant_policy("add-all"), llm_proxy_rule()):
        trace = run_episode(task, 3, ScriptedBackend(task, 3), policy, provider,
                            MajorityAggregator(), seed=3)
        scores.append(scorer.score(trace.aggregate_answer))
    assert len(set(scores)) == 1 and scores[0] == 1.0


def test_lure_pollution_spreads_only_when_admitted(provider):
    task = generate_task(seed=9, depth=2, width=1, overlap_count=6, distractor_count=4,
                         p_fail=0.0, pollution_recovery_steps=2)
    none_backend = ScriptedBackend(task, 3)
    run_episode(task, 3, none_backend, None, provider, MajorityAggregator(), seed=4)
    assert all(none_backend.plan(t).pollution == 0 for t in (1, 2, 3))

    yes_backend = ScriptedBackend(task, 3)
    run_episode(task, 3, yes_backend, variant_policy("add-all"), provider,
                MajorityAggregator(), seed=4)
    assert sum(yes_backend.plan(t).pollution for t in (1, 2, 3)) > 0


def test_own_lure_is_recognized(provider):
    task = generate_task(seed=10, depth=1, width=1, overlap_count=3, distractor_count=3,
                         p_fail=0.0)
    backend = ScriptedBackend(task, 1)
    run_episode(task, 1, backend, variant_policy("add-all"), provider,
                MajorityAggregator(), seed=0)
    assert backend.plan(1).pollution == 0


def test_distractor_free_add_all_is_fastest(provider):
    tasks = [generate_task(seed=20 + i, depth=2, width=1, overlap_count=6,
                           distractor_count=0, p_fail=0.1) for i in range(10)]
    results = {
        name: run_variant(tasks, variant_policy(name), k=3, seeds=[0, 1], provider=provider)[0]
        for name in ("no-memory", "add-all", "llm-proxy")
    }
    assert results["add-all"].mean_runtime <= results["llm-proxy"].mean_runtime
    assert results["add-all"].mean_runtime < results["no-memory"].mean_runtime


def test_distractor_heavy_add_all_hurts_score(provider):
    tasks = [generate_task(seed=40 + i, depth=2, width=1, overlap_count=6, distractor_count=4,
                           step_cap=14, p_fail=0.08, pollution_fail_boost=0.2,
                           pollution_recovery_steps=1, pollution_corrupt_rate=0.45)
             for i in range(10)]
    results = {
        name: run_variant(tasks, variant_policy(name), k=3, seeds=[3, 4], provider=provider)[0]
        for name in ("no-memory", "add-all")
    }
    assert results["add-all"].mean_score < results["no-memory"].mean_score


def test_zero_overlap_all_variants_tie_on_steps(provider):
    tasks = [generate_task(seed=90 + i, depth=2, width=2, overlap_count=0,
                           distractor_count=0, p_fail=0.1) for i in range(6)]
    results = {
        name: run_variant(tasks, variant_policy(name), k=3, seeds=[0, 1], provider=provider)[0]
        for name in ("no-memory", "add-all", "llm-proxy")
    }
    step_means = {name: m.mean_steps for name, m in results.items()}
    assert max(step_means.values()) - min(step_means.values()) == 0
    runtimes = {name: m.mean_runtime for name, m in results.items()}
    assert max(runtimes.values()) - min(runtimes.values()) == 0


def test_canonical_key_format():
    assert canonical_key("s3") == "result for subtask s3"


def test_solve_counts_oracle(provider):
    task = generate_task(seed=11, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.0)
    trace = run_episode(task, 3, ScriptedBackend(task, 3), None, provider,
                        MajorityAggregator(), seed=0)
    counts = solve_counts(trace.events)
    assert sum(counts.values()) == 12  # 4 shared nodes x 3 teams, no sharing


class _MoveRecorder:
    """A scripted backend that keeps every step move it returns."""

    def __init__(self, task, k):
        self.backend = ScriptedBackend(task, k)
        self.moves = []

    def next_move(self, *args):
        move = self.backend.next_move(*args)
        if isinstance(move, StepMove):
            self.moves.append(move)
        return move


def test_the_move_cache_never_shows_in_a_trace(provider):
    params = [dict(seed=s, **_HEAVY) for s in (1000, 1001)]
    seeds = range(6)
    rule = variant_policy("add-all")  # admits every lure, so teams consume them

    def episode(task, seed):
        backend = _MoveRecorder(task, 3)
        trace = run_episode(task, 3, backend, rule, provider, MajorityAggregator(),
                            seed=seed)
        return trace.events, backend.moves

    cold = [episode(generate_task(**p), seed)[0] for p in params for seed in seeds]
    tasks = [generate_task(**p) for p in params]
    warm = [episode(task, seed) for task in tasks for seed in seeds]
    assert [events for events, _ in warm] == cold

    steps = [e for events in cold for e in events if e["kind"] == "step"]
    assert {e["label"].split(":")[0] for e in steps} == {
        "retry", "private", "solve", "lure", "recovery"
    }
    corrupt = [  # solves whose value is not the task's: a polluted team derived them
        e for i, events in enumerate(cold) for e in events if e["kind"] == "step"
        and e["label"].startswith("solve:")
        and tasks[i // len(seeds)].values[e["label"][6:]] not in e["agent_output"]
    ]
    assert corrupt

    # equal steps of one task are one object, across episodes and teams
    for task_episodes in (warm[: len(seeds)], warm[len(seeds):]):
        shared: dict[StepMove, set[int]] = {}
        objects: dict[StepMove, set[int]] = {}
        for index, (_, moves) in enumerate(task_episodes):
            for move in moves:
                shared.setdefault(move, set()).add(index)
                objects.setdefault(move, set()).add(id(move))
        assert all(len(ids) == 1 for ids in objects.values())
        assert any(len(episodes) > 1 for episodes in shared.values())
    first, second = warm[0][1], warm[1][1]
    assert first[0] is second[0]


def _event_digest(events_lists) -> str:
    """SHA-256 of each event's ``json.dumps(event, sort_keys=True)`` line,
    which no choice of trace-file encoder moves."""
    digest = hashlib.sha256()
    for events in events_lists:
        for event in events:
            digest.update((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
    return digest.hexdigest()


def _trace_file_digest(events_lists, tmp_path) -> str:
    digest = hashlib.sha256()
    for events in events_lists:
        path = tmp_path / "episode.jsonl"
        write_events(path, events)
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("variant, events_digest, file_digest", [
    ("no-memory", "03129e309f970957d9d5f9133b42de0e7de10043185da73f770025ff3e438881",
     "d9410149685a5a6611547706dc00acad035050cbe171333a9a21a7c4b80f723b"),
    ("add-all", "3cca1bdce1770061ecc155cbdf5ddcce1a58b866a29fb2ec01dc9a5bc6b8b203",
     "5e0429e053652beee6eaae6edda2e8818afb7fb7374eb14ccfeba8d64c1e00e2"),
    ("llm-proxy", "ff983dc7cbd7c8d81f306c74eb52b383f02ed0a1d8b3d0cc9cdfddb177b32ce3",
     "b45e6ac3a2645314df7e708b0632011d96a589b771a513cd78c02bdd8b3b6813"),
    ("learned", "88e0075cf3fa4970dc3f089925aab8e081cf486a9630d2241c620fbe3f4e0eac",
     "191bd51ba039ff569f8fd242622d9ea60298c78ba2f769f83504b3cd4b45cf4a"),
], ids=["no-memory", "add-all", "llm-proxy", "learned"])
def test_eval_events_and_trace_file_bytes_match_the_recorded_digests(
    provider, tmp_path, variant, events_digest, file_digest
):
    # recorded literals, under a fixed rule or the pinned checkpoint: the
    # events digest moves when a speed-up of the episode loop changes any
    # event, the file digest when the writer changes a byte of the files
    if variant == "learned":
        rule, _ = AdmissionPolicy.load(str(PINNED_POLICY), expected_embed_dim=64)
    else:
        rule = variant_policy(variant)
    tasks = [generate_task(seed=s, **_HEAVY) for s in (1000, 1001)]
    _, traces = run_variant(tasks, rule, 3, [0, 1, 2, 3], provider, keep_traces=True)
    streams = [t.events for t in traces]
    assert _event_digest(streams) == events_digest
    assert _trace_file_digest(streams, tmp_path) == file_digest
