import json

import pytest

from hivemem.controller import NO, YES, StepTriplet
from hivemem.errors import ValidationError
from hivemem.runtime import (
    Candidate,
    ConstantAdmission,
    FinalMove,
    MajorityAggregator,
    RetrieveMove,
    StepMove,
    TaskSpec,
    first_finisher,
    run_episode,
)
from hivemem.sim import ScriptedBackend, generate_task, solve_counts


def run_sim(task, policy, seed=0, k=3, mode="deterministic"):
    return run_episode(
        task.task_spec(), k, ScriptedBackend(task, k), policy, _PROVIDER,
        MajorityAggregator(), seed=seed, mode=mode,
    )


from hivemem.embeddings import HashingEmbedder

_PROVIDER = HashingEmbedder(64)


def test_task_spec_validation():
    with pytest.raises(ValidationError):
        TaskSpec("t", "", step_cap=5)
    with pytest.raises(ValidationError):
        TaskSpec("t", "q", step_cap=0)


def test_single_team_completes_without_cross_sharing():
    task = generate_task(seed=1, depth=2, width=2, overlap_count=4, distractor_count=0, p_fail=0.1)
    trace = run_sim(task, ConstantAdmission(YES), seed=3, k=1)
    assert trace.candidates and trace.candidates[0].answer
    assert task.scorer().score(trace.aggregate_answer) == 1.0
    admit_team = {e["entry_id"]: e["team"] for e in trace.events if e["kind"] == "admit"}
    retrieves = [e for e in trace.events if e["kind"] == "retrieve"]
    assert all(e["team"] == 1 for e in retrieves)
    assert all(admit_team[e["entry_id"]] == e["team"] for e in retrieves)


def test_always_no_equals_memory_disabled():
    task = generate_task(seed=2, depth=2, width=1, overlap_count=6, distractor_count=2, p_fail=0.15)
    for seed in range(5):
        disabled = run_sim(task, None, seed=seed)
        always_no = run_sim(task, ConstantAdmission(NO), seed=seed)
        strip = lambda evs: [e for e in evs if e["kind"] != "decision"]  # noqa: E731
        assert json.dumps(strip(disabled.events)) == json.dumps(strip(always_no.events))
        assert not any(e["kind"] == "admit" for e in always_no.events)


def test_always_yes_shares_overlap_work():
    task = generate_task(seed=3, depth=2, width=2, overlap_count=4, distractor_count=0, p_fail=0.1)
    trace = run_sim(task, ConstantAdmission(YES), seed=1)
    counts = solve_counts(trace.events)
    total = sum(counts.values())
    assert 4 <= total <= 12
    assert any(e["kind"] == "retrieve" for e in trace.events)


def test_always_yes_exactly_once_noise_free():
    task = generate_task(seed=4, depth=2, width=2, overlap_count=4, distractor_count=0, p_fail=0.0)
    trace = run_sim(task, ConstantAdmission(YES), seed=1)
    counts = solve_counts(trace.events)
    assert sorted(counts) == sorted(task.shared_nodes())
    assert set(counts.values()) == {1}


def test_first_finisher_minimal_time():
    trace_like = type("T", (), {})()
    trace_like.candidates = [Candidate(1, "a", 9.0), Candidate(2, "b", 7.0), Candidate(3, "c", 8.0)]
    assert first_finisher(trace_like) == (2, "b")


def test_first_finisher_tie_breaks_low_team():
    trace_like = type("T", (), {})()
    trace_like.candidates = [Candidate(2, "b", 7.0), Candidate(1, "a", 7.0)]
    assert first_finisher(trace_like) == (1, "a")


def test_first_finisher_no_candidates():
    trace_like = type("T", (), {})()
    trace_like.candidates = []
    assert first_finisher(trace_like) == (None, "")


def test_majority_aggregator():
    agg = MajorityAggregator()
    cands = [Candidate(1, "42", 5.0), Candidate(2, "42", 6.0), Candidate(3, "17", 4.0)]
    assert agg.aggregate("q", cands) == "42"


def test_aggregator_single_candidate_identity():
    agg = MajorityAggregator()
    assert agg.aggregate("q", [Candidate(1, "x", 1.0)]) == "x"


def test_aggregator_all_distinct_earliest_finisher():
    agg = MajorityAggregator()
    cands = [Candidate(1, "a", 2.0), Candidate(2, "b", 1.0), Candidate(3, "c", 3.0)]
    assert agg.aggregate("q", cands) == "b"


def test_aggregate_empty_is_no_answer():
    assert MajorityAggregator().aggregate("q", []) == ""


def test_step_cap_safety():
    task = generate_task(seed=5, depth=3, width=3, overlap_count=12, distractor_count=0,
                         step_cap=5, p_fail=0.3)
    trace = run_sim(task, None, seed=2)
    for steps in trace.team_steps:
        assert len(steps) <= 5


def test_decision_coverage():
    task = generate_task(seed=6, depth=2, width=1, overlap_count=4, distractor_count=2, p_fail=0.1)
    trace = run_sim(task, ConstantAdmission(YES), seed=4)
    step_events = [e for e in trace.events if e["kind"] == "step"]
    decision_events = [e for e in trace.events if e["kind"] == "decision"]
    admit_events = [e for e in trace.events if e["kind"] == "admit"]
    assert len(step_events) == len(decision_events)
    yes_count = sum(1 for d in decision_events if d["action"] == YES)
    assert yes_count == len(admit_events)
    retrieve_events = [e for e in trace.events if e["kind"] == "retrieve"]
    assert retrieve_events
    admit_seq = {e["entry_id"]: e["seq"] for e in admit_events}
    for e in retrieve_events:
        assert e["entry_id"] in admit_seq and admit_seq[e["entry_id"]] < e["seq"]


def test_determinism_identical_traces():
    task = generate_task(seed=7, depth=2, width=1, overlap_count=6, distractor_count=3, p_fail=0.15)
    a = run_sim(task, ConstantAdmission(YES), seed=11)
    b = run_sim(task, ConstantAdmission(YES), seed=11)
    assert json.dumps(a.events, sort_keys=True) == json.dumps(b.events, sort_keys=True)


def test_monotone_key_availability():
    task = generate_task(seed=8, depth=2, width=1, overlap_count=6, distractor_count=2, p_fail=0.1)

    seen: list[set] = []

    class Spy(ScriptedBackend):
        def next_move(self, team, query, history, visible_keys, rng):
            if team == 2:
                seen.append({eid for eid, _ in visible_keys})
            return super().next_move(team, query, history, visible_keys, rng)

    run_episode(task.task_spec(), 3, Spy(task, 3), ConstantAdmission(YES), _PROVIDER,
                MajorityAggregator(), seed=5)
    for earlier, later in zip(seen, seen[1:]):
        assert earlier <= later


def test_backend_failure_records_failure_candidate():
    class Exploding:
        def next_move(self, team, query, history, visible_keys, rng):
            if team == 2:
                raise RuntimeError("boom")
            return FinalMove(f"answer-{team}")

    spec = TaskSpec("t", "q", step_cap=5)
    trace = run_episode(spec, 3, Exploding(), None, _PROVIDER, MajorityAggregator(), seed=0)
    assert trace.team_status[1] == "failed"
    by_team = {c.team: c for c in trace.candidates}
    assert by_team[2].answer == ""
    assert by_team[1].answer == "answer-1"


@pytest.mark.parametrize("mode", ["deterministic", "live"])
def test_team_error_raises_in_both_modes(mode):
    # an unknown move from one team must fail the episode, not drop the team
    class UnknownMoveOnTeam2(ScriptedBackend):
        def next_move(self, team, query, history, visible_keys, rng):
            if team == 2:
                return "not a move"
            return super().next_move(team, query, history, visible_keys, rng)

    task = generate_task(seed=9, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.1)
    with pytest.raises(ValidationError, match="unknown move"):
        run_episode(task.task_spec(), 3, UnknownMoveOnTeam2(task, 3), ConstantAdmission(YES),
                    _PROVIDER, MajorityAggregator(), seed=3, mode=mode)


def test_reference_rules_report_certain_decisions():
    from hivemem.bank import MemoryBank
    from hivemem.runtime import HeuristicAdmission

    bank = MemoryBank(_PROVIDER.dimension)
    bank.admit("earlier", "out", _PROVIDER.embed("earlier"), 1, 1)
    rules = {
        YES: ConstantAdmission(YES),
        NO: ConstantAdmission(NO),
        "heuristic": HeuristicAdmission(lambda t: t.step_summary.startswith("keep")),
    }
    for summary in ("keep this", "drop this", "keep that"):
        triplet = StepTriplet("in", summary, "out")
        for name, rule in rules.items():
            decision, mem_size = rule.decide_step("q", bank, triplet, _PROVIDER, None)
            admit = name == YES or (name == "heuristic" and summary.startswith("keep"))
            assert decision.action == (YES if admit else NO)
            assert decision.prob_yes == (1.0 if admit else 0.0)
            assert decision.log_prob_action == 0.0 and not decision.fail_closed
            assert mem_size == 1


def test_unknown_retrieve_is_failed_step_not_crash():
    class BadRetriever:
        def __init__(self):
            self.asked = set()

        def next_move(self, team, query, history, visible_keys, rng):
            if team not in self.asked:
                self.asked.add(team)
                return RetrieveMove(999)
            return FinalMove("done")

    spec = TaskSpec("t", "q", step_cap=5)
    trace = run_episode(spec, 2, BadRetriever(), None, _PROVIDER, MajorityAggregator(), seed=0)
    failed = [e for e in trace.events if e["kind"] == "failed_retrieve"]
    assert len(failed) == 2
    assert all(c.answer == "done" for c in trace.candidates)


def test_cap_exhausted_team_yields_no_candidate():
    class StepForever:
        def next_move(self, team, query, history, visible_keys, rng):
            return StepMove(StepTriplet("in", "sum", "out"))

    spec = TaskSpec("t", "q", step_cap=3)
    trace = run_episode(spec, 2, StepForever(), None, _PROVIDER, MajorityAggregator(), seed=0)
    assert trace.candidates == []
    assert trace.first_team is None
    assert trace.aggregate_answer == ""
    assert all(s == "cap_exhausted" for s in trace.team_status)


def test_aggregator_failure_surfaced_with_trace():
    from hivemem.runtime import AggregationError

    class Broken:
        def aggregate(self, query, candidates):
            raise RuntimeError("aggregator exploded")

    task = generate_task(seed=10, depth=1, width=1, overlap_count=2,
                         distractor_count=0, p_fail=0.0)
    with pytest.raises(AggregationError) as exc:
        run_episode(task.task_spec(), 2, ScriptedBackend(task, 2), None, _PROVIDER,
                    Broken(), seed=0)
    trace = exc.value.trace  # completed trace rides along for persistence
    assert trace.candidates
    assert trace.events[-1]["kind"] == "aggregate"
    assert trace.aggregate_answer == ""


def test_live_mode_smoke():
    task = generate_task(seed=9, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.1)
    trace = run_sim(task, ConstantAdmission(YES), seed=3, mode="live")
    assert task.scorer().score(trace.aggregate_answer) == 1.0
    assert trace.mode == "live"
    step_events = [e for e in trace.events if e["kind"] == "step"]
    decision_events = [e for e in trace.events if e["kind"] == "decision"]
    assert len(step_events) == len(decision_events)


def test_live_bank_events_share_the_vt_clock():
    task = generate_task(seed=9, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.1)
    trace = run_sim(task, ConstantAdmission(YES), seed=3, mode="live")
    bank_events = sorted(
        (e for e in trace.events if e["kind"] in ("admit", "retrieve")), key=lambda e: e["seq"]
    )
    assert {e["kind"] for e in bank_events} == {"admit", "retrieve"}
    seconds = [e["t_ns"] / 1e9 for e in bank_events]
    assert all(0.0 <= t <= trace.end_time for t in seconds)
    assert seconds == sorted(seconds)
