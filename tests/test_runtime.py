import json

import pytest
from hypothesis import example, given, settings, strategies as st

from hivemem.controller import NO, YES, Decision, StepTriplet
from hivemem.errors import ValidationError
from hivemem.runtime import (
    Candidate,
    EpisodeTrace,
    FinalMove,
    HeuristicAdmission,
    HistoryItem,
    LearnedAdmission,
    MajorityAggregator,
    RetrieveMove,
    StepMove,
    TaskSpec,
    first_finisher,
    run_episode,
)
from hivemem.sim import VARIANT_NAMES, ScriptedBackend, generate_task, solve_counts, variant_policy
from hivemem.tracefile import read_events


def run_sim(task, policy, seed=0, k=3, mode="deterministic"):
    return run_episode(
        task, k, ScriptedBackend(task, k), policy, _PROVIDER,
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
    trace = run_sim(task, variant_policy("add-all"), seed=3, k=1)
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
        always_no = run_sim(task, HeuristicAdmission(lambda t: False), seed=seed)
        strip = lambda evs: [e for e in evs if e["kind"] != "decision"]  # noqa: E731
        assert json.dumps(strip(disabled.events)) == json.dumps(strip(always_no.events))
        assert not any(e["kind"] == "admit" for e in always_no.events)


def test_always_yes_shares_overlap_work():
    task = generate_task(seed=3, depth=2, width=2, overlap_count=4, distractor_count=0, p_fail=0.1)
    trace = run_sim(task, variant_policy("add-all"), seed=1)
    counts = solve_counts(trace.events)
    total = sum(counts.values())
    assert 4 <= total <= 12
    assert any(e["kind"] == "retrieve" for e in trace.events)


def test_always_yes_exactly_once_noise_free():
    task = generate_task(seed=4, depth=2, width=2, overlap_count=4, distractor_count=0, p_fail=0.0)
    trace = run_sim(task, variant_policy("add-all"), seed=1)
    counts = solve_counts(trace.events)
    assert sorted(counts) == sorted(task.values)
    assert set(counts.values()) == {1}


def test_first_finisher_minimal_time():
    candidates = [Candidate(1, "a", 9.0), Candidate(2, "b", 7.0), Candidate(3, "c", 8.0)]
    assert first_finisher(candidates) == (2, "b")


def test_first_finisher_tie_breaks_low_team():
    assert first_finisher([Candidate(2, "b", 7.0), Candidate(1, "a", 7.0)]) == (1, "a")


def test_first_finisher_no_candidates():
    assert first_finisher([]) == (None, "")


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
    for team in (1, 2, 3):
        assert len([e for e in trace.events if e["kind"] == "step" and e["team"] == team]) <= 5


def test_decision_coverage():
    task = generate_task(seed=6, depth=2, width=1, overlap_count=4, distractor_count=2, p_fail=0.1)
    trace = run_sim(task, variant_policy("add-all"), seed=4)
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
    a = run_sim(task, variant_policy("add-all"), seed=11)
    b = run_sim(task, variant_policy("add-all"), seed=11)
    assert json.dumps(a.events, sort_keys=True) == json.dumps(b.events, sort_keys=True)


class _FixedCosts:
    """Each team takes its own list of step costs in order, then answers."""

    def __init__(self, costs):
        self.costs = costs
        self.calls = []

    def next_move(self, team, query, history, visible_keys, rng):
        self.calls.append(team)
        done = sum(item.kind == "step" for item in history)
        if done == len(self.costs[team - 1]):
            return FinalMove(f"team {team}", cost=5.0)
        triplet = StepTriplet(f"in {team}.{done}", f"key {team}.{done}", f"out {team}.{done}")
        return StepMove(triplet, cost=self.costs[team - 1][done])


def _model_move_order(costs):
    """Teams in the order they move: lowest clock first, ties to the lowest team."""
    clocks = [0.0] * len(costs)
    left = [len(c) + 1 for c in costs]  # the steps, then the final answer
    order = []
    while any(left):
        team = min((clocks[i], i) for i in range(len(costs)) if left[i])[1]
        order.append(team + 1)
        if left[team] > 1:
            clocks[team] += costs[team][len(costs[team]) + 1 - left[team]]
        left[team] -= 1
    return order


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), max_size=6), min_size=1,
                max_size=4))
@example([[2.0, 1.0, 3.0, 0.0, 2.0], [1.0, 2.0, 2.0, 1.0, 1.0], [3.0, 0.0, 1.0, 2.0, 2.0]])
def test_deterministic_scheduler_moves_the_lowest_clock_then_the_lowest_team(costs):
    backend = _FixedCosts(costs)
    task = TaskSpec("order", "q", step_cap=10)
    trace = run_episode(task, len(costs), backend, variant_policy("add-all"), _PROVIDER,
                        MajorityAggregator())
    assert backend.calls == _model_move_order(costs)
    assert trace.end_time == max(sum(c) for c in costs) + 5.0  # the final answer costs 5


def test_monotone_key_availability():
    task = generate_task(seed=8, depth=2, width=1, overlap_count=6, distractor_count=2, p_fail=0.1)

    seen: list[set] = []

    class Spy(ScriptedBackend):
        def next_move(self, team, query, history, visible_keys, rng):
            if team == 2:
                seen.append({eid for eid, _ in visible_keys})
            return super().next_move(team, query, history, visible_keys, rng)

    run_episode(task, 3, Spy(task, 3), variant_policy("add-all"), _PROVIDER,
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
    assert trace.team_status == ["final", "failed", "final"]
    by_team = {c.team: c for c in trace.candidates}
    assert by_team[2].answer == ""
    assert by_team[1].answer == "answer-1"
    ends = [e for e in trace.events if e["kind"] == "team_end"]
    assert {e["team"]: (e["status"], e["answer"]) for e in ends} == {
        1: ("final", "answer-1"), 2: ("failed", ""), 3: ("final", "answer-3")
    }


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
        run_episode(task, 3, UnknownMoveOnTeam2(task, 3), variant_policy("add-all"),
                    _PROVIDER, MajorityAggregator(), seed=3, mode=mode)


@pytest.mark.parametrize("mode", ["deterministic", "live"])
def test_a_backend_system_exit_propagates_in_both_modes(mode):
    # a thread swallows SystemExit unless the scheduler re-raises it
    class ExitOnTeam2(ScriptedBackend):
        def next_move(self, team, query, history, visible_keys, rng):
            if team == 2:
                raise SystemExit(3)
            return super().next_move(team, query, history, visible_keys, rng)

    task = generate_task(seed=9, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.1)
    with pytest.raises(SystemExit):
        run_episode(task, 3, ExitOnTeam2(task, 3), variant_policy("add-all"),
                    _PROVIDER, MajorityAggregator(), seed=3, mode=mode)


@pytest.mark.parametrize("mode", ["deterministic", "live"])
def test_a_team_error_stops_every_team_at_its_next_move(mode):
    import time

    calls = {1: 0, 2: 0}

    class SlowTeamOneBadTeamTwo(ScriptedBackend):
        """Team 1 takes 20 ms a move; team 2's first move is no move."""

        def next_move(self, team, query, history, visible_keys, rng):
            calls[team] += 1
            if team == 2:
                return "not a move"
            time.sleep(0.02)
            return super().next_move(team, query, history, visible_keys, rng)

    task = generate_task(seed=9, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.1)
    with pytest.raises(ValidationError, match="unknown move"):
        run_episode(task, 2, SlowTeamOneBadTeamTwo(task, 2), variant_policy("add-all"),
                    _PROVIDER, MajorityAggregator(), seed=3, mode=mode)
    assert calls[2] == 1
    assert 1 <= calls[1] <= 3


def test_run_episode_rejects_a_bare_policy_before_any_move():
    from hivemem.controller import AdmissionPolicy

    class CountingBackend(ScriptedBackend):
        calls = 0

        def next_move(self, *args):
            CountingBackend.calls += 1
            return super().next_move(*args)

    task = generate_task(seed=9, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.1)
    for mode in ("deterministic", "live"):
        with pytest.raises(ValidationError, match="admission rule"):
            run_episode(task, 3, CountingBackend(task, 3), AdmissionPolicy(64, 8),
                        _PROVIDER, MajorityAggregator(), seed=0, mode=mode)
    assert CountingBackend.calls == 0


def test_reference_rules_report_certain_decisions():
    from hivemem.bank import MemoryBank

    bank = MemoryBank(_PROVIDER.dimension)
    bank.admit("earlier", "out", _PROVIDER.embed("earlier"), 1, 1)
    rules = {
        YES: variant_policy("add-all"),
        NO: HeuristicAdmission(lambda t: False),
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


def test_retrieve_injects_the_admitted_entrys_summary_and_output():
    class Recorder:
        """Admits two steps, retrieves both and a missing id, then answers."""

        def __init__(self):
            self.moves = iter([
                StepMove(StepTriplet("in A", "sum A", "out A")),
                StepMove(StepTriplet("in B", "sum B", "out B")),
                RetrieveMove(2),
                RetrieveMove(1),
                RetrieveMove(99),
                FinalMove("done"),
            ])
            self.histories = []

        def next_move(self, team, query, history, visible_keys, rng):
            self.histories.append(list(history))
            return next(self.moves)

    backend = Recorder()
    trace = run_episode(TaskSpec("t", "q", step_cap=5), 1, backend,
                        HeuristicAdmission(lambda t: True), _PROVIDER, MajorityAggregator(),
                        seed=0)
    added = [after[len(before):] for before, after in zip(backend.histories, backend.histories[1:])]
    assert added == [
        [HistoryItem("step", "out A")],
        [HistoryItem("step", "out B")],
        [HistoryItem("memory", "[shared memory result] sum B: out B")],
        [HistoryItem("memory", "[shared memory result] sum A: out A")],
        [HistoryItem("failed_step", "retrieval of entry 99 failed")],
    ]
    retrieves = [(e["entry_id"], e["team"], e["step"]) for e in trace.events
                 if e["kind"] == "retrieve"]
    assert retrieves == [(2, 1, 2), (1, 1, 2)]
    (failed,) = [e for e in trace.events if e["kind"] == "failed_retrieve"]
    assert (failed["team"], failed["entry_id"]) == (1, 99)


def test_cap_exhausted_team_yields_no_candidate():
    class StepForever:
        def next_move(self, team, query, history, visible_keys, rng):
            return StepMove(StepTriplet("in", "sum", "out"))

    spec = TaskSpec("t", "q", step_cap=3)
    trace = run_episode(spec, 2, StepForever(), None, _PROVIDER, MajorityAggregator(), seed=0)
    assert trace.candidates == []
    assert trace.first_team is None
    assert trace.aggregate_answer == ""
    assert trace.team_status == ["cap_exhausted", "cap_exhausted"]
    ends = [e for e in trace.events if e["kind"] == "team_end"]
    assert [(e["team"], e["step"], e["answer"]) for e in ends] == [(1, 3, None), (2, 3, None)]


def test_aggregator_failure_surfaced_with_trace():
    from hivemem.runtime import AggregationError

    class Broken:
        def aggregate(self, query, candidates):
            raise RuntimeError("aggregator exploded")

    task = generate_task(seed=10, depth=1, width=1, overlap_count=2,
                         distractor_count=0, p_fail=0.0)
    with pytest.raises(AggregationError) as exc:
        run_episode(task, 2, ScriptedBackend(task, 2), None, _PROVIDER,
                    Broken(), seed=0)
    trace = exc.value.trace  # completed trace rides along for persistence
    assert trace.candidates
    assert trace.events[-1]["kind"] == "aggregate"
    assert trace.aggregate_answer == ""


def test_live_mode_smoke():
    task = generate_task(seed=9, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.1)
    trace = run_sim(task, variant_policy("add-all"), seed=3, mode="live")
    assert task.scorer().score(trace.aggregate_answer) == 1.0
    assert trace.events[0]["mode"] == "live"
    step_events = [e for e in trace.events if e["kind"] == "step"]
    decision_events = [e for e in trace.events if e["kind"] == "decision"]
    assert len(step_events) == len(decision_events)


def test_live_moves_are_stamped_when_the_reply_arrives():
    import time

    class SlowTeamOne:
        """Team 1 answers after 0.3 s; team 2 takes one step, then answers at once."""

        def next_move(self, team, query, history, visible_keys, rng):
            if team == 1:
                time.sleep(0.3)
                return FinalMove("slow")
            if not history:
                return StepMove(StepTriplet("in", "sum", "out"))
            return FinalMove("fast")

    trace = run_episode(TaskSpec("t", "q", step_cap=5), 2, SlowTeamOne(), None, _PROVIDER,
                        MajorityAggregator(), seed=0, mode="live")
    assert trace.first_team == 2
    finish = {c.team: c.finish_time for c in trace.candidates}
    assert finish[2] < 0.3 <= finish[1] <= trace.end_time
    finals = {e["team"]: e["vt"] for e in trace.events if e["kind"] == "team_end"}
    assert finals == finish
    (step,) = [e for e in trace.events if e["kind"] == "step"]
    assert step["vt_start"] <= step["vt_end"] <= finish[2]


@pytest.mark.parametrize("mode, earliest", [("deterministic", 1.0), ("live", 0.2)])
def test_failed_retrieve_is_stamped_at_the_moves_end(mode, earliest):
    import time

    class SlowBadRetriever:
        """Asks for a missing entry after 0.2 s, then answers."""

        def next_move(self, team, query, history, visible_keys, rng):
            if not history:
                time.sleep(0.2)
                return RetrieveMove(999)  # costs 1.0 in virtual time
            return FinalMove("done")

    trace = run_episode(TaskSpec("t", "q", step_cap=5), 1, SlowBadRetriever(), None, _PROVIDER,
                        MajorityAggregator(), seed=0, mode=mode)
    (failed,) = [e for e in trace.events if e["kind"] == "failed_retrieve"]
    assert earliest <= failed["vt"] <= trace.end_time
    if mode == "deterministic":
        assert failed["vt"] == 1.0


def test_live_bank_events_share_the_vt_clock():
    task = generate_task(seed=9, depth=2, width=1, overlap_count=4, distractor_count=0, p_fail=0.1)
    trace = run_sim(task, variant_policy("add-all"), seed=3, mode="live")
    bank_events = sorted(
        (e for e in trace.events if e["kind"] in ("admit", "retrieve")), key=lambda e: e["seq"]
    )
    assert {e["kind"] for e in bank_events} == {"admit", "retrieve"}
    seconds = [e["t_ns"] / 1e9 for e in bank_events]
    assert all(0.0 <= t <= trace.end_time for t in seconds)
    assert seconds == sorted(seconds)


# -- learned admission and its decision memo ---------------------------------

_HEAVY = dict(depth=2, width=1, overlap_count=6, distractor_count=6, step_cap=14, p_fail=0.08,
              pollution_fail_boost=0.25, pollution_recovery_steps=2, pollution_corrupt_rate=0.65)


def _mixed_policy():
    """A policy whose random output layer admits about half of the steps."""
    import numpy as np

    from hivemem.controller import AdmissionPolicy

    policy = AdmissionPolicy(64, 8, seed=0)
    policy.params["w_out"] = np.random.default_rng(0).normal(0, 0.5, (2, 32))
    return policy


def _variant_events(policy, tasks, seeds):
    from hivemem.sim import run_variant

    _, traces = run_variant(tasks, policy, 3, seeds, _PROVIDER, keep_traces=True)
    return [t.events for t in traces]


def test_run_variant_decides_as_separate_episodes_do():
    tasks = [generate_task(seed=s, **_HEAVY) for s in (1, 2, 3)]
    seeds = [0, 1, 2, 3]
    policy = _mixed_policy()
    variant = _variant_events(policy, tasks, seeds)
    alone = [run_sim(task, LearnedAdmission(policy), seed=seed).events
             for task in tasks for seed in seeds]
    actions = [e["action"] for events in alone for e in events if e["kind"] == "decision"]
    assert {YES, NO} <= set(actions)
    # run_variant appends each episode's score event
    assert [events[:-1] for events in variant] == alone


def test_run_variant_skips_the_forward_pass_on_repeated_decisions(monkeypatch):
    from hivemem.controller import AdmissionPolicy
    from hivemem.sim import run_variant

    forward = AdmissionPolicy.forward
    calls = []

    def counted(self, context):
        calls.append(len(context.queries))
        return forward(self, context)

    monkeypatch.setattr(AdmissionPolicy, "forward", counted)
    tasks = [generate_task(seed=s, **_HEAVY) for s in (1, 2)]
    _, traces = run_variant(tasks, _mixed_policy(), 3, [0, 1, 2], _PROVIDER, keep_traces=True)
    decisions = sum(e["kind"] == "decision" for t in traces for e in t.events)
    assert 0 < len(calls) < decisions


def _memo_forwards(monkeypatch, triplets):
    """Forward passes of one greedy rule deciding each triplet on one bank."""
    from hivemem.bank import MemoryBank
    from hivemem.controller import AdmissionPolicy

    forward = AdmissionPolicy.forward
    calls = []

    def counted(self, context):
        calls.append(context)
        return forward(self, context)

    monkeypatch.setattr(AdmissionPolicy, "forward", counted)
    rule, bank = LearnedAdmission(_mixed_policy()), MemoryBank(_PROVIDER.dimension)
    for triplet in triplets:
        rule.decide_step("q", bank, triplet, _PROVIDER, None)
    return len(calls)


def test_equal_triplets_share_one_memo_row(monkeypatch):
    fields = ["in", "sum", "out"]
    twins = [StepTriplet(*["".join(f) for f in fields]) for _ in range(3)]  # equal, not identical
    assert twins[0] is not twins[1] and twins[0].agent_input is not twins[1].agent_input
    assert _memo_forwards(monkeypatch, twins) == 1


@pytest.mark.parametrize("other", [
    StepTriplet("in2", "sum", "out"),
    StepTriplet("in", "sum2", "out"),
    StepTriplet("in", "sum", "out2"),
    StepTriplet("sum", "in", "out"),
    StepTriplet("in", "out", "sum"),
], ids=["input", "summary", "output", "input-summary-swapped", "summary-output-swapped"])
def test_a_triplet_that_differs_gets_its_own_memo_row(monkeypatch, other):
    assert _memo_forwards(monkeypatch, [StepTriplet("in", "sum", "out"), other]) == 2


def test_decision_memo_does_not_outlive_a_run_variant_call():
    import copy

    tasks = [generate_task(seed=s, **_HEAVY) for s in (1, 2)]
    seeds = [0, 1, 2]
    policy = _mixed_policy()
    before = _variant_events(policy, tasks, seeds)
    policy.params["b_out"] += [-0.4, 0.4]  # in place: the same arrays, new values
    after = _variant_events(policy, tasks, seeds)
    assert after != before
    assert after == _variant_events(copy.deepcopy(policy), tasks, seeds)


class _DrawSpy:
    """Backend and admission rule that note every draw from their generators.

    Each team takes ``steps`` steps, one ``rng.random()`` draw per move and
    one per decision, then finishes.
    """

    def __init__(self, steps=4):
        self.steps = steps
        self.team_draws: dict[int, list[float]] = {}
        self.decision_draws: dict[int, list[float]] = {}
        self.team = 0

    def next_move(self, team, query, history, visible_keys, rng):
        draws = self.team_draws.setdefault(team, [])
        draws.append(rng.random())
        self.team = team
        if len(draws) > self.steps:
            return FinalMove("done")
        return StepMove(StepTriplet("in", f"summary {team}", "out"), label="step")

    def decide_step(self, query, bank, triplet, provider, rng):
        self.decision_draws.setdefault(self.team, []).append(rng.random())
        return Decision(NO, 0.0, 0.0), len(bank)


@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1, 123456789, 2**32, 2**64 + 3])
@pytest.mark.parametrize("k", [1, 3])
def test_team_and_decision_generators_draw_the_spawned_streams(seed, k):
    import numpy as np

    spy = _DrawSpy()
    run_episode(TaskSpec("t", "q"), k, spy, spy, _PROVIDER, MajorityAggregator(), seed=seed)
    # the reference derivation: two children of the seed, k grandchildren each
    team_seeds, decision_seeds = np.random.SeedSequence(seed).spawn(2)
    for draws, seeds in ((spy.team_draws, team_seeds), (spy.decision_draws, decision_seeds)):
        assert sorted(draws) == list(range(1, k + 1))
        for team, child in enumerate(seeds.spawn(k), start=1):
            expected = np.random.default_rng(child).random(len(draws[team]))
            assert draws[team] == expected.tolist()


@pytest.mark.parametrize("rule, built", [
    ("add-all", 3),
    ("greedy", 3),
    ("sampled", 6),  # every team decides, so each decision generator is built once
])
def test_an_episode_builds_only_the_generators_it_draws_from(monkeypatch, rule, built):
    import numpy as np

    task = generate_task(seed=1, **_HEAVY)
    rule = {
        "add-all": variant_policy("add-all"),
        "greedy": LearnedAdmission(_mixed_policy()),
        "sampled": LearnedAdmission(_mixed_policy(), mode="sampled"),
    }[rule]
    default_rng = np.random.default_rng
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    trace = run_sim(task, rule, seed=7)
    assert {e["team"] for e in trace.events if e["kind"] == "decision"} == {1, 2, 3}
    assert len(calls) == built


class _GeneratorSpy:
    """Backend and admission rule that keep each team's and each decision
    generator's state before its first draw, the first draws of the
    generators ``rng.spawn(2)`` gives, twice in a row, and six words of its
    seed sequence's state."""

    def __init__(self):
        self.states: dict[tuple[int, int], dict] = {}
        self.children: dict[tuple[int, int], list[float]] = {}
        self.words: dict[tuple[int, int], list[int]] = {}
        self.team = 0

    def _note(self, kind, team, rng):
        if (kind, team) not in self.states:
            self.states[kind, team] = rng.bit_generator.state
            children = rng.spawn(2) + rng.spawn(2)
            self.children[kind, team] = [c.random() for c in children]
            self.words[kind, team] = rng.bit_generator.seed_seq.generate_state(6).tolist()
        rng.random()

    def next_move(self, team, query, history, visible_keys, rng):
        self._note(0, team, rng)
        self.team = team
        if len(history) > 2:
            return FinalMove("done")
        return StepMove(StepTriplet("in", f"summary {team}", "out"), label="step")

    def decide_step(self, query, bank, triplet, provider, rng):
        self._note(1, self.team, rng)
        return Decision(NO, 0.0, 0.0), len(bank)


@pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 3])
def test_team_and_decision_generators_start_where_the_reference_ones_do(seed):
    import numpy as np

    from hivemem import runtime

    runtime._seed_words.cache_clear()
    for _ in range(2):  # the seed words derived, then kept
        spy = _GeneratorSpy()
        run_episode(TaskSpec("t", "q"), 3, spy, spy, _PROVIDER, MajorityAggregator(), seed=seed)
        assert sorted(spy.states) == [(t, j) for t in (0, 1) for j in (1, 2, 3)]
        for (t, team), state in spy.states.items():
            reference = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, team - 1)))
            assert state == reference.bit_generator.state
            children = reference.spawn(2) + reference.spawn(2)
            assert spy.children[t, team] == [c.random() for c in children]
            words = reference.bit_generator.seed_seq.generate_state(6)
            assert spy.words[t, team] == words.tolist()
    assert runtime._seed_words.cache_info().hits >= 6


def test_the_generator_caches_never_show_in_a_trace():
    from hivemem import runtime
    from hivemem.sim import run_variant, score_event

    task_seeds, seeds = (1, 2, 3), [0, 1, 5, 2**40]
    policy = _mixed_policy()
    for k in (1, 3):
        tasks = [generate_task(seed=s, **_HEAVY) for s in task_seeds]
        warm = [
            [t.events for t in run_variant(tasks, LearnedAdmission(policy, mode="sampled"), k,
                                           seeds, _PROVIDER, keep_traces=True)[1]]
            for _ in range(2)  # the second call finds every cache filled
        ]
        cold = []
        for task_seed in task_seeds:
            for seed in seeds:
                task = generate_task(seed=task_seed, **_HEAVY)  # nothing derived yet
                runtime._seed_words.cache_clear()
                trace = run_sim(task, LearnedAdmission(policy, mode="sampled"), seed=seed, k=k)
                cold.append([*trace.events, score_event(trace, task.scorer().score)])
        assert {YES, NO} <= {e.get("action") for events in cold for e in events}
        assert warm[0] == warm[1] == cold


@pytest.mark.parametrize("mode", ["deterministic", "live"])
@pytest.mark.parametrize("seed", [-1, -5, 1.0, "3", None, [1, 2], -(2**70), True])
def test_run_episode_refuses_a_seed_that_is_no_non_negative_integer(mode, seed):
    spy = _DrawSpy()
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        run_episode(TaskSpec("t", "q"), 2, spy, spy, _PROVIDER, MajorityAggregator(),
                    seed=seed, mode=mode)
    assert spy.team_draws == spy.decision_draws == {}


def test_run_episode_takes_numpy_integer_seeds(tmp_path):
    import numpy as np

    def trace_file(task, seed, k=3):
        path = tmp_path / "episode.jsonl"
        run_sim(task, variant_policy("add-all"), seed=seed, k=k).write(path)
        return path.read_bytes()

    task = generate_task(seed=1, **_HEAVY)
    reference = trace_file(task, 9)
    for seed in (np.int64(9), np.uint32(9), np.uint64(9)):
        assert trace_file(task, seed) == reference
    # a numpy k or step cap is written as the plain int it equals
    assert trace_file(task, 9, k=np.int64(3)) == reference
    assert trace_file(generate_task(seed=1, **{**_HEAVY, "step_cap": np.int64(14)}), 9) == reference
    with pytest.raises(ValidationError):
        run_sim(task, variant_policy("add-all"), seed=np.int64(-9))


def test_learned_admission_rejects_a_bad_mode_or_temperature_up_front():
    with pytest.raises(ValidationError, match="decision mode"):
        LearnedAdmission(_mixed_policy(), mode="argmax")
    with pytest.raises(ValidationError, match="temperature"):
        LearnedAdmission(_mixed_policy(), mode="sampled", temperature=0.0)


# -- the event stream is the episode ----------------------------------------


class _Spy:
    """Backend and admission rule in one, noting each step a team takes.

    After ``fault_after`` moves team 1 turns faulty: it raises (``failed``),
    steps forever (``cap_exhausted``) or retrieves a missing entry forever
    (``move_limit``).  Deterministic mode only: a rule call follows its
    team's move at once.
    """

    def __init__(self, backend, rule, fault=None, fault_after=0):
        self.backend, self.rule = backend, rule
        self.fault, self.fault_after = fault, fault_after
        self.steps: dict[int, list[list]] = {}  # team -> [triplet, label, decision, size, entry]
        self.admits = 0
        self.moves = 0

    def next_move(self, team, *args):
        if team == 1:
            self.moves += 1
        if team == 1 and self.fault and self.moves > self.fault_after:
            if self.fault == "raise":
                raise RuntimeError("backend down")
            move = StepMove(StepTriplet("in", "stuck", "out"), label="stuck")
            if self.fault == "retrieve":
                move = RetrieveMove(999)
        else:
            move = self.backend.next_move(team, *args)
        if isinstance(move, StepMove):
            self.steps.setdefault(team, []).append([move.triplet, move.label, None, 0, None])
            self.team = team
        return move

    def decide_step(self, *args):
        decision, size = self.rule.decide_step(*args)
        row = self.steps[self.team][-1]
        row[2:4] = decision, size
        if decision.action == YES:
            self.admits += 1
            row[4] = self.admits
        return decision, size


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(VARIANT_NAMES),
    task_seed=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    fault=st.sampled_from([None, "raise", "step", "retrieve"]),
    fault_after=st.integers(0, 20),
)
def test_a_trace_file_rebuilds_its_trace(
    tmp_path_factory, variant, task_seed, seed, k, fault, fault_after
):
    task = generate_task(seed=task_seed, **_HEAVY)
    rule = variant_policy(variant, _mixed_policy())
    spy = _Spy(ScriptedBackend(task, k), rule, fault, fault_after)
    trace = run_episode(task, k, spy, None if rule is None else spy, _PROVIDER,
                        MajorityAggregator(), seed=seed)
    path = tmp_path_factory.getbasetemp() / "episode.jsonl"
    trace.write(path)
    rebuilt = EpisodeTrace.from_events(read_events(path))

    assert rebuilt == trace
    header = rebuilt.events[0]
    assert (header["query"], header["seed"], header["k"]) == (task.query, seed, k)
    assert len(rebuilt.team_status) == k
    if fault is not None and fault_after < spy.moves:
        ending = {"raise": "failed", "step": "cap_exhausted", "retrieve": "move_limit"}[fault]
        assert rebuilt.team_status[0] == ending
    # the step, decision and admit events are the steps the teams took
    taken = []
    for team, status in enumerate(rebuilt.team_status, start=1):
        rows = spy.steps.get(team, [])
        if status == "cap_exhausted":
            rows = rows[:-1]  # the step past the cap is not taken
        taken += [(team, i, *row) for i, row in enumerate(rows, start=1)]
    events = rebuilt.events
    decisions = {(e["team"], e["step"]): e for e in events if e["kind"] == "decision"}
    entries = {(e["team"], e["step"]): e["entry_id"] for e in events if e["kind"] == "admit"}
    recorded = []
    for e in sorted((e for e in events if e["kind"] == "step"), key=lambda e: e["team"]):
        key = (e["team"], e["step"])
        d = decisions.get(key)
        decision = None if d is None else Decision(
            d["action"], d["prob_yes"], d["log_prob"], d["fail_closed"]
        )
        triplet = StepTriplet(e["agent_input"], e["step_summary"], e["agent_output"])
        size = 0 if d is None else d["mem_size"]
        recorded.append((*key, triplet, e["label"], decision, size, entries.get(key)))
    assert recorded == taken
    assert len(decisions) == sum(row[4] is not None for row in taken)
    answer = MajorityAggregator().aggregate(header["query"], rebuilt.candidates)
    assert answer == rebuilt.aggregate_answer == trace.aggregate_answer


def test_from_events_needs_a_header_and_one_aggregate():
    from hivemem.errors import SchemaError

    trace = run_sim(generate_task(seed=1, **_HEAVY), None)
    for events in ([], trace.events[1:], trace.events[:-1], trace.events + trace.events[-1:]):
        with pytest.raises(SchemaError):
            EpisodeTrace.from_events(events)
