import json
import math
import os
import stat

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from hivemem.controller import AdmissionPolicy
from hivemem.errors import SchemaError, ValidationError
from hivemem.metrics import (
    RunMetrics,
    cdf_points,
    compute_metrics,
    fd_bin_count,
    histogram_points,
    metrics_from_event_streams,
    render_table,
    report,
)
from hivemem.bank import MemoryBank
from hivemem import tracefile
from hivemem.tracefile import read_events, validate_event, write_events


def synth_episode(rng, teams=3):
    """Random but schema-valid single-episode event stream."""
    events = [{"kind": "header", "schema": 1, "task_id": "t", "k": teams, "mode": "deterministic", "cap": 30}]
    admitted = []
    seq = 0
    step_counter = {t: 0 for t in range(1, teams + 1)}
    n_steps = int(rng.integers(1, 15))
    for _ in range(n_steps):
        team = int(rng.integers(1, teams + 1))
        step_counter[team] += 1
        step = step_counter[team]
        events.append({"kind": "step", "team": team, "step": step, "label": "step",
                       "vt_start": 0.0, "vt_end": 1.0})
        admit = bool(rng.random() < 0.6)
        events.append({"kind": "decision", "team": team, "step": step,
                       "action": "YES" if admit else "NO", "prob_yes": 0.5,
                       "log_prob": -0.69, "fail_closed": False})
        if admit:
            seq += 1
            eid = len(admitted) + 1
            admitted.append((eid, team))
            events.append({"kind": "admit", "seq": seq, "entry_id": eid, "team": team,
                           "step": step, "t_ns": seq})
    for _ in range(int(rng.integers(0, 10))):
        if not admitted:
            break
        eid, src = admitted[int(rng.integers(len(admitted)))]
        team = int(rng.integers(1, teams + 1))
        seq += 1
        events.append({"kind": "retrieve", "seq": seq, "entry_id": eid, "team": team,
                       "step": max(1, step_counter[team]), "t_ns": seq})
    events.append({"kind": "aggregate", "answer": "a", "first_team": 1,
                   "first_answer": "a", "vt": float(rng.integers(10, 100))})
    if rng.random() < 0.5:
        events.append({"kind": "score", "agg_score": float(rng.random()),
                       "first_score": float(rng.random())})
    return events


def brute_force_metrics(streams):
    """Independent double-loop recomputation of every counter."""
    m = dict(episodes=0, candidates=0, admits=0, retr_events=0, cross_events=0,
             entries_retrieved=0, cross_entries=0)
    runtimes, steps_list, scores = [], [], []
    for events in streams:
        m["episodes"] += 1
        admits = [e for e in events if e["kind"] == "admit"]
        retrieves = [e for e in events if e["kind"] == "retrieve"]
        m["candidates"] += sum(1 for e in events if e["kind"] == "decision")
        m["admits"] += len(admits)
        m["retr_events"] += len(retrieves)
        for a in admits:
            recs = [r for r in retrieves if r["entry_id"] == a["entry_id"]]
            if recs:
                m["entries_retrieved"] += 1
            if any(r["team"] != a["team"] for r in recs):
                m["cross_entries"] += 1
        for r in retrieves:
            src = next(a["team"] for a in admits if a["entry_id"] == r["entry_id"])
            if r["team"] != src:
                m["cross_events"] += 1
        steps_list.append(sum(1 for e in events if e["kind"] == "step"))
        runtimes.append(next(e["vt"] for e in events if e["kind"] == "aggregate"))
        for e in events:
            if e["kind"] == "score":
                scores.append(e["agg_score"])
    return m, runtimes, steps_list, scores


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(0)
    streams = [synth_episode(rng) for _ in range(200)]
    got = metrics_from_event_streams(streams)
    want, runtimes, steps_list, scores = brute_force_metrics(streams)
    assert got.episodes == want["episodes"]
    assert got.candidate_steps == want["candidates"]
    assert got.admitted == want["admits"]
    assert got.retrieval_events == want["retr_events"]
    assert got.cross_team_events == want["cross_events"]
    assert got.entries_retrieved == want["entries_retrieved"]
    assert got.cross_team_entries == want["cross_entries"]
    assert got.memories_saved_pct == 100.0 * want["admits"] / want["candidates"]
    if want["admits"]:
        assert got.memory_recall_pct == 100.0 * want["entries_retrieved"] / want["admits"]
    if want["retr_events"]:
        assert got.cross_team_recall_pct == 100.0 * want["cross_events"] / want["retr_events"]
    assert got.runtime_samples == runtimes
    assert got.step_samples == steps_list
    if scores:
        assert got.mean_score == float(np.mean(scores))


def test_metrics_reference_example():
    # 10 candidates, 6 admits, 3 distinct entries retrieved, consumers (2,3,1)
    # of entries all sourced from team 1: saved 60%, recall 50%, cross 66.7%
    events = [{"kind": "header", "schema": 1, "task_id": "t", "k": 3,
               "mode": "deterministic", "cap": 30}]
    for i in range(10):
        events.append({"kind": "decision", "team": 1, "step": i + 1,
                       "action": "YES" if i < 6 else "NO", "prob_yes": 0.5,
                       "log_prob": -0.7, "fail_closed": False})
    for i in range(6):
        events.append({"kind": "admit", "seq": i + 1, "entry_id": i + 1, "team": 1,
                       "step": i + 1, "t_ns": i})
    for j, consumer in enumerate((2, 3, 1)):
        events.append({"kind": "retrieve", "seq": 10 + j, "entry_id": j + 1,
                       "team": consumer, "step": 1, "t_ns": 10 + j})
    events.append({"kind": "aggregate", "answer": "a", "first_team": 1,
                   "first_answer": "a", "vt": 1.0})
    m = metrics_from_event_streams([events])
    assert m.memories_saved_pct == pytest.approx(60.0)
    assert m.memory_recall_pct == pytest.approx(50.0)
    assert m.cross_team_recall_pct == pytest.approx(100 * 2 / 3)


def test_zero_admits_flagged():
    events = [
        {"kind": "header", "schema": 1, "task_id": "t", "k": 1, "mode": "deterministic", "cap": 30},
        {"kind": "decision", "team": 1, "step": 1, "action": "NO", "prob_yes": 0.1,
         "log_prob": -0.1, "fail_closed": False},
        {"kind": "aggregate", "answer": "", "first_team": None, "first_answer": "", "vt": 3.0},
    ]
    m = metrics_from_event_streams([events])
    assert not m.recall_defined and not m.cross_defined
    assert m.memory_recall_pct == 0.0 and m.cross_team_recall_pct == 0.0


def test_metrics_idempotent_through_files(tmp_path, provider):
    from hivemem.runtime import MajorityAggregator, run_episode
    from hivemem.sim import ScriptedBackend, generate_task, variant_policy

    streams = []
    paths = []
    for i in range(4):
        task = generate_task(seed=80 + i, depth=2, width=1, overlap_count=4,
                             distractor_count=1, p_fail=0.1)
        trace = run_episode(task, 3, ScriptedBackend(task, 3),
                            variant_policy("add-all"), provider, MajorityAggregator(), seed=i)
        trace.events.append({"kind": "score", "agg_score": 1.0, "first_score": 1.0})
        streams.append(trace.events)
        path = tmp_path / f"ep{i}.jsonl"
        write_events(path, trace.events)
        paths.append(path)
    in_process = metrics_from_event_streams(streams)
    from_files = compute_metrics(paths)
    assert in_process == from_files  # bit-exact dataclass equality


def test_schema_error_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"kind": "header", "schema": 2, "task_id": "t", "k": 1,
                    "mode": "deterministic", "cap": 30, "query": "q", "seed": 0})
        + "\n" + json.dumps({"kind": "bogus"}) + "\n"
    )
    with pytest.raises(SchemaError) as exc:
        list(read_events(path))
    assert "line 2" in str(exc.value)


def test_schema_1_file_fails_on_its_header(tmp_path):
    # a version-1 header lacks the query and seed that version 2 requires
    header = {"kind": "header", "schema": 1, "task_id": "t", "k": 1,
              "mode": "deterministic", "cap": 30}
    final = {"kind": "final", "team": 1, "step": 0, "answer": "a", "vt": 0.0}
    path = tmp_path / "v1.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in (header, final)))
    with pytest.raises(SchemaError) as exc:
        read_events(path)
    assert exc.value.line_number == 1
    assert "header event missing fields ['query', 'seed']" in str(exc.value)


@pytest.mark.parametrize("schema", [1, 3, "2", True, None])
def test_header_of_another_schema_fails(tmp_path, schema):
    header = {"kind": "header", "schema": schema, "task_id": "t", "k": 1,
              "mode": "deterministic", "cap": 30, "query": "q", "seed": 0}
    path = tmp_path / "other.jsonl"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(SchemaError) as exc:
        read_events(path)
    assert exc.value.line_number == 1
    assert f"header schema {schema!r} is not 2" in str(exc.value)


def test_schema_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"kind": "admit", "seq": 1}) + "\n")
    with pytest.raises(SchemaError) as exc:
        list(read_events(path))
    assert "missing" in str(exc.value)


KINDS = {
    "header": ("schema", "task_id", "k", "mode", "cap", "query", "seed"),
    "step": ("team", "step", "label", "vt_start", "vt_end", "agent_input", "step_summary",
             "agent_output"),
    "decision": ("team", "step", "action", "prob_yes", "log_prob", "fail_closed", "mem_size"),
    "admit": ("seq", "entry_id", "team", "step", "t_ns"),
    "retrieve": ("seq", "entry_id", "team", "step", "t_ns"),
    "failed_retrieve": ("team", "entry_id", "vt"),
    "team_end": ("team", "step", "status", "answer", "vt"),
    "aggregate": ("answer", "first_team", "first_answer", "vt"),
    "score": ("agg_score", "first_score"),
}


def _variant_tasks():
    from hivemem.sim import generate_task

    return [generate_task(seed=300 + i, depth=2, width=1, overlap_count=4,
                          distractor_count=2, p_fail=0.2) for i in range(3)]


def _variant_streams(tasks, provider):
    """Event streams of the four variants, two episode seeds per task."""
    from hivemem.sim import run_variant, variant_policy

    learned = AdmissionPolicy(64, 8, seed=1)
    learned.params["w_out"] = np.random.default_rng(1).normal(0, 1, learned.params["w_out"].shape)
    streams = []
    for name in ("no-memory", "add-all", "llm-proxy", "learned"):
        _, traces = run_variant(tasks, variant_policy(name, learned), 3, [0, 1], provider,
                                keep_traces=True)
        streams += [t.events for t in traces]
    return streams


def test_writer_bytes_match_per_event_dumps(tmp_path, provider, monkeypatch):
    from hivemem.runtime import MajorityAggregator, RetrieveMove, run_episode
    from hivemem.sim import ScriptedBackend, variant_policy

    class StaleFirstRetrieve(ScriptedBackend):
        """Each team first asks for an entry that does not exist."""

        def next_move(self, team, query, history, visible_keys, rng):
            if not history:
                return RetrieveMove(999)
            return super().next_move(team, query, history, visible_keys, rng)

    tasks = _variant_tasks()
    streams = _variant_streams(tasks, provider)
    stale = run_episode(tasks[0], 3, StaleFirstRetrieve(tasks[0], 3),
                        variant_policy("add-all"), provider, MajorityAggregator(), seed=0)
    streams.append(stale.events)
    streams.append([{"kind": "team_end", "team": 1, "step": 2, "status": "final", "vt": 0.1,
                     "answer": 'na\u00efve {"x": [1]}\n\\ \u2713'}])
    assert {e["kind"] for events in streams for e in events} == set(KINDS)
    # These streams hold no None, NaN or Infinity, so orjson writes every
    # line and the JSON encoder none; events read back, and read back in
    # sorted key order they write the same bytes again.
    encoded = []
    encoder = tracefile._ENCODER

    class Spy:
        def encode(self, event):
            encoded.append(event["kind"])
            return encoder.encode(event)

    monkeypatch.setattr(tracefile, "_ENCODER", Spy())
    for n, events in enumerate(streams):
        path = tmp_path / f"ep{n}.jsonl"
        write_events(path, events)
        expected = b"".join(orjson.dumps(e, option=orjson.OPT_SORT_KEYS) + b"\n" for e in events)
        assert path.read_bytes() == expected
        assert read_events(path) == events
        write_events(tmp_path / f"again{n}.jsonl", read_events(path))
        assert (tmp_path / f"again{n}.jsonl").read_bytes() == expected
    assert encoded == []


def _with_step_outputs(events, *outputs):
    """A copy of ``events`` whose first step events output ``outputs``."""
    events = [dict(e) for e in events]
    for event, output in zip([e for e in events if e["kind"] == "step"], outputs):
        event["agent_output"] = output
    return events


def test_json_loads_reads_only_the_lines_orjson_rejects(tmp_path, provider, monkeypatch):
    streams = _variant_streams(_variant_tasks(), provider)
    # A confident policy writes fraction digits in runs of 19 and more.
    confident = [dict(e) for e in streams[-1]]  # a learned episode
    decision = next(e for e in confident if e["kind"] == "decision")
    decision.update(prob_yes=1 / 7000, log_prob=math.log(1 - 1 / 7000))
    # Brackets in strings, 300 on each of two lines; braces in strings.
    bracketed = _with_step_outputs(streams[-1], "[" * 300, "[" * 300)
    braced = _with_step_outputs(streams[0], 'a}, {"kind": "score"}', "{", "}\n{")
    streams += [confident, bracketed, braced]
    paths = [tmp_path / f"ep{n}.jsonl" for n in range(len(streams))]
    for path, events in zip(paths, streams):
        write_events(path, events)
    lines = paths[0].read_bytes().splitlines()
    reformatted = {
        "crlf": b"".join(line + b"\r\n" for line in lines),
        "padded": b"".join(b" \t" + line + b"  \n" for line in lines),
        "blank_line": b"\n".join(lines[:1] + [b""] + lines[1:]) + b"\n\n",
    }
    copies = []
    for name, data in reformatted.items():
        copies.append(tmp_path / f"{name}.jsonl")
        copies[-1].write_bytes(data)
    loads = json.loads
    parsed = []

    def refuse(text, *args, **kwargs):
        raise AssertionError("json.loads parsed a line orjson reads")

    monkeypatch.setattr(tracefile.json, "loads", refuse)
    for path, events in zip(paths, streams):
        assert read_events(path) == events
    for path in copies:
        assert read_events(path) == streams[0]

    def spy(text, *args, **kwargs):
        parsed.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(tracefile.json, "loads", spy)
    nan_path = tmp_path / "nan.jsonl"
    write_events(nan_path, [{"kind": "score", "agg_score": float("nan"), "first_score": 1.0}])
    [score] = read_events(nan_path)
    assert score["agg_score"] != score["agg_score"]  # NaN
    assert len(parsed) == 1
    surrogate = [dict(e) for e in streams[0]]
    team_end = next(e for e in surrogate if e["kind"] == "team_end")
    team_end["answer"] = "\ud800"
    write_events(paths[0], surrogate)
    parsed.clear()
    assert read_events(paths[0]) == surrogate
    assert parsed == [json.dumps(team_end, sort_keys=True)]  # that line alone
    # A whole-file guard sends every line to json.loads; blank lines are skipped.
    long_integer = [{**streams[0][0], "seed": 10**19}, *streams[0][1:]]
    deep = _with_step_outputs(streams[0], "[" * 600)
    for events in (long_integer, deep):
        write_events(paths[0], events)
        paths[0].write_bytes(paths[0].read_bytes().replace(b"\n", b"\n\n", 1))
        parsed.clear()
        assert read_events(paths[0]) == events
        assert len(parsed) == len(events)  # one call per non-blank line


def read_events_line_by_line(path):
    """Reference reader: parse and validate one line at a time."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"invalid JSON ({exc.msg})", i) from exc
            if not isinstance(event, dict):
                raise SchemaError("event is not an object", i)
            events.append(validate_event(event, i))
    return events


# Plain strings, and strings of JSON punctuation, escapes and U+2028.
_PLAIN = st.text(alphabet="ab :\u00e9", max_size=4)
_JSONISH = st.text(alphabet='ab{}[],:" \\\u00e9\u2028', max_size=6)


def _event_lists(text):
    value = st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False) | text

    def event(kind):
        fields = {"kind": st.just(kind), **{f: value for f in KINDS[kind]}}
        if kind == "header":  # a header of any other schema fails to read
            fields["schema"] = st.just(2)
        return st.fixed_dictionaries(fields, optional={"extra": st.lists(value, max_size=2)})

    return st.lists(st.sampled_from(sorted(KINDS)).flatmap(event), max_size=8)


def _corrupt(kind, event, line):
    if kind == "two_objects_comma":
        return line + "," + line
    if kind == "two_objects_space":
        return line + " " + line
    if kind == "array":
        return "[" + line + "]"
    if kind == "invalid_json":
        return line[:-1]
    if kind == "unknown_kind":
        return json.dumps({**event, "kind": "bogus"})
    if kind == "unhashable_kind":
        return json.dumps({**event, "kind": [event["kind"]]})
    if kind == "missing_field":
        return json.dumps({k: v for k, v in event.items() if k != KINDS[event["kind"]][-1]})
    raise AssertionError(kind)


@settings(max_examples=200, deadline=None)
@given(
    events=st.sampled_from([_PLAIN, _JSONISH]).flatmap(_event_lists),
    blanks=st.lists(st.sampled_from(["", "  ", "\t"]), max_size=8),
    blank_at=st.lists(st.integers(0, 8), max_size=8),
    corruption=st.none() | st.sampled_from([
        "two_objects_comma", "two_objects_space", "array", "invalid_json",
        "unknown_kind", "unhashable_kind", "missing_field",
    ]),
    corrupt_at=st.sampled_from([0, -1]) | st.integers(0, 7),  # the ends most often
    newline=st.sampled_from(["\n", "\r\n"]),
    pad=st.sampled_from(["", " ", "\t "]),
)
def test_read_events_matches_line_by_line_reference(
    tmp_path_factory, events, blanks, blank_at, corruption, corrupt_at, newline, pad
):
    lines = [
        pad + json.dumps(e, sort_keys=bool(i % 2), ensure_ascii=bool(i % 3)) + pad
        for i, e in enumerate(events)
    ]
    if corruption is not None and events:
        at = corrupt_at % len(events)
        lines[at] = _corrupt(corruption, events[at], lines[at].strip())
    for blank, at in zip(blanks, blank_at):
        lines.insert(min(at, len(lines)), blank)
    path = tmp_path_factory.getbasetemp() / "property.jsonl"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    try:
        expected = read_events_line_by_line(path)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            read_events(path)
        assert got.value.line_number == exc.line_number
        assert str(got.value) == str(exc)
    else:
        assert corruption is None or not events
        assert read_events(path) == expected == events


_SCORE = '{"kind": "score", "agg_score": 1, "first_score": 2}'


@pytest.mark.parametrize("text, message", [
    # three objects when joined, but line 1 holds two and lines 2-3 share one
    (f'{_SCORE},{_SCORE}\n{_SCORE[:-1]}, "extra": [1\n2]}}\n', "Extra data"),
    (f"[{_SCORE}]\n", "event is not an object"),
    (f"1, {_SCORE}\n{_SCORE}\n", "Extra data"),
])
def test_read_events_names_first_bad_line_of_files_that_parse_joined(tmp_path, text, message):
    json.loads("[" + ",".join(text.splitlines()) + "]")  # the joined lines are valid JSON
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        read_events(path)
    assert exc.value.line_number == 1
    assert message in str(exc.value)


def _stated_line(event) -> bytes:
    """The writer's line for ``event``: orjson's, or the JSON encoder's when
    orjson refuses the event or writes ``null`` in its line."""
    try:
        line = orjson.dumps(event, option=orjson.OPT_SORT_KEYS) + b"\n"
        if b"null" not in line:
            return line
    except TypeError:
        pass
    return (tracefile._ENCODER.encode(event) + "\n").encode("utf-8")


def _assert_written_as_stated(path, events):
    write_events(path, events)
    assert path.read_bytes() == b"".join(_stated_line(e) for e in events)
    assert _typed(read_events(path)) == _typed(events)


_SEPARATOR_EVENTS = [
    {"kind": "team_end", "team": 1, "step": 2, "status": "final", "vt": 0.1,
     "answer": 'a}, {"kind": "score"}'},
    {"kind": "score", "agg_score": 1.0, "first_score": 0.0, "extra": [{}, {"b": 1}]},
    {"kind": "score", "agg_score": 0.5, "first_score": 0.5},
]
# A step, decision and admit as the runtime and the bank emit them.
_STEP = {"kind": "step", "team": 1, "step": 2, "label": "solve:n1", "vt_start": 0.5,
         "vt_end": 3.25, "agent_input": "in", "step_summary": "sum", "agent_output": "out"}
_DECISION = {"kind": "decision", "team": 1, "step": 2, "action": "YES", "prob_yes": 0.75,
             "log_prob": -0.2876820724517809, "fail_closed": False, "mem_size": 3}
_ADMIT = {"kind": "admit", "seq": 4, "entry_id": 2, "team": 1, "step": 2, "t_ns": 3250000}


_TEAM_END = {"kind": "team_end", "team": 1, "step": 2, "status": "final", "answer": "a",
             "vt": 0.5}


# Each case with the events the JSON encoder writes: those orjson refuses
# or writes null in, and no other.
@pytest.mark.parametrize("events, fallback", [
    ([], ()),
    ([{"kind": "score", "agg_score": 1.0, "first_score": 0.5}], ()),
    (_SEPARATOR_EVENTS, ()),  # "}, {" inside events
    (_SEPARATOR_EVENTS[:1], ()),
    ([{**_STEP, "vt_start": 0}], ()),
    ([{**_DECISION, "team": True}], ()),
    ([{**_DECISION, "prob_yes": p} for p in (float("inf"), float("-inf"), -0.0)], (0, 1)),
    ([{**_DECISION, "log_prob": float("nan")}], (0,)),
    ([{**_ADMIT, "extra": 1}, {**_ADMIT, "kind": "retrieve", "extra": 1}], ()),
    ([{**_STEP, "label": 'x}, {"kind": "step"', "agent_input": "na\u00efve \u2713",
       "step_summary": 'say "hi"', "agent_output": "a\\b\u2028c"},
      {**_DECISION, "action": "\u00e9}, {"}], ()),
    ([dict(sorted(e.items())) for e in (_STEP, _DECISION, _ADMIT, {**_ADMIT, "kind": "retrieve"})],
     ()),
    ([{**_TEAM_END, "answer": None}, {**_DECISION, "prob_yes": float("nan")}, _ADMIT], (0, 1)),
    ([{**_ADMIT, "t_ns": t} for t in (2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1)], (2, 4)),
    ([{**_TEAM_END, "answer": "\ud800"}, _ADMIT], (0,)),
    ([{**_STEP, "agent_output": "null"}, _STEP], (0,)),
], ids=["empty", "single", "separator_inside", "separator_inside_single", "step_int_vt_start",
        "decision_bool_team", "decision_nonfinite_and_negative_zero", "decision_nan_log_prob",
        "bank_extra_key", "strings_to_escape", "sorted_key_order",
        "none_and_nan_in_one_file", "ints_at_64_bit_edges", "lone_surrogate",
        "null_agent_output"])
def test_writer_edge_cases_match_per_event_dumps(tmp_path, events, fallback):
    path = tmp_path / "edge.jsonl"
    write_events(path, events)
    assert path.read_bytes() == b"".join(
        (tracefile._ENCODER.encode(e) + "\n").encode("utf-8") if i in fallback
        else orjson.dumps(e, option=orjson.OPT_SORT_KEYS) + b"\n"
        for i, e in enumerate(events))
    # -0.0 keeps its sign, and NaN and ±Infinity stay what they were
    assert _typed(read_events(path)) == _typed(events)


def test_writer_raises_on_a_non_str_key_as_the_json_encoder_does(tmp_path):
    path = tmp_path / "written.jsonl"
    path.write_bytes(b"old")
    event = {**_ADMIT, 1: 2}
    with pytest.raises(TypeError) as expected:
        tracefile._ENCODER.encode(event)
    with pytest.raises(TypeError) as got:
        write_events(path, [_ADMIT, event])
    assert str(got.value) == str(expected.value)
    assert path.read_bytes() == b"old"  # raised before the file was opened


def _written_episode(tmp_path, provider):
    from hivemem.runtime import MajorityAggregator, run_episode
    from hivemem.sim import ScriptedBackend, generate_task, variant_policy

    task = generate_task(seed=90, depth=2, width=1, overlap_count=4, distractor_count=1)
    trace = run_episode(task, 3, ScriptedBackend(task, 3), variant_policy("add-all"),
                        provider, MajorityAggregator(), seed=0)
    path = tmp_path / "episode.jsonl"
    write_events(path, trace.events)
    return path, path.read_text(encoding="utf-8").splitlines()


def test_unknown_kind_in_a_written_file_names_its_line(tmp_path, provider):
    path, lines = _written_episode(tmp_path, provider)
    lines[2] = json.dumps({**json.loads(lines[2]), "kind": "bogus"}, sort_keys=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        read_events(path)
    assert exc.value.line_number == 3
    assert "unknown event kind 'bogus'" in str(exc.value)


def test_an_episode_with_a_second_score_fails_to_compute(tmp_path, provider):
    # as a doubled append leaves it, or an in-place overwrite cut short
    # before its truncate when the old tail is the old score line
    path, lines = _written_episode(tmp_path, provider)
    score = json.dumps({"kind": "score", "agg_score": 1.0, "first_score": 0.5}, sort_keys=True)
    path.write_text("".join(line + "\n" for line in [*lines, score]), encoding="utf-8")
    assert compute_metrics([path]).score_samples == [1.0]
    path.write_text("".join(line + "\n" for line in [*lines, score, score]), encoding="utf-8")
    with pytest.raises(SchemaError) as exc:
        compute_metrics([path])
    assert str(exc.value) == f"{path}: episode 1 has 2 score events, not at most one"


@pytest.mark.parametrize("variant", ["crlf", "padded_line", "blank_line"])
def test_written_file_reads_back_the_same_when_reformatted(tmp_path, provider, variant):
    path, lines = _written_episode(tmp_path, provider)
    written = read_events(path)
    if variant == "crlf":
        data = "".join(line + "\r\n" for line in lines)
    else:
        if variant == "padded_line":
            lines[1] = " \t" + lines[1] + "  "
        else:
            lines.insert(1, "")
        data = "".join(line + "\n" for line in lines)
    other = tmp_path / f"{variant}.jsonl"
    other.write_bytes(data.encode("utf-8"))
    assert read_events(other) == written


def _typed(value):
    """``value`` with each scalar's type beside it, and floats by repr (NaN
    equals itself, -0.0 differs from 0.0)."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), repr(value) if isinstance(value, float) else value


# Integers at orjson's 64-bit edges, floats with NaN and infinities, and
# strings with lone surrogates, beside values the runtime writes.
_EDGE_INTS = st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**18])
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=4)


def _events_of_any_value():
    scalar = (st.none() | st.booleans() | st.integers() | _EDGE_INTS | st.floats()
              | _PLAIN | _ANY_TEXT)
    value = scalar | st.lists(scalar, max_size=2)

    def event(kind):
        fields = {"kind": st.just(kind), **{f: value for f in KINDS[kind]}}
        if kind == "header":
            fields["schema"] = st.just(2)
        return st.fixed_dictionaries(fields, optional={"extra": value})

    return st.lists(st.sampled_from(sorted(KINDS)).flatmap(event), max_size=6)


@settings(max_examples=300, deadline=None)
@given(events=_events_of_any_value() | _event_lists(_PLAIN))
def test_read_events_parses_written_files_as_json_loads_does(tmp_path_factory, events):
    path = tmp_path_factory.getbasetemp() / "written.jsonl"
    write_events(path, events)
    got = _typed(read_events(path))
    assert got == _typed(read_events_line_by_line(path)) == _typed(events)


@pytest.mark.parametrize("seed", [2**70, -2**63 - 1])
def test_header_seed_outside_64_bits_reads_back_as_an_int(tmp_path, provider, seed):
    from hivemem.runtime import EpisodeTrace

    path, _ = _written_episode(tmp_path, provider)
    events = read_events(path)
    write_events(path, [{**events[0], "seed": seed}, *events[1:]])
    events = read_events(path)
    assert type(events[0]["seed"]) is int and events[0]["seed"] == seed
    assert _typed(events) == _typed(read_events_line_by_line(path))
    assert EpisodeTrace.from_events(events).events[0]["seed"] == seed


@pytest.mark.parametrize("event", [
    {"kind": "score", "agg_score": float("nan"), "first_score": 1.0},
    {"kind": "team_end", "team": 1, "step": 2, "status": "final", "answer": "\ud800", "vt": 0.5},
], ids=["nan_score", "lone_surrogate"])
def test_values_orjson_rejects_read_back_as_json_loads_gives_them(tmp_path, event):
    path = tmp_path / "edge.jsonl"
    write_events(path, [event, _ADMIT])
    got = _typed(read_events(path))
    assert got == _typed(read_events_line_by_line(path)) == _typed([event, _ADMIT])


def test_lone_carriage_return_ends_a_line(tmp_path):
    path = tmp_path / "cr.jsonl"
    path.write_bytes(b'{"agg_score": 1,\r"first_score": 2, "kind": "score"}\n')
    with pytest.raises(SchemaError) as exc:
        read_events(path)
    assert exc.value.line_number == 1
    assert "invalid JSON" in str(exc.value)


def test_arrays_nested_too_deep_for_json_loads_name_their_line(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text(_SCORE + '\n{"agg_score": 1, "first_score": ' + "[" * 5000 + "]" * 5000
                    + ', "kind": "score"}\n')
    with pytest.raises(RecursionError):
        json.loads(path.read_text().splitlines()[1])
    with pytest.raises(SchemaError) as exc:
        read_events(path)
    assert exc.value.line_number == 2
    assert "invalid JSON (nested too deep)" in str(exc.value)


def test_objects_nested_too_deep_for_json_loads_name_their_line(tmp_path):
    # orjson reads objects nested this deep; the "{" guard keeps them from it
    path = tmp_path / "deep.jsonl"
    path.write_text(_SCORE + '\n{"agg_score": 1, "first_score": ' + '{"a": ' * 1200 + "1"
                    + "}" * 1200 + ', "kind": "score"}\n')
    line = path.read_bytes().splitlines()[1]
    assert isinstance(orjson.loads(line), dict)
    with pytest.raises(RecursionError):
        json.loads(line)
    with pytest.raises(SchemaError) as exc:
        read_events(path)
    assert exc.value.line_number == 2
    assert "invalid JSON (nested too deep)" in str(exc.value)


def test_invalid_utf8_names_its_line(tmp_path):
    latin1 = b'{"agg_score": 1.0, "first_score": "caf\xe9", "kind": "score"}'
    path = tmp_path / "latin1.jsonl"
    # \r\n ends line 1 and \r the blank line 2
    path.write_bytes(_SCORE.encode() + b"\r\n\r" + latin1 + b"\n" + _SCORE.encode() + b"\n")
    with pytest.raises(SchemaError) as exc:
        read_events(path)
    assert exc.value.line_number == 3
    assert "invalid UTF-8 (invalid continuation byte)" in str(exc.value)
    # a bad line before it is named first, as the line-by-line read names it
    path.write_bytes(_SCORE[:-1].encode() + b"\n" + latin1 + b"\n")
    with pytest.raises(SchemaError) as exc:
        read_events(path)
    assert exc.value.line_number == 1
    assert "invalid JSON" in str(exc.value)


# Pieces of the encoded separator, so strings often hold "}, {" itself.
_BRACES = st.lists(st.sampled_from(["{", "}", ",", " ", "}, {", '"', "\\", "\n"]), max_size=6)


@settings(max_examples=200, deadline=None)
@given(events=_event_lists(_BRACES.map("".join)), junk=st.binary(max_size=600))
def test_writer_matches_per_event_dumps_on_brace_heavy_strings(tmp_path_factory, events, junk):
    path = tmp_path_factory.getbasetemp() / "braces.jsonl"
    path.write_bytes(junk)  # written over, longer or shorter than the events
    _assert_written_as_stated(path, events)


def test_writer_overwrites_in_place_and_leaves_no_stale_tail(tmp_path, provider):
    path, _ = _written_episode(tmp_path, provider)
    long = read_events(path)
    short = [long[0], {"kind": "score", "agg_score": 1.0, "first_score": 0.5}]
    path.chmod(0o640)
    inode = path.stat().st_ino
    for events in (short, long, [], short):
        _assert_written_as_stated(path, events)
        assert (path.stat().st_ino, stat.S_IMODE(path.stat().st_mode)) == (inode, 0o640)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_writer_creates_a_file_with_the_mode_open_gives_it(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_events(tmp_path / "written.jsonl", [_ADMIT])
        with open(tmp_path / "opened.jsonl", "w"):
            pass
    finally:
        os.umask(old)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
             for name in ("written.jsonl", "opened.jsonl")]
    assert modes[0] == modes[1] == 0o666 & ~umask


def test_writer_writes_to_a_device_it_cannot_truncate():
    write_events(os.devnull, [_STEP, _DECISION, _ADMIT])


def test_validate_event_accepts_known_kinds():
    validate_event({"kind": "score", "agg_score": 1.0, "first_score": 0.5})


def test_bank_events_from_many_threads_arrive_in_seq_order():
    import sys
    import threading

    events = []
    bank = MemoryBank(2, event_sink=events.append)
    bank.admit("a", "x", np.ones(2), 1, 1)
    events.clear()

    def retrieve_many(team):
        for step in range(1, 101):
            bank.retrieve(1, team, step)

    threads = [threading.Thread(target=retrieve_many, args=(team,)) for team in range(1, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(events) == 400
    assert [e["seq"] for e in events] == list(range(2, 402))  # in linearization order


def test_fd_bin_count_matches_manual():
    rng = np.random.default_rng(1)
    samples = rng.normal(50, 10, size=500).tolist()
    x = np.sort(samples)
    iqr = np.percentile(x, 75) - np.percentile(x, 25)
    width = 2 * iqr * len(x) ** (-1 / 3)
    manual = int(np.ceil((x[-1] - x[0]) / width))
    assert fd_bin_count(samples) == max(1, manual)


def test_fd_bin_count_gives_at_most_a_bin_per_sample():
    # one outlier far from a tight IQR asked for 13,646,272 bins
    samples = [30.0 + 0.001 * i / 98 for i in range(99)] + [3000.0]
    assert fd_bin_count(samples) == 100


def test_fd_bin_count_degenerate():
    assert fd_bin_count([5.0]) == 1
    assert fd_bin_count([5.0, 5.0, 5.0]) == 1


def test_cdf_monotone_terminal_one():
    samples = [3.0, 1.0, 2.0, 2.0]
    pts = cdf_points(samples)
    values = [v for v, _ in pts]
    probs = [p for _, p in pts]
    assert values == sorted(values)
    assert probs == sorted(probs)
    assert probs[-1] == 1.0


def test_histogram_counts_sum_to_n():
    rng = np.random.default_rng(2)
    samples = rng.normal(0, 1, 200).tolist()
    rows = histogram_points(samples)
    assert sum(c for _, _, c in rows) == 200


def test_render_table_single_row():
    m = RunMetrics(episodes=1, mean_runtime=5.0, mean_steps=3.0)
    text = render_table({"only": m.summary_row()})
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("only")


def test_report_files(tmp_path):
    fast = RunMetrics(episodes=3, runtime_samples=[1.0, 2.0, 3.0], mean_runtime=2.0)
    slow = RunMetrics(episodes=3, runtime_samples=[4.0, 5.0, 6.0], mean_runtime=5.0)
    written = report({"fast": fast, "slow": slow}, tmp_path)
    assert (tmp_path / "summary.txt").exists()
    cdf_fast = (tmp_path / "runtime_cdf_fast.txt").read_text().strip().splitlines()[1:]
    probs = [float(line.split()[1]) for line in cdf_fast]
    assert probs == sorted(probs) and probs[-1] == 1.0
    assert set(written) == {"summary", "cdf_fast", "hist_fast", "cdf_slow", "hist_slow"}


def test_report_requires_rows(tmp_path):
    with pytest.raises(ValidationError):
        report({}, tmp_path)


def test_pairwise_cdf_dominance(tmp_path):
    # per-seed paired: one variant strictly faster => its CDF dominates pointwise
    rng = np.random.default_rng(3)
    base = rng.uniform(50, 100, size=40)
    fast = RunMetrics(episodes=40, runtime_samples=(base * 0.7).tolist())
    slow = RunMetrics(episodes=40, runtime_samples=base.tolist())
    report({"fast": fast, "slow": slow}, tmp_path)
    for q in np.linspace(0.1, 0.9, 9):
        assert np.quantile(fast.runtime_samples, q) < np.quantile(slow.runtime_samples, q)
