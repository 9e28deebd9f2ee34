import json
import re
from pathlib import Path

import numpy as np
import pytest

from hivemem.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "hivebench" / "pinned"


def _tasks_file(directory, seed0=0, count=1, **family) -> str:
    """A ``--tasks`` file in ``directory``: ``count`` tasks from ``seed0``
    of a family of depth 2, width 1 and 6 shared subtasks, or as ``family``
    overrides it."""
    path = directory / f"tasks_{seed0}_{count}.json"
    family = {"depth": 2, "width": 1, "overlap_count": 6, **family}
    path.write_text(json.dumps({"seed0": seed0, "count": count, "family": family}))
    return str(path)


def test_run_no_memory(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "run", "--tasks", _tasks_file(tmp_path, 5, overlap_count=4), "--episodes", "2",
        "--policy", "no-memory", "--out", str(out),
    ])
    assert code == 0
    traces = sorted(out.glob("episode_*.jsonl"))
    assert len(traces) == 2
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["episodes"] == 2
    assert "no-memory" in capsys.readouterr().out


def test_run_defaults_documented():
    from hivemem.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["run", "--out", "x"])
    assert (args.k, args.seed, args.episodes, args.policy, args.backend) == (
        3, 0, 1, "no-memory", "sim")
    assert (args.tasks, args.cap, args.query, args.checkpoint) == (None,) * 4
    args = parser.parse_args(["eval", "--out", "x"])
    assert (args.k, args.seed, args.episodes, args.policy) == (3, 0, 1, "learned")
    assert (args.tasks, args.checkpoint) == (None, None)
    # each command's options, --help aside
    options = {name: sorted(a.dest for a in sub._actions if a.dest != "help")
               for name, sub in parser._subparsers._group_actions[0].choices.items()}
    assert options == {
        "run": ["backend", "cap", "checkpoint", "episodes", "k", "out", "policy", "query",
                "seed", "tasks"],
        "eval": ["checkpoint", "episodes", "k", "out", "policy", "seed", "tasks"],
        "train": ["config", "out"],
        "report": ["inputs", "out"],
    }
    with pytest.raises(SystemExit):  # train writes only where --out says
        parser.parse_args(["train", "--config", "c.json"])


def test_train_then_eval_learned(tmp_path):
    config = {
        "tasks": {"seed0": 500, "count": 2,
                  "family": {"depth": 1, "width": 1, "overlap_count": 2,
                             "distractor_count": 1, "step_cap": 10, "p_fail": 0.05}},
        "policy": {"embed_dim": 32, "controller_dim": 8},
        "train": {"group_size": 2, "epochs": 1, "replay_factor": 1,
                  "lr": 0.001, "seed": 1, "k": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "train"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "policy.npz").exists()
    assert (out / "report.jsonl").exists()
    assert (out / "checkpoints" / "epoch_000.npz").exists()

    eval_out = tmp_path / "eval"
    held_out = {**config["tasks"], "seed0": 600}
    (tmp_path / "held_out.json").write_text(json.dumps(held_out))
    code = main([  # the checkpoint fixes the embedding size: 32
        "eval", "--checkpoint", str(out / "policy.npz"), "--policy", "learned",
        "--tasks", str(tmp_path / "held_out.json"), "--out", str(eval_out),
    ])
    assert code == 0
    assert len(list(eval_out.glob("episode_*.jsonl"))) == 2  # one episode per task

    # report reads the trace files and gives the row metrics.json holds
    from hivemem.metrics import RunMetrics, render_table

    summary = json.loads((eval_out / "metrics.json").read_text())
    rep = tmp_path / "rep"
    assert main(["report", f"learned={eval_out}", "--out", str(rep)]) == 0
    expected = render_table({"learned": RunMetrics(**summary).summary_row()})
    assert (rep / "summary.txt").read_text() == expected


def test_train_regenerates_the_pinned_checkpoint(tmp_path):
    # the benchmark's pinned config trains through the CLI to the pinned policy
    out = tmp_path / "train"
    assert main(["train", "--config", str(PINNED / "train_config.json"),
                 "--out", str(out)]) == 0
    with np.load(out / "policy.npz") as got, np.load(PINNED / "policy.npz") as pinned:
        keys = [key for key in pinned.files if key != "__meta__"]
        assert len(keys) == 10
        for key in keys:
            assert np.array_equal(got[key], pinned[key]), key


def test_readme_training_config_builds(tmp_path):
    from hivemem.cli import training_setup
    from hivemem.sim import generate_task

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Example training config:\s*```json\n(.*?)```", readme, re.S)
    cfg = json.loads(block.group(1))
    tasks, policy, provider, config = training_setup(cfg, tmp_path)
    # the README trains on the benchmark's HEAVY family
    family = json.loads((PINNED / "train_config.json").read_text())["tasks"]["family"]
    seed0 = cfg["tasks"]["seed0"]
    assert tasks == [generate_task(seed=seed0 + i, **family) for i in range(len(tasks))]
    assert len(tasks) == cfg["tasks"]["count"]
    assert (policy.embed_dim, provider.dimension) == (cfg["policy"]["embed_dim"],) * 2
    assert policy.controller_dim == cfg["policy"]["controller_dim"]
    for key, value in cfg["train"].items():
        assert getattr(config, key) == value, key
    assert config.checkpoint_dir == str(tmp_path / "checkpoints")


def test_train_rejects_a_config_in_another_schema(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"embed_dim": 32, "tasks": {"count": 2, "overlap": 2}}))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"


@pytest.mark.parametrize("body", ["{", "[1]", pytest.param(None, id="missing-file")])
def test_train_rejects_a_config_that_is_no_json_object(tmp_path, capsys, body):
    cfg_path = tmp_path / "config.json"
    if body is not None:
        cfg_path.write_text(body)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert str(cfg_path) in record["message"]


@pytest.mark.parametrize("override", [
    {"lr": -0.001}, {"lr": 0.0}, {"weight_decay": -0.01}, {"beta": float("nan")},
    {"lambda_sparse": float("inf")}, {"epochs": 1.5}, {"replay_factor": True},
    {"seed": -1}, {"k": 0}, {"momentum": 0.9},
], ids=lambda o: "-".join(f"{key}={value}" for key, value in o.items()))
def test_train_rejects_a_bad_train_value_before_any_rollout(tmp_path, capsys, override):
    config = {
        "tasks": {"seed0": 500, "count": 1,
                  "family": {"depth": 1, "width": 1, "overlap_count": 2,
                             "distractor_count": 1, "step_cap": 10, "p_fail": 0.05}},
        "policy": {"embed_dim": 32, "controller_dim": 8},
        "train": {"group_size": 2, "epochs": 1, "replay_factor": 1,
                  "lr": 0.001, "seed": 1, "k": 2, **override},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))  # NaN and Infinity as Python's json reads them
    out = tmp_path / "train"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert next(iter(override)) in record["message"]
    # train() makes the checkpoint directory first; it never started
    assert not (out / "checkpoints").exists() and not (out / "policy.npz").exists()


def test_eval_add_all(tmp_path):
    out = tmp_path / "eval"
    code = main([
        "eval", "--policy", "add-all", "--tasks", _tasks_file(tmp_path, count=2, overlap_count=4),
        "--out", str(out),
    ])
    assert code == 0
    assert len(list(out.glob("episode_*.jsonl"))) == 2
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["memories_saved_pct"] == 100.0


def test_report_combines_dirs(tmp_path, capsys):
    for name, policy in (("a", "no-memory"), ("b", "add-all")):
        main(["run", "--tasks", _tasks_file(tmp_path, 7, overlap_count=4), "--episodes", "2",
              "--policy", policy, "--out", str(tmp_path / name)])
    out = tmp_path / "report"
    code = main([
        "report", f"none={tmp_path / 'a'}", f"all={tmp_path / 'b'}", "--out", str(out),
    ])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "none" in summary and "all" in summary
    assert (out / "runtime_cdf_none.txt").exists()


def test_report_from_trace_files(tmp_path):
    main(["run", "--tasks", _tasks_file(tmp_path, 9, overlap_count=4), "--episodes", "1",
          "--policy", "add-all", "--out", str(tmp_path / "r")])
    out = tmp_path / "rep"
    assert main(["report", str(tmp_path / "r"), "--out", str(out)]) == 0


def test_report_rejects_two_inputs_of_one_name(tmp_path, capsys):
    for parent in ("b", "x"):
        main(["run", "--tasks", _tasks_file(tmp_path, 7, overlap_count=4), "--policy", "add-all",
              "--out", str(tmp_path / parent / "a")])
    capsys.readouterr()
    out = tmp_path / "rep"
    inputs = [str(tmp_path / "b" / "a"), str(tmp_path / "x" / "a")]
    assert main(["report", *inputs, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert "'a'" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("content", ["empty", "header-only", "invalid-utf8"])
def test_report_rejects_an_incomplete_trace_file(tmp_path, capsys, content):
    run = tmp_path / "r"
    main(["run", "--tasks", _tasks_file(tmp_path, 9, overlap_count=4), "--episodes", "2",
          "--policy", "add-all", "--out", str(run)])
    header = (run / "episode_00000.jsonl").read_bytes().splitlines(keepends=True)[0]
    bad = run / "episode_00002.jsonl"
    contents = {"empty": b"", "header-only": header, "invalid-utf8": header + b"\xe9\n"}
    bad.write_bytes(contents[content])
    capsys.readouterr()
    assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SchemaError"
    assert str(bad) in record["message"]
    if content == "invalid-utf8":
        assert record["message"].endswith("line 2: invalid UTF-8 (invalid continuation byte)")


def test_a_rerun_into_one_directory_reports_only_its_own_episodes(tmp_path):
    from hivemem.metrics import RunMetrics, render_table

    out = tmp_path / "run"
    tasks = _tasks_file(tmp_path)
    for policy, episodes in (("add-all", "4"), ("no-memory", "2")):
        assert main(["run", "--tasks", tasks, "--policy", policy, "--episodes", episodes,
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "episode_00000.jsonl", "episode_00001.jsonl", "metrics.json"]
    rep = tmp_path / "rep"
    assert main(["report", f"r={out}", "--out", str(rep)]) == 0
    metrics = RunMetrics(**json.loads((out / "metrics.json").read_text()))
    assert metrics.episodes == 2
    assert (rep / "summary.txt").read_text() == render_table({"r": metrics.summary_row()})


def test_report_rejects_a_metrics_only_directory(tmp_path, capsys):
    # metrics.json is a summary for reading; report needs the trace files
    run = tmp_path / "r"
    run.mkdir()
    (run / "metrics.json").write_text(json.dumps({"episodes": 1}))
    assert main(["report", str(run), "--out", str(tmp_path / "rep")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert str(run) in record["message"]
    assert not (tmp_path / "rep").exists()


def _write_checkpoint(path, meta=None):
    from hivemem.controller import AdmissionPolicy

    AdmissionPolicy(64, 4).save(str(path))
    if meta is not None:  # swap in another meta blob
        with np.load(path) as data:
            params = {key: data[key] for key in data.files if key != "__meta__"}
        np.savez(path, __meta__=np.bytes_(meta), **params)


def _bad_checkpoint(path, kind):
    """Write the bad checkpoint ``kind`` names; "missing" writes nothing."""
    meta = {"format_version": 1, "embed_dim": 64, "controller_dim": 4}
    if kind == "text":
        path.write_text("not a checkpoint\n")
    elif kind == "truncated":
        _write_checkpoint(path)
        path.write_bytes(path.read_bytes()[:200])
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "meta-not-json":
        _write_checkpoint(path, b"{")
    elif kind == "meta-without-embed_dim":
        del meta["embed_dim"]
        _write_checkpoint(path, json.dumps(meta))
    elif kind == "embed_dim-a-string":
        _write_checkpoint(path, json.dumps({**meta, "embed_dim": "64"}))


@pytest.mark.parametrize("kind", [
    "missing", "text", "truncated", "empty", "meta-not-json", "meta-without-embed_dim",
    "embed_dim-a-string",
])
def test_eval_rejects_a_bad_checkpoint(tmp_path, capsys, kind):
    checkpoint = tmp_path / "policy.npz"
    _bad_checkpoint(checkpoint, kind)
    assert main(["eval", "--checkpoint", str(checkpoint), "--tasks", _tasks_file(tmp_path),
                 "--out", str(tmp_path / "eval")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigurationError"
    assert str(checkpoint) in record["message"]


def test_run_llm_backend_against_mock(tmp_path, monkeypatch):
    import threading
    from http.server import ThreadingHTTPServer

    import tests.test_endpoint as te

    class StepOnce(te._MockHandler):
        """The first action request gets a STEP; every later one a FINAL."""

        def reply_for(self, body):
            if len(body["messages"]) == 3:  # the step's summary request
                return 200, "looked at the sky"
            with self.server.lock:
                stepped, self.server.stepped = self.server.stepped, True
            return 200, "FINAL:blue" if stepped else "STEP:look at the sky"

    server = ThreadingHTTPServer(("127.0.0.1", 0), StepOnce)
    server.lock, server.stepped = threading.Lock(), False
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("HIVEMEM_ENDPOINT_URL", f"http://127.0.0.1:{server.server_address[1]}/v1")
        monkeypatch.setenv("HIVEMEM_MODEL", "mock")
        monkeypatch.setenv("HIVEMEM_API_KEY", "sk-cli-test")
        out = tmp_path / "llm"
        code = main([
            "run", "--backend", "llm", "--query", "what color is the sky",
            "--k", "2", "--episodes", "1", "--out", str(out),
        ])
        assert code == 0
        assert (out / "metrics.json").exists()
        episode = (out / "episode_00000.jsonl").read_bytes()
        assert b"sk-cli-test" not in episode
        events = [json.loads(line) for line in episode.splitlines()]
        assert events[0]["query"] == "what color is the sky"
        (step,) = [e for e in events if e["kind"] == "step"]
        assert (step["agent_input"], step["step_summary"], step["agent_output"]) == (
            "look at the sky", "looked at the sky", "STEP:look at the sky"
        )
        calls = (out / "calls.jsonl").read_bytes()
        assert b"sk-cli-test" not in calls
        rows = [json.loads(line) for line in calls.splitlines()]
        # a step and its summary, two finals, then the aggregator
        assert len(rows) == len(server.requests) == 5
        assert all(row["status"] == 200 for row in rows)
    finally:
        server.shutdown()
        thread.join()


def test_run_llm_keeps_episode_when_aggregation_fails(tmp_path, monkeypatch, capsys):
    import threading
    from http.server import ThreadingHTTPServer

    import tests.test_endpoint as te

    server = ThreadingHTTPServer(("127.0.0.1", 0), te._MockHandler)
    server.script = [(200, "FINAL:blue")] * 2 + [(401, "")]  # two teams, then the aggregator
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("HIVEMEM_ENDPOINT_URL", f"http://127.0.0.1:{server.server_address[1]}/v1")
        monkeypatch.setenv("HIVEMEM_MODEL", "mock")
        monkeypatch.setenv("HIVEMEM_API_KEY", "sk-cli-test")
        out = tmp_path / "llm"
        out.mkdir()
        for stale in ("episode_00000.jsonl", "episode_00001.jsonl", "metrics.json"):
            (out / stale).write_text("from an earlier run\n")
        code = main([
            "run", "--backend", "llm", "--query", "what color is the sky",
            "--k", "2", "--episodes", "1", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "AggregationError"
        episode = (out / "episode_00000.jsonl").read_bytes()
        events = [json.loads(line) for line in episode.splitlines()]
        assert any(e["kind"] == "aggregate" for e in events)
        calls = (out / "calls.jsonl").read_bytes()
        assert len(calls.splitlines()) == len(server.requests) == 3
        assert [json.loads(line)["status"] for line in calls.splitlines()] == [200, 200, 401]
        for text in (episode, calls, err.encode()):
            assert b"sk-cli-test" not in text
        # the failed run's directory reports its episode alone; calls.jsonl is
        # not one, and the earlier run's files are gone
        assert sorted(p.name for p in out.iterdir()) == ["calls.jsonl", "episode_00000.jsonl"]
        rep = tmp_path / "rep"
        assert main(["report", f"llm={out}", "--out", str(rep)]) == 0
        header, row = (rep / "summary.txt").read_text().splitlines()
        assert header.split()[:2] == ["variant", "episodes"]
        assert row.split()[:2] == ["llm", "1"]
    finally:
        server.shutdown()
        thread.join()


def test_run_llm_requires_query(tmp_path, capsys):
    code = main(["run", "--backend", "llm", "--out", str(tmp_path / "x")])
    assert code != 0
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"


def test_run_llm_without_a_credential_fails_before_out_is_touched(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HIVEMEM_API_KEY", raising=False)
    out = tmp_path / "llm"
    assert main(["run", "--backend", "llm", "--query", "q", "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigurationError"
    assert "HIVEMEM_API_KEY" in record["message"]
    assert not out.exists()


def test_error_record_on_failure(tmp_path, capsys):
    code = main(["run", "--policy", "learned", "--out", str(tmp_path / "x")])
    assert code != 0
    err = capsys.readouterr().err.strip()
    record = json.loads(err)
    assert record["error"] == "ValidationError"
    assert "checkpoint" in record["message"]


_FAMILY = {"depth": 1, "width": 1, "overlap_count": 2}


def _tasks_body(family=(), **block) -> str:
    """A tasks block of one task from seed 1, with ``family`` and ``block``
    changing or adding fields."""
    return json.dumps({"seed0": 1, "count": 1, "family": {**_FAMILY, **dict(family)}, **block})


@pytest.mark.parametrize("body", [
    "{",
    _tasks_body({"bogus": 1}),
    _tasks_body({"p_fail": 3.0}),
    _tasks_body({"solve_cost": -5.0}),
    _tasks_body({"width": 0}),
    _tasks_body({"depth": 0}),
    _tasks_body({"pollution_corrupt_rate": 7.0}),
    _tasks_body({"shared_chains": [["s0", "zz"]]}),
    _tasks_body({"values": {"s0": "000000", "s1": "000000"}}),
    None,
    _tasks_body({"seed": 3}),
    _tasks_body(count=0),
    _tasks_body(seed0=True),
    _tasks_body(seed0=-1),
    _tasks_body(count=2.0),
    _tasks_body(sede0=1),
    json.dumps({"seed0": 1, "family": _FAMILY}),
    json.dumps({"seed0": 1, "count": 1, "family": [1]}),
    "[1]",
    _tasks_body({"step_cap": 0}),
    _tasks_body({"step_cap": True}),
    _tasks_body({"step_cap": 2.5}),
    _tasks_body({"width": 2.0}),
    _tasks_body({"overlap_count": True}),
    _tasks_body({"pollution_recovery_steps": 0.5}),
], ids=["malformed-json", "unknown-key", "p_fail-out-of-range", "negative-solve-cost",
        "zero-width", "zero-depth", "corrupt-rate-above-one", "chain-of-an-unknown-node",
        "stale-values", "missing-file", "seed-in-family", "count-zero", "seed0-a-bool",
        "negative-seed0", "count-a-float", "misspelt-block-key", "missing-count",
        "family-not-an-object", "not-an-object", "zero-step-cap", "step-cap-a-bool",
        "step-cap-a-float", "width-a-float", "overlap-count-a-bool",
        "recovery-steps-a-float"])
def test_run_rejects_a_bad_task_file(tmp_path, capsys, body):
    task_file = tmp_path / "tasks.json"
    if body is not None:
        task_file.write_text(body)
    out = tmp_path / "run"
    assert main(["run", "--tasks", str(task_file), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert str(task_file) in record["message"]
    assert not out.exists()


def test_run_reads_a_task_file(tmp_path):
    # run writes the episodes run_variant gives on the tasks the block describes
    from hivemem.embeddings import HashingEmbedder
    from hivemem.sim import generate_task, run_variant, variant_policy
    from hivemem.tracefile import write_events

    family = {"depth": 2, "width": 1, "overlap_count": 4, "distractor_count": 2, "p_fail": 0.1}
    out = tmp_path / "run"
    assert main(["run", "--tasks", _tasks_file(tmp_path, 30, count=2, **family),
                 "--policy", "add-all", "--k", "2", "--seed", "3", "--episodes", "2",
                 "--out", str(out)]) == 0
    tasks = [generate_task(seed=s, **family) for s in (30, 31)]
    _, traces = run_variant(tasks, variant_policy("add-all"), 2, [3, 4], HashingEmbedder(),
                            keep_traces=True)
    files = sorted(out.glob("episode_*.jsonl"))
    assert len(files) == len(traces) == 4
    expected = tmp_path / "expected.jsonl"
    for path, trace in zip(files, traces):
        write_events(expected, trace.events)
        assert path.read_bytes() == expected.read_bytes(), path.name
    assert json.loads((out / "metrics.json").read_text())["episodes"] == 4


_OUT_COMMANDS = {
    "run": ["run", "--tasks", "TASKS", "--episodes", "1"],
    "eval": ["eval", "--policy", "add-all", "--tasks", "TASKS"],
    "report": ["report", "RUN_DIR"],
    "train": ["train", "--config", str(PINNED / "train_config.json")],
    "run-llm": ["run", "--backend", "llm", "--query", "q"],
}


def _argv(command, tmp_path, run_dir) -> list[str]:
    """``command``'s arguments, with a run directory and a tasks file filled in."""
    fill = {"RUN_DIR": str(run_dir), "TASKS": _tasks_file(tmp_path)}
    return [fill.get(a, a) for a in _OUT_COMMANDS[command]]


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_out_that_cannot_be_a_directory_fails_before_any_work(
    tmp_path, monkeypatch, capsys, command, under
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("run_variant", "train", "compute_metrics"):
        monkeypatch.setattr(f"hivemem.cli.{name}", no_work)
    monkeypatch.setattr("hivemem.endpoint.EndpointConfig.from_env", no_work)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    run_dir = tmp_path / "r"
    run_dir.mkdir()
    (run_dir / "episode_00000.jsonl").write_text("")
    assert main([*_argv(command, tmp_path, run_dir), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert str(out) in record["message"]
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["eval", "report", "run", "run-llm"])
def test_a_directory_named_like_an_episode_fails_before_any_work(
    tmp_path, monkeypatch, capsys, command
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the episode files were checked")

    for name in ("run_variant", "compute_metrics"):
        monkeypatch.setattr(f"hivemem.cli.{name}", no_work)
    monkeypatch.setattr("hivemem.endpoint.EndpointConfig.from_env", no_work)
    run_dir = tmp_path / "r"
    run_dir.mkdir()
    (run_dir / "episode_00000.jsonl").write_text("")
    offending = run_dir / "episode_99999.jsonl"
    offending.mkdir()
    out = tmp_path / "rep" if command == "report" else run_dir
    assert main([*_argv(command, tmp_path, run_dir), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert str(offending) in record["message"]
    assert offending.is_dir() and (run_dir / "episode_00000.jsonl").read_text() == ""


@pytest.mark.parametrize("bad", [["--episodes", "0"], ["--episodes", "-2"], ["count", "0"]],
                         ids=["no-episodes", "negative-episodes", "no-tasks"])
def test_a_run_of_no_episodes_fails_before_out_is_touched(tmp_path, monkeypatch, capsys, bad):
    out = tmp_path / "run"
    tasks = _tasks_file(tmp_path)
    assert main(["run", "--tasks", tasks, "--policy", "add-all", "--episodes", "3",
                 "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 4  # three episodes and metrics.json

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a run of no episodes")

    monkeypatch.setattr("hivemem.cli.run_variant", no_work)
    argv = ["--tasks", tasks, *bad] if bad[0] == "--episodes" else [
        "--tasks", _tasks_file(tmp_path, count=0)]
    capsys.readouterr()
    assert main(["run", "--policy", "add-all", *argv, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("argv, flag", [
    (["--backend", "llm", "--query", "q", "--tasks", "TASKS"], "--tasks"),
    (["--tasks", "TASKS", "--query", "q"], "--query"),
    (["--tasks", "TASKS", "--cap", "5"], "--cap"),
    (["--tasks", "TASKS", "--policy", "add-all", "--checkpoint", "/nonexistent.npz"],
     "--checkpoint"),
], ids=["tasks-with-llm", "query-with-sim", "cap-with-sim", "checkpoint-without-learned"])
def test_a_flag_the_backend_does_not_read_fails_before_any_work(
    tmp_path, monkeypatch, capsys, argv, flag
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr("hivemem.cli.run_variant", no_work)
    monkeypatch.setattr("hivemem.endpoint.EndpointConfig.from_env", no_work)
    argv = [_tasks_file(tmp_path) if a == "TASKS" else a for a in argv]
    out = tmp_path / "run"
    assert main(["run", *argv, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert flag in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("family", [{"step_cap": 0}, {"width": 2.0}],
                         ids=["zero-step-cap", "width-a-float"])
def test_train_rejects_a_bad_task_field_before_out_is_touched(tmp_path, capsys, family):
    cfg = json.loads((PINNED / "train_config.json").read_text())
    cfg["tasks"]["family"].update(family)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "train"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert str(cfg_path) in record["message"] and next(iter(family)) in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("where", ["top-level", "tasks"])
def test_train_rejects_an_unknown_config_key(tmp_path, capsys, where):
    cfg = json.loads((PINNED / "train_config.json").read_text())
    cfg["train"]["epochs"] = 1
    if where == "top-level":
        cfg["trian"] = {"epochs": 3}
    else:
        cfg["tasks"]["sede0"] = 7
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "train"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert ("trian" if where == "top-level" else "sede0") in record["message"]
    assert not out.exists()


def _readme_block(readme: str, heading: str, language: str) -> str:
    return re.search(heading + r"\s*```" + language + r"\n(.*?)```", readme, re.S).group(1)


def test_readme_cli_commands_parse_and_its_tasks_file_builds():
    import shlex

    from hivemem.cli import build_parser, task_family

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = _readme_block(readme, "## CLI", "bash").replace("\\\n", " ").splitlines()
    commands = {}
    for line in lines:
        if line.startswith("hivemem "):
            argv = shlex.split(line)[1:]
            build_parser().parse_args(argv)  # an out-of-date flag exits here
            commands[argv[0]] = argv
    assert sorted(commands) == ["eval", "report", "run", "train"]

    name = re.search(r"Example tasks file, `([^`]+)`:", readme).group(1)
    block = json.loads(_readme_block(readme, "Example tasks file, `[^`]+`:", "json"))
    tasks = task_family(block)
    assert len(tasks) == block["count"]
    eval_argv = commands["eval"]
    assert eval_argv[eval_argv.index("--tasks") + 1] == name
    # held out from the example training config's tasks, of the family it trains on
    cfg = json.loads(_readme_block(readme, "Example training config:", "json"))
    train_tasks = task_family(cfg["tasks"])
    assert block["family"] == cfg["tasks"]["family"]
    assert not {t.seed for t in tasks} & {t.seed for t in train_tasks}


_BAD_FLAGS = [
    *((command, flag, value) for flag, value in (("--k", "0"), ("--k", "-1"), ("--seed", "-5"))
      for command in ("run", "eval", "run-llm")),
    ("run-llm", "--cap", "0"),
]


@pytest.mark.parametrize("command, flag, value", _BAD_FLAGS,
                         ids=[f"{flag}-{value}-{command}" for command, flag, value in _BAD_FLAGS])
def test_a_bad_k_or_seed_fails_before_out_is_touched(
    tmp_path, monkeypatch, capsys, command, flag, value
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --k, --seed and --cap were checked")

    monkeypatch.setattr("hivemem.cli.run_variant", no_work)
    monkeypatch.setattr("hivemem.endpoint.EndpointConfig.from_env", no_work)
    out = tmp_path / "run"
    assert main([*_argv(command, tmp_path, None), flag, value, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert flag in record["message"] and value in record["message"]
    assert not out.exists()
