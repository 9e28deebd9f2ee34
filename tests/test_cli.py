import json
import re
from pathlib import Path

import numpy as np
import pytest

from hivemem.cli import main

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "hivebench" / "pinned"


def test_run_no_memory(tmp_path, capsys):
    out = tmp_path / "run"
    code = main([
        "run", "--task-seed", "5", "--overlap", "4", "--episodes", "2",
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
    assert args.k == 3
    assert args.cap == 30
    args = parser.parse_args(["eval", "--out", "x"])
    assert (args.k, args.cap, args.seed, args.episodes, args.embed_dim) == (3, 30, 0, 1, 64)
    assert (args.policy, args.tasks, args.checkpoint) == ("learned", 10, None)


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
    code = main([
        "eval", "--checkpoint", str(out / "policy.npz"), "--policy", "learned",
        "--task-seed", "600", "--tasks", "2", "--depth", "1", "--overlap", "2",
        "--distractors", "1", "--cap", "10", "--embed-dim", "32",
        "--out", str(eval_out),
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
    assert config.report_path == str(tmp_path / "report.jsonl")


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
        "eval", "--policy", "add-all", "--tasks", "2", "--overlap", "4",
        "--out", str(out),
    ])
    assert code == 0
    assert len(list(out.glob("episode_*.jsonl"))) == 2
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["memories_saved_pct"] == 100.0


def test_report_combines_dirs(tmp_path, capsys):
    for name, policy in (("a", "no-memory"), ("b", "add-all")):
        main(["run", "--task-seed", "7", "--overlap", "4", "--episodes", "2",
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
    main(["run", "--task-seed", "9", "--overlap", "4", "--episodes", "1",
          "--policy", "add-all", "--out", str(tmp_path / "r")])
    out = tmp_path / "rep"
    assert main(["report", str(tmp_path / "r"), "--out", str(out)]) == 0


def test_report_rejects_two_inputs_of_one_name(tmp_path, capsys):
    for parent in ("b", "x"):
        main(["run", "--task-seed", "7", "--overlap", "4", "--policy", "add-all",
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
    main(["run", "--task-seed", "9", "--overlap", "4", "--episodes", "2",
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
    for policy, episodes in (("add-all", "4"), ("no-memory", "2")):
        assert main(["run", "--policy", policy, "--episodes", episodes, "--out", str(out)]) == 0
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

    AdmissionPolicy(64, 4).save(str(path))  # the CLI's default --embed-dim
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
    assert main(["eval", "--checkpoint", str(checkpoint), "--tasks", "1",
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


def test_error_record_on_failure(tmp_path, capsys):
    code = main(["run", "--policy", "learned", "--out", str(tmp_path / "x")])
    assert code != 0
    err = capsys.readouterr().err.strip()
    record = json.loads(err)
    assert record["error"] == "ValidationError"
    assert "checkpoint" in record["message"]


def test_error_record_bad_task_params(tmp_path, capsys):
    code = main(["run", "--depth", "0", "--out", str(tmp_path / "x")])
    assert code != 0
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"


def _task_fields() -> dict:
    from hivemem.sim import generate_task

    return json.loads(generate_task(seed=1, depth=1, width=1, overlap_count=2).to_json())


@pytest.mark.parametrize("body", [
    "{",
    json.dumps({**_task_fields(), "bogus": 1}),
    json.dumps({**_task_fields(), "p_fail": 3.0}),
    json.dumps({**_task_fields(), "solve_cost": -5.0}),
    json.dumps({**_task_fields(), "width": 0}),
    json.dumps({**_task_fields(), "depth": 0}),
    json.dumps({**_task_fields(), "pollution_corrupt_rate": 7.0}),
    json.dumps({**_task_fields(), "shared_chains": [["s0", "zz"]]}),
    json.dumps({**_task_fields(), "values": {"s0": "000000", "s1": "000000"}}),
    None,
], ids=["malformed-json", "unknown-key", "p_fail-out-of-range", "negative-solve-cost",
        "zero-width", "zero-depth", "corrupt-rate-above-one", "chain-of-an-unknown-node",
        "stale-values", "missing-file"])
def test_run_rejects_a_bad_task_file(tmp_path, capsys, body):
    task_file = tmp_path / "task.json"
    if body is not None:
        task_file.write_text(body)
    out = tmp_path / "run"
    assert main(["run", "--task-file", str(task_file), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert not out.exists()


def test_run_reads_a_task_file(tmp_path):
    task_file = tmp_path / "task.json"
    task_file.write_text(json.dumps(_task_fields()))
    out = tmp_path / "run"
    assert main(["run", "--task-file", str(task_file), "--policy", "add-all",
                 "--out", str(out)]) == 0
    assert json.loads((out / "metrics.json").read_text())["episodes"] == 1


_OUT_COMMANDS = {
    "run": ["run", "--episodes", "1"],
    "eval": ["eval", "--policy", "add-all", "--tasks", "1"],
    "report": ["report", "RUN_DIR"],
    "train": ["train", "--config", str(PINNED / "train_config.json")],
    "run-llm": ["run", "--backend", "llm", "--query", "q"],
}


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
    argv = [str(run_dir) if a == "RUN_DIR" else a for a in _OUT_COMMANDS[command]]
    assert main([*argv, "--out", str(out)]) == 1
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
    argv = [str(run_dir) if a == "RUN_DIR" else a for a in _OUT_COMMANDS[command]]
    assert main([*argv, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert str(offending) in record["message"]
    assert offending.is_dir() and (run_dir / "episode_00000.jsonl").read_text() == ""


def test_run_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["run", "--episodes", "1", "--seed", "-5", "--out", str(tmp_path / "x")]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"
    assert "-5" in record["message"]
