"""Command-line entry point: run / train / eval / report workflows.

Exit code 0 on success; on failure a machine-readable JSON error record
is written to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .controller import AdmissionPolicy
from .embeddings import HashingEmbedder
from .errors import HivememError, ValidationError
from .metrics import RunMetrics, compute_metrics, render_table, report as emit_report
from .sim import SimTask, generate_task, run_variant, variant_policy
from .training import TrainConfig, train

DEFAULT_K = 3
DEFAULT_CAP = 30
DEFAULT_EMBED_DIM = 64


def _add_task_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task-file", help="load a pinned sim task (JSON) instead of generating")
    parser.add_argument("--task-seed", type=int, default=0, help="seed for task generation")
    parser.add_argument("--depth", type=int, default=2, help="chain depth")
    parser.add_argument("--width", type=int, default=1, help="private chains per team")
    parser.add_argument("--overlap", type=int, default=6, help="shared subtask count")
    parser.add_argument("--distractors", type=int, default=0, help="distractor lure count")
    parser.add_argument("--p-fail", type=float, default=0.15, help="per-step retry probability")
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help="per-team step cap (default 30)"
    )


def _make_tasks(args, count: int, seed0: int) -> list[SimTask]:
    if getattr(args, "task_file", None):
        return [SimTask.from_json(Path(args.task_file).read_text(encoding="utf-8"))]
    return [
        generate_task(
            seed=seed0 + i,
            depth=args.depth,
            width=args.width,
            overlap_count=args.overlap,
            distractor_count=args.distractors,
            step_cap=args.cap,
            p_fail=args.p_fail,
        )
        for i in range(count)
    ]


def _load_policy(args, provider):
    if args.policy == "learned":
        if not args.checkpoint:
            raise ValidationError("--policy learned requires --checkpoint")
        policy, _ = AdmissionPolicy.load(args.checkpoint, expected_embed_dim=provider.dimension)
        return policy
    return variant_policy(args.policy)


def _metrics_to_json(m: RunMetrics) -> dict:
    return dataclasses.asdict(m)


def _metrics_from_json(d: dict) -> RunMetrics:
    return RunMetrics(**d)


def _run_llm(args, provider, policy) -> int:
    from .endpoint import EndpointConfig, LLMAggregator, LLMBackend
    from .metrics import metrics_from_event_streams
    from .runtime import AggregationError, TaskSpec, run_episode

    if not args.query:
        raise ValidationError("--backend llm requires --query")
    config = EndpointConfig.from_env()
    backend = LLMBackend(config)
    aggregator = LLMAggregator(config)
    task = TaskSpec(task_id="llm-task", query=args.query, step_cap=args.cap)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    streams = []
    try:
        for i in range(args.episodes):
            path = out / f"episode_{i:05d}.jsonl"
            try:
                trace = run_episode(task, args.k, backend, policy, provider, aggregator,
                                    seed=args.seed + i, mode="live")
            except AggregationError as exc:  # the teams finished; keep their episode
                exc.trace.write(path)
                raise
            trace.write(path)
            streams.append(trace.events)
            sys.stdout.write(f"episode {i}: aggregate answer: {trace.aggregate_answer}\n")
    finally:  # call metadata explains a failed run too
        with open(out / "calls.jsonl", "w", encoding="utf-8") as fh:
            for caller, log in (("backend", backend.call_log), ("aggregator", aggregator.call_log)):
                for row in log:
                    fh.write(json.dumps({"caller": caller, **row}) + "\n")
    metrics = metrics_from_event_streams(streams)
    (out / "metrics.json").write_text(
        json.dumps(_metrics_to_json(metrics), indent=2), encoding="utf-8"
    )
    return 0


def cmd_run(args) -> int:
    provider = HashingEmbedder(args.embed_dim)
    policy = _load_policy(args, provider)
    if args.backend == "llm":
        return _run_llm(args, provider, policy)
    tasks = _make_tasks(args, args.tasks, args.task_seed)
    seeds = list(range(args.seed, args.seed + args.episodes))
    metrics, traces = run_variant(
        tasks, policy, args.k, seeds, provider, keep_traces=True
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, trace in enumerate(traces):
        trace.write(out / f"episode_{i:05d}.jsonl")
    (out / "metrics.json").write_text(
        json.dumps(_metrics_to_json(metrics), indent=2), encoding="utf-8"
    )
    sys.stdout.write(render_table({args.policy: metrics.summary_row()}))
    return 0


def cmd_train(args) -> int:
    cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    task_cfg = cfg.get("tasks", {})
    out = Path(args.out or cfg.get("out", "train_out"))
    out.mkdir(parents=True, exist_ok=True)

    tasks = [
        generate_task(
            seed=int(task_cfg.get("seed0", 1000)) + i,
            depth=int(task_cfg.get("depth", 2)),
            width=int(task_cfg.get("width", 1)),
            overlap_count=int(task_cfg.get("overlap", 6)),
            distractor_count=int(task_cfg.get("distractors", 6)),
            step_cap=int(task_cfg.get("step_cap", DEFAULT_CAP)),
            p_fail=float(task_cfg.get("p_fail", 0.15)),
        )
        for i in range(int(task_cfg.get("count", 50)))
    ]
    embed_dim = int(cfg.get("embed_dim", DEFAULT_EMBED_DIM))
    provider = HashingEmbedder(embed_dim)
    policy = AdmissionPolicy(
        embed_dim,
        int(cfg.get("controller_dim", 32)),
        seed=int(cfg.get("policy_seed", 0)),
    )
    train_cfg = TrainConfig(
        **cfg.get("train", {}),
        checkpoint_dir=str(out / "checkpoints"),
        report_path=str(out / "report.jsonl"),
    )
    train(policy, tasks, provider, train_cfg)
    policy.save(str(out / "policy.npz"), provider_name=provider.name)
    sys.stdout.write(f"trained policy written to {out / 'policy.npz'}\n")
    return 0


def cmd_eval(args) -> int:
    provider = HashingEmbedder(args.embed_dim)
    tasks = _make_tasks(args, args.tasks, args.task_seed)
    policy = _load_policy(args, provider)
    seeds = list(range(args.seed, args.seed + args.episodes))
    metrics, _ = run_variant(tasks, policy, args.k, seeds, provider)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(
        json.dumps(_metrics_to_json(metrics), indent=2), encoding="utf-8"
    )
    sys.stdout.write(render_table({args.policy: metrics.summary_row()}))
    return 0


def cmd_report(args) -> int:
    variants: dict[str, RunMetrics] = {}
    for spec in args.inputs:
        if "=" in spec:
            name, _, path = spec.partition("=")
        else:
            path = spec
            name = Path(spec).name
        metrics_file = Path(path) / "metrics.json"
        if metrics_file.exists():
            variants[name] = _metrics_from_json(
                json.loads(metrics_file.read_text(encoding="utf-8"))
            )
        else:
            traces = sorted(Path(path).glob("*.jsonl"))
            if not traces:
                raise ValidationError(f"{path} has neither metrics.json nor trace files")
            variants[name] = compute_metrics(traces)
    written = emit_report(variants, args.out)
    sys.stdout.write((Path(args.out) / "summary.txt").read_text(encoding="utf-8"))
    sys.stdout.write(f"{len(written)} report files in {args.out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hivemem",
        description="Parallel agent teams with a learned shared-memory admission controller",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run episodes under one admission policy")
    _add_task_args(p_run)
    p_run.add_argument("--k", type=int, default=DEFAULT_K, help="parallel teams (default 3)")
    p_run.add_argument(
        "--policy",
        default="no-memory",
        choices=["no-memory", "add-all", "llm-proxy", "learned"],
    )
    p_run.add_argument("--checkpoint", help="policy checkpoint for --policy learned")
    p_run.add_argument(
        "--backend", default="sim", choices=["sim", "llm"],
        help="sim: deterministic scripted teams; llm: chat endpoint from env config",
    )
    p_run.add_argument("--query", help="task query for --backend llm")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--episodes", type=int, default=1)
    p_run.add_argument("--tasks", type=int, default=1, help="number of generated tasks")
    p_run.add_argument("--embed-dim", type=int, default=DEFAULT_EMBED_DIM)
    p_run.add_argument("--out", required=True, help="output directory for traces and metrics")
    p_run.set_defaults(func=cmd_run)

    p_train = sub.add_parser("train", help="train the admission controller")
    p_train.add_argument("--config", required=True, help="JSON training config file")
    p_train.add_argument("--out", help="output directory (checkpoints, report)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint or baseline variant")
    _add_task_args(p_eval)
    p_eval.add_argument("--k", type=int, default=DEFAULT_K)
    p_eval.add_argument(
        "--policy",
        default="learned",
        choices=["no-memory", "add-all", "llm-proxy", "learned"],
    )
    p_eval.add_argument("--checkpoint", help="policy checkpoint for --policy learned")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--episodes", type=int, default=1)
    p_eval.add_argument("--tasks", type=int, default=10)
    p_eval.add_argument("--embed-dim", type=int, default=DEFAULT_EMBED_DIM)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="summary tables and plot data from metrics dirs")
    p_report.add_argument(
        "inputs", nargs="+", help="metrics directories, optionally name=path"
    )
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HivememError as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    except Exception as exc:  # unexpected; still machine-readable
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
