"""Command-line entry point: run / train / eval / report workflows.

``run`` and ``eval`` write one ``episode_*.jsonl`` trace file per episode
and a ``metrics.json`` summary, and remove the episode files an earlier
run left in the directory; ``report`` reads only the trace files.

Exit code 0 on success; on failure a machine-readable JSON error record
is written to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .controller import AdmissionPolicy
from .embeddings import HashingEmbedder
from .errors import HivememError, ValidationError, require_int
from .metrics import RunMetrics, compute_metrics, render_table, report as emit_report
from .sim import VARIANT_NAMES, SimTask, generate_task, run_variant, variant_policy
from .training import TrainConfig, train


def _exact_keys(what: str, block, keys: tuple[str, ...]) -> None:
    """A ValidationError unless ``block`` is an object with exactly ``keys``."""
    if not isinstance(block, dict):
        raise ValidationError(f"{what} is {type(block).__name__}, not an object")
    unknown, missing = sorted(set(block) - set(keys)), sorted(set(keys) - set(block))
    if unknown or missing:
        raise ValidationError(
            f"{what} holds exactly {', '.join(keys)}: unknown {unknown}, missing {missing}"
        )


def task_family(block) -> list[SimTask]:
    """The tasks of a ``tasks`` block: ``generate_task(seed=s, **family)``
    for each ``s`` from ``seed0`` to ``seed0 + count - 1``.

    The block holds exactly ``seed0``, an int >= 0, ``count``, an int >= 1,
    and ``family``, an object of ``SimTask``'s fields but ``seed``; those it
    leaves out keep their defaults.  Anything else, or a family ``SimTask``
    rejects (it checks every field's type and range), is a ValidationError.
    """
    _exact_keys("tasks", block, ("seed0", "count", "family"))
    seed0 = require_int("tasks.seed0", block["seed0"], 0)
    count = require_int("tasks.count", block["count"], 1)
    family = block["family"]
    if not isinstance(family, dict):
        raise ValidationError(f"tasks.family is {type(family).__name__}, not an object")
    try:
        return [generate_task(seed=s, **family) for s in range(seed0, seed0 + count)]
    except (TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"tasks.family: {exc}") from exc


def _load_policy(args):
    """The admission rule ``--policy`` names (None for ``no-memory``) and
    the embedder it reads keys with: a learned policy's is as wide as its
    checkpoint; no fixed rule reads the key embeddings."""
    if args.policy == "learned":
        if not args.checkpoint:
            raise ValidationError("--policy learned requires --checkpoint")
        policy, _ = AdmissionPolicy.load(args.checkpoint)
        return variant_policy("learned", policy), HashingEmbedder(policy.embed_dim)
    if args.checkpoint is not None:
        raise ValidationError(f"--policy {args.policy} does not read --checkpoint")
    return variant_policy(args.policy), HashingEmbedder()


def _episode_files(directory: Path) -> list[Path]:
    """The ``episode_*.jsonl`` paths in ``directory``, sorted; a
    ValidationError names the first that is a directory."""
    paths = sorted(directory.glob("episode_*.jsonl"))
    for path in paths:
        if path.is_dir():
            raise ValidationError(f"{path} is a directory, not an episode trace file")
    return paths


def _output_dir(path, make: bool = True) -> Path:
    """``path`` checked, before any work, as an output directory: a
    ValidationError naming it when it is a file or lies under one, when it
    holds a directory named ``episode_*.jsonl``, or when ``make`` cannot
    make it (with its parents)."""
    out = Path(path)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ValidationError(f"output directory {path}: {nearest} is not a directory")
    _episode_files(out)
    if make:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"output directory {path}: {type(exc).__name__}: {exc}") from exc
    return out


def _episode_name(i: int) -> str:
    return f"episode_{i:05d}.jsonl"


def _remove_other_episodes(out: Path, written: list[str]) -> None:
    """Delete each ``episode_*.jsonl`` in ``out`` but the ``written`` ones,
    so ``report`` reads back this run alone."""
    keep = set(written)
    for path in _episode_files(out):
        if path.name not in keep:
            path.unlink()


def _run_llm(args, provider, rule) -> int:
    from .endpoint import EndpointConfig, LLMAggregator, LLMBackend
    from .metrics import metrics_from_event_streams
    from .runtime import AggregationError, TaskSpec, run_episode

    if not args.query:
        raise ValidationError("--backend llm requires --query")
    _output_dir(args.out, make=False)  # checked before any work
    config = EndpointConfig.from_env()
    config.credential()  # a missing credential fails before ``--out`` is made
    out = _output_dir(args.out)
    backend = LLMBackend(config)
    aggregator = LLMAggregator(config)
    cap = {} if args.cap is None else {"step_cap": args.cap}
    task = TaskSpec(task_id="llm-task", query=args.query, **cap)
    (out / "metrics.json").unlink(missing_ok=True)  # written again only on success
    streams, written = [], []
    try:
        for i in range(args.episodes):
            path = out / _episode_name(i)
            try:
                trace = run_episode(task, args.k, backend, rule, provider, aggregator,
                                    seed=args.seed + i, mode="live")
            except AggregationError as exc:  # the teams finished; keep their episode
                exc.trace.write(path)
                written.append(path.name)
                raise
            trace.write(path)
            written.append(path.name)
            streams.append(trace.events)
            sys.stdout.write(f"episode {i}: aggregate answer: {trace.aggregate_answer}\n")
    finally:  # call metadata explains a failed run too
        _remove_other_episodes(out, written)
        with open(out / "calls.jsonl", "w", encoding="utf-8") as fh:
            for caller, log in (("backend", backend.call_log), ("aggregator", aggregator.call_log)):
                for row in log:
                    fh.write(json.dumps({"caller": caller, **row}) + "\n")
    metrics = metrics_from_event_streams(streams)
    (out / "metrics.json").write_text(json.dumps(asdict(metrics), indent=2), encoding="utf-8")
    return 0


def cmd_run(args) -> int:
    """``run`` and ``eval``: episodes under one admission rule, written to
    ``--out`` as trace files and a ``metrics.json`` nothing reads back."""
    for flag, value, least in (("--episodes", args.episodes, 1), ("--k", args.k, 1),
                               ("--seed", args.seed, 0), ("--cap", args.cap, 1)):
        if value is not None:
            require_int(flag, value, least)
    if args.backend == "llm":
        unread = {"--tasks": args.tasks}
    else:
        unread = {"--query": args.query, "--cap": args.cap}
    for flag, value in unread.items():
        if value is not None:
            raise ValidationError(f"--backend {args.backend} does not read {flag}")
    rule, provider = _load_policy(args)
    if args.backend == "llm":
        return _run_llm(args, provider, rule)
    if args.tasks is None:
        raise ValidationError("the sim backend requires --tasks FILE")
    tasks = _read_json(Path(args.tasks), "tasks file", task_family)
    seeds = list(range(args.seed, args.seed + args.episodes))
    out = _output_dir(args.out)
    metrics, traces = run_variant(tasks, rule, args.k, seeds, provider, keep_traces=True)
    written = [_episode_name(i) for i in range(len(traces))]
    for name, trace in zip(written, traces):
        trace.write(out / name)
    _remove_other_episodes(out, written)
    (out / "metrics.json").write_text(json.dumps(asdict(metrics), indent=2), encoding="utf-8")
    sys.stdout.write(render_table({args.policy: metrics.summary_row()}))
    return 0


def training_setup(cfg: dict, out: Path):
    """Tasks, policy, embedder and ``TrainConfig`` of a ``hivemem train`` config.

    The config holds exactly ``tasks``, a block ``task_family`` reads,
    ``policy``, ``AdmissionPolicy``'s keywords, and ``train``,
    ``TrainConfig``'s; checkpoints go under ``out``.
    """
    _exact_keys("training config", cfg, ("tasks", "policy", "train"))
    tasks = task_family(cfg["tasks"])
    try:
        policy = AdmissionPolicy(**cfg["policy"])
        config = TrainConfig(**cfg["train"], checkpoint_dir=str(out / "checkpoints"))
    except TypeError as exc:  # an unknown or missing keyword
        raise ValidationError(str(exc)) from exc
    return tasks, policy, HashingEmbedder(policy.embed_dim), config


def _read_json(path: Path, what: str, build):
    """``build`` of the JSON value in ``path``; a ValidationError naming the
    file when it cannot be read or parsed, or ``build`` rejects the value."""
    try:
        return build(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, ValidationError) as exc:  # ValueError: bad JSON or UTF-8
        raise ValidationError(f"bad {what} {path}: {type(exc).__name__}: {exc}") from exc


def cmd_train(args) -> int:
    tasks, policy, provider, config = _read_json(
        Path(args.config), "training config", lambda cfg: training_setup(cfg, Path(args.out))
    )
    out = _output_dir(args.out)
    train(policy, tasks, provider, config).write(out / "report.jsonl")
    policy.save(str(out / "policy.npz"), provider_name=provider.name)
    sys.stdout.write(f"trained policy written to {out / 'policy.npz'}\n")
    return 0


def cmd_report(args) -> int:
    _output_dir(args.out, make=False)  # ``emit_report`` makes it once the inputs are read
    variants: dict[str, RunMetrics] = {}
    for spec in args.inputs:
        if "=" in spec:
            name, _, path = spec.partition("=")
        else:
            path = spec
            name = Path(spec).name
        if name in variants:
            raise ValidationError(f"two report inputs are named {name!r}; name them name=path")
        traces = _episode_files(Path(path))
        if not traces:
            raise ValidationError(f"{path} holds no episode_*.jsonl trace files")
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

    # the flags ``run`` and ``eval`` share
    episodes = argparse.ArgumentParser(add_help=False)
    episodes.add_argument(
        "--tasks", metavar="FILE",
        help="sim tasks: a JSON object of seed0, count and family, as in a training config",
    )
    episodes.add_argument("--k", type=int, default=3, help="parallel teams (default 3)")
    episodes.add_argument("--checkpoint", help="policy checkpoint for --policy learned")
    episodes.add_argument("--seed", type=int, default=0, help="first episode seed")
    episodes.add_argument("--episodes", type=int, default=1, help="episode seeds per task")
    episodes.add_argument(
        "--out", required=True,
        help="output directory for traces and metrics; a run removes the episode_*.jsonl "
             "files in it that it did not write",
    )

    p_run = sub.add_parser(
        "run", parents=[episodes], help="run episodes under one admission policy"
    )
    p_run.add_argument("--policy", default="no-memory", choices=VARIANT_NAMES)
    p_run.add_argument(
        "--backend", default="sim", choices=["sim", "llm"],
        help="sim: deterministic scripted teams; llm: chat endpoint from env config",
    )
    p_run.add_argument("--query", help="task query for --backend llm")
    p_run.add_argument("--cap", type=int, help="per-team step cap for --backend llm (default 30)")
    p_run.set_defaults(func=cmd_run)

    p_train = sub.add_parser("train", help="train the admission controller")
    p_train.add_argument("--config", required=True, help="JSON training config file")
    p_train.add_argument("--out", required=True, help="output directory (checkpoints, report)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser(
        "eval", parents=[episodes], help="evaluate a checkpoint or baseline variant"
    )
    p_eval.add_argument("--policy", default="learned", choices=VARIANT_NAMES)
    p_eval.set_defaults(func=cmd_run, backend="sim", query=None, cap=None)  # run's sim defaults

    p_report = sub.add_parser("report", help="summary tables and plot data from run dirs")
    p_report.add_argument("inputs", nargs="+", help="run directories, optionally name=path")
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # an unexpected one (exit code 2) is still machine-readable
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1 if isinstance(exc, HivememError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
