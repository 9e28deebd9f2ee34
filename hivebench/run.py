"""hivemem benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 hivebench/run.py --workload eval-learned --seed 0 --seconds 35 --trace 0

Run from the root of a hivemem checkout; the library is imported from its
``src/``.  Prints a metric table, a ``{"meta": ...}`` line and, last, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
hivebench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
import tracing
import workloads

SETUP_REPS = 15
MIN_PASSES = 3
TRACED_MIN_PASSES = 4   # at least two untraced and two traced
# Tracing stops after two traced passes holding this many episodes, enough
# for a p99 with ten samples beyond it; this bounds the spans kept in memory.
TRACED_EPISODES = 1000
OUT_DIR = Path(".bench_build") / "hivebench"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@dataclass
class Measurement:
    untraced: list[float] = field(default_factory=list)   # scaled pass seconds
    traced: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)       # every pass, unscaled
    loops: list[float] = field(default_factory=list)      # reference loop seconds
    first: workloads.PassResult | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _fresh_import():
    for name in [m for m in sys.modules if m == "hivemem" or m.startswith("hivemem.")]:
        del sys.modules[name]
    return importlib.import_module("hivemem")


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def measure(hm, workload: str, inputs, seconds: float, tracer, pins) -> Measurement:
    """Repeat identical passes for ``seconds``, checking every one's outputs."""
    rollouts = workloads.RolloutLog(hm) if workload == "train-heavy" else None
    per_pass = inputs.episodes_per_pass()
    min_passes = TRACED_MIN_PASSES if tracer else MIN_PASSES
    run = Measurement(loops=[hostspeed.reference_loop()])
    began = time.perf_counter()
    while True:
        so_far = run.wall
        elapsed = time.perf_counter() - began
        if len(so_far) >= min_passes and elapsed + statistics.median(so_far) > seconds:
            return run
        # Alternate so traced and untraced passes see the same host conditions.
        is_traced = (
            tracer is not None
            and len(so_far) % 2 == 1
            and (len(run.traced) < 2 or len(run.traced) * per_pass < TRACED_EPISODES)
        )
        gc.collect()  # so no pass pays for collecting an earlier pass's garbage
        if is_traced:
            tracer.run_id = len(so_far)
            tracer.install(hm)
        run.attempted += per_pass
        loops = [run.loops[-1]]  # bracket every library call of the pass
        try:
            result = workloads.run_pass(
                hm, workload, inputs, OUT_DIR / workload, rollouts,
                lambda: loops.append(hostspeed.reference_loop()),
            )
        except Exception:
            traceback.print_exc()
            run.failed += per_pass
            run.problems.append("a pass raised an exception")
            return run
        finally:
            if is_traced:
                tracer.restore()
        loops.append(hostspeed.reference_loop())
        run.loops.extend(loops[1:])
        run.wall.append(sum(result.seconds))
        (run.traced if is_traced else run.untraced).append(
            sum(map(hostspeed.scaled, result.seconds, loops, loops[1:]))
        )
        run.failed += workloads.count_failed(result.traces)
        result.traces = []  # keep only what the comparisons below need
        run.problems.extend(result.problems)
        if run.first is None:
            run.first = result
            if pins is not None:
                run.problems.extend(workloads.check_pinned(workload, result, *pins))
        elif not workloads.same_pass(run.first, result):
            run.problems.append("a repeated pass over the same inputs gave different outputs")
        if run.problems:
            return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hivemem" / "__init__.py").is_file():
        sys.stderr.write(f"hivebench: no hivemem sources under {src}; run from a checkout root\n")
        return 2
    sys.path.insert(0, str(src))
    section = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    units = {m["name"]: m["unit"] for m in declared}

    loop_before = hostspeed.reference_loop()
    setup_wall = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        hm = _fresh_import()
        inputs = workloads.build_inputs(hm, args.workload, args.seed)
        setup_wall.append(time.perf_counter() - start)
    loop_after = hostspeed.reference_loop()
    setup_times = [hostspeed.scaled(t, loop_before, loop_after) for t in setup_wall]
    if Path(hm.__file__).resolve().parent != (src / "hivemem").resolve():
        sys.stderr.write(f"hivebench: imported hivemem from {hm.__file__}, not {src}\n")
        return 2

    tracer = tracing.Tracer() if args.trace else None
    pins = workloads.load_pins() if args.seed == workloads.PINNED_SEED else None
    run = measure(hm, args.workload, inputs, args.seconds, tracer, pins)

    per_pass = inputs.episodes_per_pass()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "passes": len(run.untraced) + len(run.traced),
        "episodes_per_pass": per_pass,
        "setup_s": _spread(setup_times),
        "setup_wall_s": _spread(setup_wall),
        "failure_share": tracing.ratio(run.failed, run.attempted),
        "problems": run.problems,
        "reference_loop_s": _spread([loop_before, loop_after, *run.loops]),
    }
    if run.wall:
        meta["pass_wall_s"] = _spread(run.wall)
    if run.untraced:
        meta["pass_s"] = _spread(run.untraced)
        meta["pass_s"]["top_percentile_per_mille"] = tracing.top_percentile(len(run.untraced))

    metrics: dict[str, float] = {}
    if run.first is not None and not tracer:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(run.untraced),
            "episodes_per_s": statistics.median(per_pass / s for s in run.untraced),
            **run.first.quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    elif run.first is not None and run.traced:
        metrics, meta["layer_samples"] = tracer.layer_metrics(len(run.traced))
        metrics["tracing.overhead_pct"] = 100 * (
            statistics.median(run.traced) / statistics.median(run.untraced) - 1
        )
        meta["traced_pass_s"] = _spread(run.traced)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
        meta["span_file"] = str(spans_path)
    if metrics.keys() != units.keys():
        run.problems.append(f"printed metrics differ from the {section} list in BENCHMARK.json")

    for name, value in metrics.items():
        print(f"{name:42s} {value:16.6f} {units.get(name, '')}")
    for problem in run.problems:
        sys.stderr.write(f"hivebench: check failed: {problem}\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
