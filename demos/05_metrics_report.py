"""Trace files in, tables and plot data out.

Episodes persist as line-delimited JSON events; memory statistics are
recomputed bit-exactly from those files alone, and the report step emits
plain columnar text (runtime CDFs, Freedman-Diaconis histograms) for
external plotting.
"""

import tempfile
from pathlib import Path

from hivemem import HashingEmbedder, compute_metrics, report
from hivemem.sim import generate_task, run_variant, variant_policy

provider = HashingEmbedder(dimension=32)
tasks = [
    generate_task(seed=30 + i, depth=2, width=1, overlap_count=6, distractor_count=0, p_fail=0.15)
    for i in range(20)
]

with tempfile.TemporaryDirectory(prefix="hivemem_report_") as tmp:
    out = Path(tmp)
    variants = {}
    for name, rule in [("no_memory", None), ("add_all", variant_policy("add-all"))]:
        metrics, traces = run_variant(tasks, rule, 3, [0, 1, 2], provider, keep_traces=True)

        # persist and recompute: the numbers must survive the round trip exactly
        trace_dir = out / name
        trace_dir.mkdir(parents=True)
        paths = []
        for i, trace in enumerate(traces):
            path = trace_dir / f"episode_{i:03d}.jsonl"
            trace.write(path)
            paths.append(path)
        recomputed = compute_metrics(paths)
        assert recomputed == metrics, "file round-trip must be bit-exact"
        variants[name] = metrics
        print(f"{name:10s} mean_score={metrics.mean_score:.3f} "
              f"mean_runtime={metrics.mean_runtime:7.2f} "
              f"recall={metrics.memory_recall_pct:5.1f}% "
              f"cross_team={metrics.cross_team_recall_pct:5.1f}%")

    written = report(variants, out / "report")
    print(f"\nreport files under {out / 'report'} (removed on exit):")
    for key, path in written.items():
        print(f"  {key}: {path.name}")
    print("\nsummary table:")
    print((out / "report" / "summary.txt").read_text())
