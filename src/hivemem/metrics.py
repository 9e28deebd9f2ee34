"""Memory statistics and run reports computed from trace files.

Definitions (denominators matter and are fixed here):

* memories_saved_pct: admitted steps / controller-candidate steps
  (candidate steps = decision events; retrieves and finals never reach
  the controller).
* memory_recall_pct: distinct admitted entries retrieved at least once /
  admitted entries.
* cross_team_recall_pct: retrieval events whose consumer differs from
  the entry's source team / all retrieval events (primary, event-level).
* cross_team_entry_recall_pct: entries with at least one cross-team
  retrieval / entries retrieved at least once (entry-level alternative).

Everything is recomputable bit-exactly from the persisted event lines
alone, so nothing here reads back the ``metrics.json`` a run writes
beside them.  Events are validated once, where they enter from outside:
``read_events`` checks each line of a trace file.  The in-memory events
of a run are built by the runtime and are not checked again here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, ValidationError
from .tracefile import read_events


@dataclass
class RunMetrics:
    episodes: int = 0
    candidate_steps: int = 0
    admitted: int = 0
    retrieval_events: int = 0
    entries_retrieved: int = 0
    cross_team_events: int = 0
    cross_team_entries: int = 0
    memories_saved_pct: float = 0.0
    memory_recall_pct: float = 0.0
    cross_team_recall_pct: float = 0.0
    cross_team_entry_recall_pct: float = 0.0
    recall_defined: bool = False
    cross_defined: bool = False
    mean_score: float | None = None
    mean_first_score: float | None = None
    mean_runtime: float = 0.0
    mean_steps: float = 0.0
    runtime_samples: list[float] = field(default_factory=list)
    step_samples: list[int] = field(default_factory=list)
    score_samples: list[float] = field(default_factory=list)

    def summary_row(self) -> dict:
        return {
            "episodes": self.episodes,
            "mean_score": self.mean_score,
            "mean_runtime": self.mean_runtime,
            "mean_steps": self.mean_steps,
            "memories_saved_pct": self.memories_saved_pct,
            "memory_recall_pct": self.memory_recall_pct,
            "cross_team_recall_pct": self.cross_team_recall_pct,
            "cross_team_entry_recall_pct": self.cross_team_entry_recall_pct,
        }


def _pct(numerator: int, denominator: int) -> float:
    return 100.0 * numerator / denominator if denominator else 0.0


def metrics_from_event_streams(streams: Iterable[Sequence[dict]]) -> RunMetrics:
    """Aggregate metrics over episodes; each stream is one episode's events.

    The events must already be valid: built by the runtime, or read back
    with ``read_events``.  An episode without exactly one ``aggregate``
    event, such as an empty or truncated file, or with more than one
    ``score`` event, such as a doubled append or the old tail an in-place
    overwrite cut short left behind, raises SchemaError.
    """
    m = RunMetrics()
    for events in streams:
        m.episodes += 1
        entry_source: dict[int, int] = {}
        retrieved: dict[int, bool] = {}  # entry_id -> saw cross-team retrieval
        steps = 0
        aggregates = scores = 0
        runtime = 0.0
        for event in events:
            kind = event["kind"]
            if kind == "decision":
                m.candidate_steps += 1
            elif kind == "admit":
                m.admitted += 1
                entry_source[event["entry_id"]] = event["team"]
            elif kind == "retrieve":
                m.retrieval_events += 1
                eid = event["entry_id"]
                if eid not in entry_source:
                    raise SchemaError(f"retrieve of unadmitted entry {eid}")
                cross = event["team"] != entry_source[eid]
                if cross:
                    m.cross_team_events += 1
                retrieved[eid] = retrieved.get(eid, False) or cross
            elif kind == "step":
                steps += 1
            elif kind == "aggregate":
                aggregates += 1
                runtime = float(event["vt"])
            elif kind == "score":
                scores += 1
                m.score_samples.append(float(event["agg_score"]))
                if m.mean_first_score is None:
                    m.mean_first_score = 0.0
                m.mean_first_score += float(event["first_score"])
        if aggregates != 1:
            raise SchemaError(f"episode {m.episodes} has {aggregates} aggregate events, not one")
        if scores > 1:
            raise SchemaError(f"episode {m.episodes} has {scores} score events, not at most one")
        m.entries_retrieved += len(retrieved)
        m.cross_team_entries += sum(1 for v in retrieved.values() if v)
        m.runtime_samples.append(runtime)
        m.step_samples.append(steps)

    m.memories_saved_pct = _pct(m.admitted, m.candidate_steps)
    m.recall_defined = m.admitted > 0
    m.memory_recall_pct = _pct(m.entries_retrieved, m.admitted)
    m.cross_defined = m.retrieval_events > 0
    m.cross_team_recall_pct = _pct(m.cross_team_events, m.retrieval_events)
    m.cross_team_entry_recall_pct = _pct(m.cross_team_entries, m.entries_retrieved)
    if m.episodes:
        m.mean_runtime = float(np.mean(m.runtime_samples))
        m.mean_steps = float(np.mean(m.step_samples))
    if m.score_samples:
        m.mean_score = float(np.mean(m.score_samples))
        m.mean_first_score = m.mean_first_score / len(m.score_samples)
    return m


def compute_metrics(trace_paths: Sequence[str | Path]) -> RunMetrics:
    """Metrics over persisted trace files (one episode per file); a
    SchemaError names the file it is about."""
    try:
        return metrics_from_event_streams(read_events(path := p) for p in trace_paths)
    except SchemaError as exc:  # raised while ``path`` is the file at hand
        raise SchemaError(f"{path}: {exc}") from exc


def fd_bin_count(samples: Sequence[float]) -> int:
    """Freedman-Diaconis bin count: width 2*IQR*n^(-1/3); at least 1 bin."""
    x = np.asarray(sorted(samples), dtype=np.float64)
    n = len(x)
    if n < 2 or x[-1] == x[0]:
        return 1
    iqr = float(np.percentile(x, 75) - np.percentile(x, 25))
    if iqr == 0.0:
        return max(1, int(math.ceil(math.sqrt(n))))
    width = 2.0 * iqr * n ** (-1.0 / 3.0)
    return max(1, int(math.ceil((x[-1] - x[0]) / width)))


def cdf_points(samples: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF sample points (value, cumulative probability)."""
    x = sorted(samples)
    n = len(x)
    return [(float(v), (i + 1) / n) for i, v in enumerate(x)]


def histogram_points(samples: Sequence[float]) -> list[tuple[float, float, int]]:
    """(bin_lo, bin_hi, count) rows with Freedman-Diaconis bin counts."""
    x = np.asarray(samples, dtype=np.float64)
    bins = fd_bin_count(samples)
    counts, edges = np.histogram(x, bins=bins)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    ]


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(rows: dict[str, dict]) -> str:
    """Plain-text column-aligned table; one row per variant."""
    if not rows:
        raise ValidationError("no rows to render")
    columns = ["variant"] + list(next(iter(rows.values())).keys())
    table = [[name] + [_format_cell(v) for v in row.values()] for name, row in rows.items()]
    widths = [max(len(c), *(len(r[i]) for r in table)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def report(variants: dict[str, RunMetrics], out_dir: str | Path) -> dict[str, Path]:
    """Emit the summary table plus per-variant CDF / histogram data files.

    Files are plain columnar text for external plotting; nothing here
    depends on a plotting library.
    """
    if not variants:
        raise ValidationError("report needs at least one metrics set")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    table_path = out / "summary.txt"
    table_path.write_text(
        render_table({name: m.summary_row() for name, m in variants.items()}),
        encoding="utf-8",
    )
    written["summary"] = table_path

    for name, m in variants.items():
        if not m.runtime_samples:
            continue
        cdf_path = out / f"runtime_cdf_{name}.txt"
        with open(cdf_path, "w", encoding="utf-8") as fh:
            fh.write("# runtime cumulative_probability\n")
            for value, p in cdf_points(m.runtime_samples):
                fh.write(f"{value:.6f} {p:.6f}\n")
        written[f"cdf_{name}"] = cdf_path

        hist_path = out / f"runtime_hist_{name}.txt"
        with open(hist_path, "w", encoding="utf-8") as fh:
            fh.write("# bin_lo bin_hi count\n")
            for lo, hi, count in histogram_points(m.runtime_samples):
                fh.write(f"{lo:.6f} {hi:.6f} {count}\n")
        written[f"hist_{name}"] = hist_path
    return written
