"""Timing spans around hivemem's public functions, and the per-layer metrics.

A traced pass patches wrappers onto the names hivemem looks its functions
up under: module globals for functions imported by name (``build_context``
and ``sample_binary_decision`` in ``hivemem.runtime``, ``run_episode`` in
``hivemem.sim`` and ``hivemem.training``), class attributes for methods
(bank, policy, embedder, backend, optimizer).  A span is a name, start and
end in nanoseconds, the id of its parent span (-1 at the top) and a run id,
the measured pass it belongs to; its own id is its index.  Spans are kept
in memory in typed arrays, about 40 bytes each, and written out once the
run ends.  Episodes run in deterministic mode on one thread, so a single
stack of open spans gives every span its parent.
"""

from __future__ import annotations

import functools
import time
import weakref
from array import array
from collections import Counter
from pathlib import Path

# Highest first; per-mille so the rank arithmetic stays in integers.
PERCENTILES_PER_MILLE = (999, 990, 900, 500)
MIN_SAMPLES_BEYOND = 10


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for start, end, parent in zip(starts, ends, parents):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (start, end) in enumerate(zip(starts, ends)):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(c_end, end))
        out.append(end - start - covered)
    return out


def rank(n: int, per_mille: int) -> int:
    """1-based nearest rank of a percentile among n sorted samples."""
    return max(1, -(-per_mille * n // 1000))


def nearest_rank(sorted_values: list[float], per_mille: int) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[rank(len(sorted_values), per_mille) - 1]


def top_percentile(n: int) -> int | None:
    """Highest reported percentile (per mille) with at least ten samples beyond it."""
    for per_mille in PERCENTILES_PER_MILLE:
        if n - rank(n, per_mille) >= MIN_SAMPLES_BEYOND:
            return per_mille
    return None


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Patches span-recording wrappers onto hivemem and restores the originals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.runs = array("q")
        self.run_id = 0
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_texts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._bank_serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._admitted: set[tuple[int, int]] = set()
        self._retrieved: set[tuple[int, int]] = set()

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` records counts."""
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        stack, clock = self._stack, time.perf_counter_ns
        name_of, starts, ends, parents, runs = (
            self.name_of, self.starts, self.ends, self.parents, self.runs
        )

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = len(name_of)
            name_of.append(code)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return timed

    def patch(self, owner, attr: str, name: str, after=None, eager: bool = False) -> None:
        original = getattr(owner, attr)
        fn = (lambda *a, **kw: list(original(*a, **kw))) if eager else original
        setattr(owner, attr, self.wrap(name, fn, after))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, hm) -> None:
        """Wrap every measured layer of the imported ``hivemem`` package ``hm``."""
        bank = hm.bank.MemoryBank
        self.patch(hm.embeddings.HashingEmbedder, "embed", "embeddings.embed", self._on_embed)
        self.patch(bank, "admit", "bank.admit", self._on_admit)
        self.patch(bank, "retrieve", "bank.retrieve", self._on_retrieve)
        self.patch(bank, "list_keys", "bank.list_keys")
        self.patch(bank, "context_snapshot", "bank.context_snapshot", self._on_snapshot)
        self.patch(hm.runtime, "build_context", "controller.build_context")
        self.patch(hm.controller.AdmissionPolicy, "forward", "controller.forward")
        self.patch(
            hm.runtime, "sample_binary_decision", "controller.sample_decision", self._on_decision
        )
        self.patch(hm.training, "step_loss_grads", "controller.grad")
        self.patch(hm.training, "log_prob", "controller.grad")
        self.patch(hm.controller, "prob_yes_with_grad", "controller.grad")
        self.patch(hm.sim, "run_episode", "runtime.run_episode")
        self.patch(hm.training, "run_episode", "runtime.run_episode")
        self.patch(hm.sim.ScriptedBackend, "next_move", "sim.next_move")
        self.patch(hm.sim, "run_variant", "sim.run_variant")
        self.patch(hm.training, "train", "training.train")
        self.patch(hm.training.AdamW, "step", "training.optimizer")
        self.patch(hm.runtime.EpisodeTrace, "write", "tracefile.write", self._on_write)
        self.patch(hm.metrics, "read_events", "tracefile.read", self._on_read, eager=True)
        self.patch(hm.metrics, "metrics_from_event_streams", "metrics.from_streams")

    # -- counts recorded at the boundaries ------------------------------------

    def _on_embed(self, args, result) -> None:
        provider, text = args[0], args[1]
        seen = self._seen_texts.setdefault(provider, set())
        if text in seen:
            self.counts["embed_hits"] += 1
        else:
            seen.add(text)

    def _bank_serial(self, bank) -> int:
        # Serials, not id(): a bank's id is reused once the bank is collected.
        serial = self._bank_serials.get(bank)
        if serial is None:
            serial = self._bank_serials[bank] = self.counts["banks"]
            self.counts["banks"] += 1
        return serial

    def _on_admit(self, args, entry_id) -> None:
        self._admitted.add((self._bank_serial(args[0]), entry_id))

    def _on_retrieve(self, args, result) -> None:
        self._retrieved.add((self._bank_serial(args[0]), args[1]))

    def _on_snapshot(self, args, result) -> None:
        self.counts["snapshot_keys"] += len(result[0])

    def _on_decision(self, args, decision) -> None:
        self.counts["yes"] += decision.action == "YES"

    def _on_write(self, args, result) -> None:
        self.counts["bytes_written"] += Path(args[1]).stat().st_size

    def _on_read(self, args, events) -> None:
        self.counts["events_read"] += len(events)

    # -- results --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trun\tname\tstart_ns\tend_ns\n")
            rows = zip(self.parents, self.runs, self.name_of, self.starts, self.ends)
            for sid, (parent, run, code, start, end) in enumerate(rows):
                fh.write(f"{sid}\t{parent}\t{run}\t{self.names[code]}\t{start}\t{end}\n")

    def layer_metrics(self, passes: int) -> tuple[dict[str, float], dict]:
        """Per-layer metrics over ``passes`` traced passes, plus their sample counts.

        Counts are per pass; times are per call unless the name says otherwise.
        """
        own = self_times(self.starts, self.ends, self.parents)
        names = [self.names[code] for code in self.name_of]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_ns: Counter = Counter()
        in_train_ns: Counter = Counter()
        in_train_calls: Counter = Counter()
        under_train = [False] * len(names)
        episode_ns = []
        rows = zip(names, self.starts, self.ends, self.parents)
        for sid, (name, start, end, parent) in enumerate(rows):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_ns[name] += own[sid]
            if parent >= 0:
                under_train[sid] = under_train[parent] or names[parent] == "training.train"
            if under_train[sid]:
                in_train_ns[name] += dur
                in_train_calls[name] += 1
            if name == "runtime.run_episode":
                episode_ns.append(dur)
        episode_ms = sorted(ns / 1e6 for ns in episode_ns)

        def per_pass(name: str) -> float:
            return ratio(calls[name], passes)

        def us(name: str, times: Counter = total) -> float:
            """Microseconds per call of span ``name``."""
            return ratio(times[name], calls[name]) / 1e3

        def train_s(name: str) -> float:
            """Seconds per ``train()`` call spent in span ``name``."""
            return ratio(in_train_ns[name], calls["training.train"]) / 1e9

        used = len(self._admitted & self._retrieved)
        m = {
            "embeddings.embed.calls": per_pass("embeddings.embed"),
            "embeddings.embed.us_per_call": us("embeddings.embed"),
            "embeddings.embed.hit_ratio": ratio(
                self.counts["embed_hits"], calls["embeddings.embed"]
            ),
        }
        for op in ("admit", "retrieve", "list_keys", "context_snapshot"):
            m[f"bank.{op}.calls"] = per_pass(f"bank.{op}")
            m[f"bank.{op}.us_per_call"] = us(f"bank.{op}")
        m["bank.keys_at_snapshot.mean"] = ratio(
            self.counts["snapshot_keys"], calls["bank.context_snapshot"]
        )
        m["bank.admit.used_ratio"] = ratio(used, len(self._admitted))
        m["controller.build_context.calls"] = per_pass("controller.build_context")
        m["controller.build_context.us_per_call"] = us("controller.build_context", self_ns)
        m["controller.forward.calls"] = per_pass("controller.forward")
        m["controller.forward.us_per_call"] = us("controller.forward")
        m["controller.sample_decision.us_per_call"] = us("controller.sample_decision")
        m["controller.grad.calls"] = per_pass("controller.grad")
        m["controller.grad.us_per_call"] = us("controller.grad")
        m["controller.yes_ratio"] = ratio(self.counts["yes"], calls["controller.sample_decision"])
        m["runtime.run_episode.calls"] = per_pass("runtime.run_episode")
        m["runtime.run_episode.ms_p50"] = nearest_rank(episode_ms, 500)
        m["runtime.run_episode.ms_p99"] = nearest_rank(episode_ms, 990)
        m["runtime.run_episode.self_ms_per_call"] = us("runtime.run_episode", self_ns) / 1e3
        m["runtime.moves_per_episode"] = ratio(calls["sim.next_move"], calls["runtime.run_episode"])
        m["sim.next_move.calls"] = per_pass("sim.next_move")
        m["sim.next_move.us_per_call"] = us("sim.next_move")
        m["sim.run_variant.s"] = us("sim.run_variant") / 1e6
        m["training.rollout_s"] = train_s("runtime.run_episode")
        m["training.grad_s"] = train_s("controller.grad")
        m["training.optimizer_s"] = train_s("training.optimizer")
        m["training.other_s"] = (
            us("training.train") / 1e6
            - m["training.rollout_s"] - m["training.grad_s"] - m["training.optimizer_s"]
        )
        m["training.updates"] = ratio(calls["training.optimizer"], calls["training.train"])
        m["training.grad_calls_per_update"] = ratio(
            in_train_calls["controller.grad"], in_train_calls["training.optimizer"]
        )
        m["tracefile.write.ms_per_episode"] = us("tracefile.write") / 1e3
        m["tracefile.read.ms_per_episode"] = us("tracefile.read") / 1e3
        m["tracefile.bytes_per_episode"] = ratio(
            self.counts["bytes_written"], calls["tracefile.write"]
        )
        m["metrics.from_streams.ms"] = us("metrics.from_streams", self_ns) / 1e3
        m["metrics.events_per_episode"] = ratio(
            self.counts["events_read"], calls["tracefile.read"]
        )
        samples = {
            "spans": len(names),
            "passes": passes,
            "run_episode_samples": len(episode_ms),
            "run_episode_top_percentile_per_mille": top_percentile(len(episode_ms)),
            "embed_hits": self.counts["embed_hits"],
            "admits": len(self._admitted),
            "admits_used": used,
            "controller_decisions": calls["controller.sample_decision"],
            "controller_yes": self.counts["yes"],
        }
        return m, samples
