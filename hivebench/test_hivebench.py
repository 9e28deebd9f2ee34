"""Tests of the benchmark's own arithmetic and pins.

    python -m pytest hivebench
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hivemem  # noqa: E402
import hostspeed  # noqa: E402
import pin  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_nested_children():
    # root [0,100] > a [10,30], b [40,70] > c [45,50]
    starts, ends, parents = [0, 10, 40, 45], [100, 30, 70, 50], [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [50, 20, 25, 5]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [10,30] and [20,40] cover 30; [90,120] is clipped to [90,100]
    starts, ends, parents = [0, 10, 20, 90], [100, 30, 40, 120], [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == 100 - 30 - 10


def test_wrapped_calls_record_their_parent_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    outer()
    inner()
    assert [tracer.names[c] for c in tracer.name_of] == ["outer", "inner", "inner", "inner"]
    assert list(tracer.parents) == [-1, 0, 0, -1]
    own = tracing.self_times(tracer.starts, tracer.ends, tracer.parents)
    inner_ns = tracer.ends[1] - tracer.starts[1] + tracer.ends[2] - tracer.starts[2]
    assert own[0] == tracer.ends[0] - tracer.starts[0] - inner_ns


@pytest.mark.parametrize(
    "n, expected",
    [(10_000, 999), (1000, 990), (999, 900), (100, 900), (99, 500), (20, 500), (19, None)],
)
def test_top_percentile_keeps_ten_samples_beyond(n, expected):
    assert tracing.top_percentile(n) == expected


def test_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert tracing.nearest_rank(values, 990) == 990.0
    assert tracing.nearest_rank(values, 500) == 500.0
    assert tracing.nearest_rank([3.0], 990) == 3.0
    assert tracing.nearest_rank([], 500) == 0.0


def test_embed_hit_ratio_counts_texts_each_provider_has_seen():
    tracer = tracing.Tracer()
    tracer.install(hivemem)
    try:
        first, second = hivemem.HashingEmbedder(8), hivemem.HashingEmbedder(8)
        for text in ("a", "b", "a", "a"):
            first.embed(text)
        second.embed("a")
    finally:
        tracer.restore()
    metrics, samples = tracer.layer_metrics(passes=1)
    assert samples["embed_hits"] == 2
    assert metrics["embeddings.embed.calls"] == 5
    assert metrics["embeddings.embed.hit_ratio"] == pytest.approx(2 / 5)
    assert hivemem.HashingEmbedder.embed.__qualname__ == "HashingEmbedder.embed"


def test_failure_share_counts_episodes_with_any_unfinished_team():
    traces = [
        SimpleNamespace(team_status=["final", "final", "final"]),
        SimpleNamespace(team_status=["final", "failed", "final"]),
        SimpleNamespace(team_status=["move_limit", "cap_exhausted", "final"]),
        SimpleNamespace(team_status=["final"]),
    ]
    failed = workloads.count_failed(traces)
    assert failed == 2
    assert tracing.ratio(failed, len(traces)) == 0.5
    assert tracing.ratio(0, 0) == 0.0


def test_pinned_checkpoint_regenerates_bit_for_bit():
    assert pin.checkpoint_matches(hivemem) == []


def test_scaled_time_reads_as_on_the_reference_host():
    ref = hostspeed.REFERENCE_LOOP_S
    assert hostspeed.scaled(1.5, ref, ref) == pytest.approx(1.5)
    # the loop ran twice as slow around the pass: the host was slow, not hivemem
    assert hostspeed.scaled(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    assert hostspeed.scaled(3.0, ref, 3 * ref) == pytest.approx(1.5)
