import threading

import numpy as np
import pytest

from hivemem.bank import MemoryBank
from hivemem.errors import ConfigurationError, EntryNotFoundError, ValidationError


def emb(dim=4, fill=0.5):
    return np.full(dim, fill)


def make_bank(dim=4, sink=None):
    return MemoryBank(dim, event_sink=sink)


def retrievals(events):
    return [e for e in events if e["kind"] == "retrieve"]


def admits(events):
    return [e for e in events if e["kind"] == "admit"]


def test_first_admission():
    bank = make_bank()
    eid = bank.admit("fact A", "raw A", emb(), source_team=1, source_step=2)
    assert eid == 1
    assert len(bank) == 1


def test_sequential_admits_monotonic():
    events = []
    bank = make_bank(sink=events.append)
    e1 = bank.admit("a", "x", emb(), 1, 1)
    e2 = bank.admit("b", "y", emb(), 2, 1)
    assert (e1, e2) == (1, 2)
    first, second = admits(events)
    assert (first["entry_id"], second["entry_id"]) == (1, 2)
    assert first["seq"] < second["seq"]


def test_admit_validation_errors():
    bank = make_bank()
    with pytest.raises(ValidationError):
        bank.admit("", "out", emb(), 1, 1)
    with pytest.raises(ValidationError):
        bank.admit("sum", "", emb(), 1, 1)
    with pytest.raises(ConfigurationError):
        bank.admit("sum", "out", np.zeros(7), 1, 1)


def test_list_keys_empty_and_ordering():
    bank = make_bank()
    assert bank.list_keys() == []
    bank.admit("fact A", "raw A", emb(), 1, 1)
    bank.admit("fact B", "raw B", emb(), 1, 2)
    assert bank.list_keys() == [(1, "fact A"), (2, "fact B")]


def test_list_keys_results_are_independent_snapshots():
    bank = make_bank()
    bank.admit("fact A", "raw A", emb(), 1, 1)
    first = bank.list_keys()
    seq, second = bank.list_keys_seq()
    second.append((99, "forged"))
    second[0] = (98, "replaced")
    bank.admit("fact B", "raw B", emb(), 2, 1)
    assert first == [(1, "fact A")]
    assert bank.list_keys() == [(1, "fact A"), (2, "fact B")]
    assert bank.list_keys_seq() == (seq + 2, [(1, "fact A"), (2, "fact B")])


def test_retrieve_roundtrip_and_log():
    events = []
    bank = make_bank(sink=events.append)
    bank.admit("fact A", "raw A", emb(), 1, 1)
    bank.admit("fact B", "raw B", emb(), 1, 2)
    assert bank.retrieve(1, consumer_team=2, consumer_step=5) == ("fact A", "raw A")
    log = retrievals(events)
    assert len(log) == 1
    assert (log[0]["entry_id"], log[0]["team"], log[0]["step"]) == (1, 2, 5)


def test_retrieve_unknown_id():
    bank = make_bank()
    bank.admit("a", "x", emb(), 1, 1)
    bank.admit("b", "y", emb(), 1, 2)
    with pytest.raises(EntryNotFoundError):
        bank.retrieve(99, 1, 1)


def test_retrieve_idempotent_reads():
    events = []
    bank = make_bank(sink=events.append)
    bank.admit("a", "x", emb(), 1, 1)
    assert bank.retrieve(1, 2, 1) == bank.retrieve(1, 3, 1) == ("a", "x")
    assert len(retrievals(events)) == 2


def test_retrieval_causality():
    events = []
    bank = make_bank(sink=events.append)
    bank.admit("a", "x", emb(), 1, 1)
    bank.retrieve(1, 2, 1)
    (admit,) = admits(events)
    record = retrievals(events)[0]
    assert record["entry_id"] == admit["entry_id"]
    assert record["seq"] > admit["seq"]


def test_cache_alignment(provider):
    bank = MemoryBank(provider.dimension)
    texts = [f"fact number {i}" for i in range(10)]
    for i, t in enumerate(texts):
        bank.admit(t, f"out {i}", provider.embed(t), 1, i + 1)
    keys, key_sum = bank.context_snapshot()
    assert keys == [(i, t) for i, t in enumerate(texts, 1)] == bank.list_keys()
    assert key_sum.shape == (provider.dimension,)
    assert np.allclose(key_sum, sum(provider.embed(summary) for _, summary in keys))


def test_snapshot_key_sum_adds_keys_in_admission_order(provider):
    rng = np.random.default_rng(0)
    bank = MemoryBank(provider.dimension)
    snapshot_keys, key_sum = bank.context_snapshot()
    assert snapshot_keys == [] and np.array_equal(key_sum, np.zeros(provider.dimension))
    first = rng.normal(size=provider.dimension)
    bank.admit("a raw key", "out", first, 1, 1)
    keys = [first.copy()]
    first[:] = 0.0  # the bank keeps its own copy of the caller's array
    snapshots = [bank.context_snapshot()]
    for i in range(2, 41):
        text = f"fact {rng.integers(1_000_000)} number {i}"
        keys.append(provider.embed(text))
        bank.admit(text, "out", keys[-1], 1, i)
        snapshots.append(bank.context_snapshot())
    for n, (snapshot_keys, key_sum) in enumerate(snapshots, 1):
        # bit for bit, although later admits happened after the snapshot
        assert len(snapshot_keys) == n
        assert np.array_equal(key_sum, np.add.reduce(np.stack(keys[:n]), axis=0))


def test_event_sink_fields():
    events = []
    bank = MemoryBank(4, event_sink=events.append)
    bank.admit("a", "x", emb(), 1, 2)
    bank.retrieve(1, 3, 4)
    assert set(events[0]) == {"kind", "seq", "entry_id", "team", "step", "t_ns"}
    assert events[0]["kind"] == "admit"
    assert events[1]["kind"] == "retrieve"
    assert events[1]["seq"] > events[0]["seq"]


def test_concurrent_admits_complete():
    events = []
    bank = make_bank(sink=events.append)
    rng = np.random.default_rng(0)
    keys = {(team, step): rng.normal(size=4) for team in (1, 2, 3) for step in range(1, 11)}
    errors = []

    def worker(team):
        try:
            for step in range(1, 11):
                bank.admit(f"t{team}s{step}", "out", keys[team, step], team, step)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in (1, 2, 3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(bank) == 30
    # the admit events, in emission order, carry dense ids in seq order
    log = admits(events)
    assert [e["entry_id"] for e in log] == list(range(1, 31))
    seqs = [e["seq"] for e in log]
    assert seqs == sorted(seqs) and len(set(seqs)) == 30
    per_team = {team: [e["step"] for e in log if e["team"] == team] for team in (1, 2, 3)}
    assert per_team == {team: list(range(1, 11)) for team in (1, 2, 3)}
    snapshot_keys, key_sum = bank.context_snapshot()
    assert snapshot_keys == [(e["entry_id"], f"t{e['team']}s{e['step']}") for e in log]
    # bit for bit: the sum adds the keys in the order the admit events report
    admitted = np.stack([keys[e["team"], e["step"]] for e in log])
    assert np.array_equal(key_sum, np.add.reduce(admitted, axis=0))


def test_snapshot_prefix_property_under_concurrency():
    bank = make_bank()
    snapshots = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            snapshots.append(bank.list_keys())

    t = threading.Thread(target=reader)
    t.start()
    for i in range(200):
        bank.admit(f"s{i}", "o", emb(), 1, i + 1)
    stop.set()
    t.join()
    final = bank.list_keys()
    for snap in snapshots:
        assert snap == final[: len(snap)]
