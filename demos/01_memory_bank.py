"""Shared memory bank basics: admit, list keys, retrieve, the event log.

The bank is the only channel between parallel teams.  Teams see summary
keys; full outputs come back only on explicit retrieval, and every event
is sequence-numbered so schedules can be audited afterwards.
"""

from hivemem import HashingEmbedder, MemoryBank

provider = HashingEmbedder(dimension=32)
events = []
bank = MemoryBank(embedding_dim=32, event_sink=events.append)

# Team 1 publishes two intermediate results.
for step, (summary, output) in enumerate(
    [
        ("opening section of the data file parsed", "columns: id, name, mass_kg"),
        ("row count confirmed", "the file contains 1204 rows"),
    ],
    start=1,
):
    entry_id = bank.admit(summary, output, provider.embed(summary), source_team=1, source_step=step)
    print(f"admitted entry {entry_id}: {summary!r}")

# Any team can scan the keys without paying for the values.
print("\nvisible keys:")
for entry_id, summary in bank.list_keys():
    print(f"  {entry_id}: {summary}")

# Team 2 decides entry 1 is useful and injects its key and value.
summary, value = bank.retrieve(1, consumer_team=2, consumer_step=4)
print(f"\nteam 2 retrieved entry 1 ({summary!r}) -> {value!r}")

# The event log feeds the training signal: which admissions paid off?
# The bank keeps no other record of who admitted an entry, or when.
print("\nusage per admitted step, read from the event log:")
for admit in (e for e in events if e["kind"] == "admit"):
    consumers = sorted(
        e["team"] for e in events if e["kind"] == "retrieve" and e["entry_id"] == admit["entry_id"]
    )
    print(f"  team {admit['team']} step {admit['step']}: retrieved by teams {consumers}")

print("\nevent log (exact fields, one line per admit/retrieve):")
for event in events:
    print(f"  {event}")
