"""Global shared memory bank: an append-only, linearizable key-value store.

One bank is instantiated per task episode.  Agent teams see only the
summary keys; full outputs are returned on explicit retrieval, and every
admit/retrieve is emitted as an event with a global sequence number, so
concurrent schedules can be replayed and verified after the fact.  The
controller sees the keys only through their running sum.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, EntryNotFoundError, ValidationError


@dataclass(frozen=True)
class MemoryEntry:
    entry_id: int
    summary: str
    output: str
    source_team: int
    source_step: int
    admit_seq: int


class MemoryBank:
    """Append-only store of (summary, output) pairs.

    Safe for concurrent access by any number of team executors plus the
    controller: all operations take a single lock, which makes every
    schedule trivially linearizable; the recorded sequence numbers let
    tests verify that property from the outside.

    ``event_sink``, when given, receives one dict per admit/retrieve with
    exactly the fields (kind, seq, entry_id, team, step, t_ns); it is
    called while the lock is held so the emitted order matches the
    linearization order, and must therefore be cheap: a plain list's
    ``append`` serves, and team threads may append to the same list.
    """

    def __init__(
        self,
        embedding_dim: int,
        event_sink: Callable[[dict], None] | None = None,
        clock_ns: Callable[[], int] = time.time_ns,
    ):
        if embedding_dim < 1:
            raise ConfigurationError("embedding_dim must be >= 1")
        self.embedding_dim = embedding_dim
        self._entries: list[MemoryEntry] = []
        self._keys: list[tuple[int, str]] = []  # (entry_id, summary) per entry
        # Sum of the key embeddings in admission order; replaced, never
        # updated in place, so a snapshot's sum stays as it was.
        self._key_sum = np.zeros(embedding_dim)
        self._seq = 0
        self._lock = threading.Lock()
        self._event_sink = event_sink
        self._clock_ns = clock_ns

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def entries(self) -> list[MemoryEntry]:
        """Snapshot of all entries in admission order."""
        with self._lock:
            return list(self._entries)

    def admit(
        self,
        summary: str,
        output: str,
        summary_embedding: np.ndarray,
        source_team: int,
        source_step: int,
    ) -> int:
        """Append an entry; returns the new entry_id (1-based, dense)."""
        if not summary or not output:
            raise ValidationError("summary and output must be non-empty")
        if source_team < 1 or source_step < 1:
            raise ValidationError("source_team and source_step are 1-based")
        emb = np.asarray(summary_embedding, dtype=np.float64)
        if emb.shape != (self.embedding_dim,):
            raise ConfigurationError(
                f"embedding shape {emb.shape} != ({self.embedding_dim},)"
            )
        with self._lock:
            self._seq += 1
            entry = MemoryEntry(
                entry_id=len(self._entries) + 1,
                summary=summary,
                output=output,
                source_team=source_team,
                source_step=source_step,
                admit_seq=self._seq,
            )
            self._key_sum = self._key_sum + emb if self._entries else emb.copy()
            self._entries.append(entry)
            self._keys.append((entry.entry_id, summary))
            if self._event_sink is not None:
                self._event_sink(
                    {
                        "kind": "admit",
                        "seq": entry.admit_seq,
                        "entry_id": entry.entry_id,
                        "team": source_team,
                        "step": source_step,
                        "t_ns": self._clock_ns(),
                    }
                )
            return entry.entry_id

    def list_keys(self) -> list[tuple[int, str]]:
        """Point-in-time snapshot of (entry_id, summary), ordered by id."""
        with self._lock:
            return list(self._keys)

    def list_keys_seq(self) -> tuple[int, list[tuple[int, str]]]:
        """list_keys plus the linearization point, for concurrency tests."""
        with self._lock:
            self._seq += 1
            return self._seq, list(self._keys)

    def retrieve(self, entry_id: int, consumer_team: int, consumer_step: int) -> str:
        """Return the stored output verbatim and emit a ``retrieve`` event.

        Unknown ids raise :class:`EntryNotFoundError`; callers treat that
        as a failed step (agent-issued ids may be stale or hallucinated).
        """
        with self._lock:
            if not 1 <= entry_id <= len(self._entries):
                raise EntryNotFoundError(f"no entry with id {entry_id}")
            self._seq += 1
            if self._event_sink is not None:
                self._event_sink(
                    {
                        "kind": "retrieve",
                        "seq": self._seq,
                        "entry_id": entry_id,
                        "team": consumer_team,
                        "step": consumer_step,
                        "t_ns": self._clock_ns(),
                    }
                )
            return self._entries[entry_id - 1].output

    def context_snapshot(self) -> tuple[list[MemoryEntry], np.ndarray]:
        """Consistent (entries, key embedding sum) pair for the controller.

        The sum, of shape (embedding_dim,), adds the admitted embeddings
        one by one in entry order, starting from the first; it is zero
        for an empty bank.  Later admissions leave it unchanged.
        """
        with self._lock:
            return list(self._entries), self._key_sum

    def get_entry(self, entry_id: int) -> MemoryEntry:
        with self._lock:
            if not 1 <= entry_id <= len(self._entries):
                raise EntryNotFoundError(f"no entry with id {entry_id}")
            return self._entries[entry_id - 1]
