"""Global shared memory bank: an append-only, linearizable key-value store.

One bank is instantiated per task episode.  It keeps only what readers
use: the (entry_id, summary) keys, the outputs, and the running sum of
the key embeddings.  Agent teams see only the summary keys; full outputs
are returned on explicit retrieval.  Every admit/retrieve is emitted as
an event with a global sequence number, and the ``admit`` event is the
one record of which team admitted an entry, at which step and when, so
concurrent schedules can be replayed and verified after the fact.  The
controller sees the keys only through their running sum.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from .errors import ConfigurationError, EntryNotFoundError, ValidationError


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
        self._keys: list[tuple[int, str]] = []  # (entry_id, summary) per entry
        self._outputs: list[str] = []  # parallel to _keys
        # Sum of the key embeddings in admission order; replaced, never
        # updated in place, so a snapshot's sum stays as it was.
        self._key_sum = np.zeros(embedding_dim)
        self._seq = 0
        self._lock = threading.Lock()
        self._event_sink = event_sink
        self._clock_ns = clock_ns

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

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
            entry_id = len(self._keys) + 1
            self._key_sum = self._key_sum + emb if self._keys else emb.copy()
            self._keys.append((entry_id, summary))
            self._outputs.append(output)
            if self._event_sink is not None:
                self._event_sink(
                    {
                        "kind": "admit",
                        "seq": self._seq,
                        "entry_id": entry_id,
                        "team": source_team,
                        "step": source_step,
                        "t_ns": self._clock_ns(),
                    }
                )
            return entry_id

    def list_keys(self) -> list[tuple[int, str]]:
        """Point-in-time snapshot of (entry_id, summary), ordered by id."""
        with self._lock:
            return list(self._keys)

    def list_keys_seq(self) -> tuple[int, list[tuple[int, str]]]:
        """``list_keys`` plus its linearization point: a probe used only by tests.

        The snapshot takes the next sequence number, so this read advances
        ``_seq`` as an admit or retrieve does, and the next event's ``seq``
        skips the number.  The runtime calls ``list_keys``, which does not.
        """
        with self._lock:
            self._seq += 1
            return self._seq, list(self._keys)

    def retrieve(self, entry_id: int, consumer_team: int, consumer_step: int) -> tuple[str, str]:
        """Return the entry's (summary, output) verbatim and emit a ``retrieve`` event.

        Unknown ids raise :class:`EntryNotFoundError`; callers treat that
        as a failed step (agent-issued ids may be stale or hallucinated).
        """
        with self._lock:
            if not 1 <= entry_id <= len(self._keys):
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
            return self._keys[entry_id - 1][1], self._outputs[entry_id - 1]

    def context_snapshot(self) -> tuple[list[tuple[int, str]], np.ndarray]:
        """Consistent (keys, key embedding sum) pair for the controller.

        The keys are the (entry_id, summary) pairs in entry order, as
        ``list_keys`` gives them; their ``len`` is the memory size.  The
        sum, of shape (embedding_dim,), adds the admitted embeddings one
        by one in entry order, starting from the first; it is zero for an
        empty bank.  Later admissions leave both unchanged.
        """
        with self._lock:
            return list(self._keys), self._key_sum
