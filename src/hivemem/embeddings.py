"""Text embedding providers for the admission controller.

The controller never fine-tunes its embedder; providers are frozen,
deterministic functions from text to a fixed-dimension vector.  The
feature-hashing provider below is the one implementation, used by the
CLI, tests and the simulation harness; any object meeting
:class:`EmbeddingProvider` can stand in for it.
"""

from __future__ import annotations

import hashlib
import re
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import ValidationError, require_int

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# Characters of input text that reach the tokenizer; part of the frozen scheme.
MAX_INPUT_LENGTH = 4096


@runtime_checkable
class EmbeddingProvider(Protocol):
    """Frozen text embedder: same text in, same vector out.  ``embed``
    rejects empty text with a ``ValidationError``."""

    dimension: int
    name: str

    def embed(self, text: str) -> np.ndarray: ...


class HashingEmbedder:
    """Deterministic feature-hashing bag-of-token-n-grams embedder.

    Scheme (tests recompute it independently, so it is frozen):

    1. Truncate the input to ``MAX_INPUT_LENGTH`` (4096) characters.
    2. Lowercase and tokenize on ``[a-z0-9]+`` runs.
    3. Form word unigrams and bigrams (bigram = ``tok_i + " " + tok_{i+1}``).
       If tokenization yields nothing, the raw truncated text is the sole gram.
    4. For each gram ``g``: ``h = int.from_bytes(blake2b(g.encode(), digest_size=8), "big")``,
       bucket ``(h >> 1) % dimension``, sign ``+1`` if ``h & 1 == 0`` else ``-1``.
    5. Accumulate signs into buckets, then L2-normalize.  If every gram
       cancelled (possible but rare), fall back to a single +1 at the raw
       text's bucket so the result is always unit-norm.
    """

    def __init__(self, dimension: int = 64):
        self.dimension = dimension = require_int("dimension", dimension, 1)
        self.name = f"hashing-v1:d={dimension}"
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValidationError("cannot embed empty text")
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        clipped = text[:MAX_INPUT_LENGTH]
        tokens = _TOKEN_RE.findall(clipped.lower())
        grams = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
        if not grams:
            grams = [clipped]
        vec = np.zeros(self.dimension, dtype=np.float64)
        for gram in grams:
            h = int.from_bytes(
                hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big"
            )
            bucket = (h >> 1) % self.dimension
            vec[bucket] += 1.0 if h & 1 == 0 else -1.0
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            h = int.from_bytes(
                hashlib.blake2b(clipped.encode("utf-8"), digest_size=8).digest(), "big"
            )
            vec[(h >> 1) % self.dimension] = 1.0
        else:
            vec /= norm
        vec.setflags(write=False)
        if len(self._cache) < 200_000:
            self._cache[text] = vec
        return vec
