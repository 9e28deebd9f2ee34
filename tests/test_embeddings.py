import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hivemem.embeddings import MAX_INPUT_LENGTH, HashingEmbedder
from hivemem.errors import ValidationError


def reference_embedding(text: str, dim: int) -> np.ndarray:
    """Independent recomputation of the documented hash-bucket scheme."""
    import re

    tokens = re.findall(r"[a-z0-9]+", text[:4096].lower())
    grams = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    if not grams:
        grams = [text[:4096]]
    vec = np.zeros(dim)
    for g in grams:
        h = int.from_bytes(hashlib.blake2b(g.encode(), digest_size=8).digest(), "big")
        vec[(h >> 1) % dim] += 1.0 if h & 1 == 0 else -1.0
    norm = np.linalg.norm(vec)
    if norm == 0:
        h = int.from_bytes(hashlib.blake2b(text[:4096].encode(), digest_size=8).digest(), "big")
        vec[(h >> 1) % dim] = 1.0
        return vec
    return vec / norm


def test_embed_deterministic():
    p = HashingEmbedder(8)
    a = p.embed("abc")
    b = p.embed("abc")
    assert np.array_equal(a, b)


def test_embed_dimension_and_unit_norm():
    p = HashingEmbedder(8)
    v = p.embed("abc")
    assert v.shape == (8,)
    assert np.isclose(np.linalg.norm(v), 1.0)


def test_nearby_texts_differ():
    p = HashingEmbedder(8)
    a, b = p.embed("abc"), p.embed("abd")
    assert not np.array_equal(a, b)
    # oracle: direct recomputation of the documented scheme
    assert np.allclose(a, reference_embedding("abc", 8))
    assert np.allclose(b, reference_embedding("abd", 8))


def test_empty_text_rejected():
    with pytest.raises(ValidationError):
        HashingEmbedder(8).embed("")


@given(st.text(min_size=1, max_size=200))
def test_matches_reference_scheme(text):
    p = HashingEmbedder(16)
    got = p.embed(text)
    assert np.allclose(got, reference_embedding(text, 16))
    assert np.isclose(np.linalg.norm(got), 1.0)


def test_truncation_at_declared_max_length():
    p = HashingEmbedder(16)
    head = "abcde " * 682 + "fghi"  # MAX_INPUT_LENGTH (4096) characters
    assert len(head) == MAX_INPUT_LENGTH
    assert np.array_equal(p.embed(head + "j XYZ"), p.embed(head))
