"""The per-token 64-bit FNV-1a n-gram hashing that defines caseline's
features, written one byte at a time for clarity, not speed.
``caseline.features.featurize`` hashes many texts per vectorized pass
and must match these bucket ids bit for bit."""
from __future__ import annotations

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEP = b"\x1f"


def _fnv_update(h: int, data: bytes) -> int:
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def hash_ngrams(tokens: list[str], hash_dim: int) -> np.ndarray:
    """Bucket ids for all unigrams then all bigrams of a token sequence.

    Each feature string is hashed with 64-bit FNV-1a over its UTF-8
    bytes (bigrams as first token, 0x1f separator, second token) and
    reduced mod hash_dim.  Returns int64 bucket ids, one per feature
    occurrence, duplicates included.
    """
    enc = [t.encode("utf-8") for t in tokens]
    n = len(enc)
    out = np.empty(n + (n - 1 if n > 1 else 0), dtype=np.int64)
    heads = []
    for i, tb in enumerate(enc):
        h = _fnv_update(_FNV_OFFSET, tb)
        heads.append(h)
        out[i] = h % hash_dim
    for i in range(n - 1):
        h = _fnv_update(_fnv_update(heads[i], _SEP), enc[i + 1])
        out[n + i] = h % hash_dim
    return out
