"""Feature-hashed bag-of-words text vectorizer.

Lowercases, tokenizes on alphanumeric runs, hashes unigrams and
bigrams into a fixed number of buckets (64-bit FNV-1a mod hash_dim)
and L2-normalizes the bucket counts.  Deterministic for fixed text and
hash_dim on any machine; no vocabulary is stored.

featurize takes one text or a sequence of them and returns one CSR
SparseBatch, a row per text.  It tokenizes and hashes many texts per
vectorized numpy pass (runs of token bytes, then uint64 FNV-1a one
byte position at a time), bit-for-bit equal to tokenize followed by
the per-token reference in tests/fnv_reference.py.  SparseBatch.block()
is the only code that makes hashed features dense, over the union of
the given rows' buckets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyTextError

DEFAULT_HASH_DIM = 1 << 18

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Text bytes hashed per vectorized pass: enough to amortize the
# per-pass numpy calls, few enough that the pass's arrays (about 30
# bytes per text byte) stay near 500 KB.  Hashing a whole 4,800-text
# training split in one pass raised peak RSS by 30 MB.
_PASS_BYTES = 1 << 14

# The bytes a token is made of: tokenize's [a-z0-9] applied to the
# UTF-8 encoding of the lowercased text.  Every byte of a non-ASCII
# character (lone surrogates included, encoded with "surrogatepass")
# is >= 0x80, so runs of these bytes are exactly tokenize's tokens.
_TOKEN_BYTE = np.zeros(256, dtype=bool)
_TOKEN_BYTE[np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789",
                          dtype=np.uint8)] = True

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_SEP = np.uint64(0x1F)


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens in order of appearance."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class SparseBatch:
    """Hashed features of n texts in CSR form.  Row i holds the sorted
    unique bucket indices indices[indptr[i]:indptr[i + 1]] and their
    weights, which have unit L2 norm."""

    indptr: np.ndarray   # int64, (n + 1,), starts at 0
    indices: np.ndarray  # int64, strictly increasing per row, < hash_dim
    weights: np.ndarray  # float64
    hash_dim: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def block(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The sorted union of the given rows' buckets, and the dense
        (len(rows), len(union)) matrix of their weights over it."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        # positions of every entry of the rows, row by row
        at = np.repeat(starts - np.cumsum(counts) + counts, counts) \
            + np.arange(counts.sum())
        buckets = self.indices[at]
        # plain np.unique would import numpy.ma, about 3 MB resident
        union = np.sort(buckets)
        first = np.ones(len(union), dtype=bool)
        first[1:] = union[1:] != union[:-1]
        union = union[first]
        dense = np.zeros((len(rows), len(union)))
        dense[np.repeat(np.arange(len(rows)), counts),
              np.searchsorted(union, buckets)] = self.weights[at]
        return union, dense


def _fnv1a(h: np.ndarray, data: np.ndarray, starts: np.ndarray,
           lengths: np.ndarray) -> np.ndarray:
    """Continue 64-bit FNV-1a states h over the byte strings
    data[starts[i]:starts[i] + lengths[i]], one byte position at a time.

    Strings are visited longest first, so the ones still running at
    byte k are a prefix of that order.
    """
    if not len(h):
        return h.copy()
    order = np.argsort(-lengths, kind="stable")
    h, starts, lengths = h[order], starts[order], lengths[order]
    n_longer = np.searchsorted(-lengths, -np.arange(lengths[0]))
    for k, n in enumerate(n_longer):
        head = h[:n]
        head ^= data[starts[:n] + k]
        head *= _FNV_PRIME
    out = np.empty_like(h)
    out[order] = h
    return out


def _hash_ngrams(texts: Sequence[bytes],
                 hash_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids of every unigram and bigram of the lowercased UTF-8
    texts, as tests/fnv_reference.py computes them for tokenize's
    tokens, and the index of the text each came from.  Raises
    EmptyTextError when a text has no token."""
    # " t0 t1 ... ": a non-token byte before and after every text, so
    # token bounds alternate start, end
    data = np.frombuffer(b" ".join([b"", *texts, b""]), dtype=np.uint8)
    inside = _TOKEN_BYTE[data]
    bounds = np.flatnonzero(inside[1:] != inside[:-1]) + 1
    starts = bounds[0::2]
    lengths = bounds[1::2] - starts
    text_starts = np.cumsum([1] + [len(t) + 1 for t in texts[:-1]])
    owner = np.searchsorted(text_starts, starts, side="right") - 1
    if np.count_nonzero(np.bincount(owner, minlength=len(texts))) \
            < len(texts):
        raise EmptyTextError("no tokens in text")
    heads = _fnv1a(np.full(len(starts), _FNV_OFFSET), data, starts, lengths)
    # a bigram is a token and its successor in the same text
    first = np.flatnonzero(owner[:-1] == owner[1:])
    pairs = _fnv1a((heads[first] ^ _SEP) * _FNV_PRIME, data,
                   starts[first + 1], lengths[first + 1])
    buckets = np.concatenate((heads, pairs)) % np.uint64(hash_dim)
    return buckets.astype(np.int64), np.concatenate((owner, owner[first]))


def featurize(text: str | Sequence[str],
              hash_dim: int = DEFAULT_HASH_DIM) -> SparseBatch:
    """Hash one text, or each text of a sequence, into a batch of
    normalized sparse features, one row per text.

    Texts are tokenized and hashed together in vectorized passes of
    about _PASS_BYTES bytes each.  Raises EmptyTextError when a text
    contains no tokens.
    """
    texts = [text] if isinstance(text, str) else text
    counts, indices, weights = [np.zeros(1, dtype=np.int64)], [], []
    pending: list[bytes] = []
    n_pending = 0
    for one in texts:
        pending.append(one.lower().encode("utf-8", "surrogatepass"))
        n_pending += len(pending[-1])
        if n_pending >= _PASS_BYTES:
            _featurize_pass(pending, hash_dim, counts, indices, weights)
            pending, n_pending = [], 0
    _featurize_pass(pending, hash_dim, counts, indices, weights)
    return SparseBatch(indptr=np.cumsum(np.concatenate(counts)),
                       indices=np.concatenate(indices),
                       weights=np.concatenate(weights), hash_dim=hash_dim)


def _featurize_pass(texts: Sequence[bytes], hash_dim: int,
                    counts: list, indices: list, weights: list) -> None:
    """One pass: hash, count each text's distinct buckets with one sort
    by (text, bucket), and append the pass's CSR parts to the lists."""
    buckets, owner = _hash_ngrams(texts, hash_dim)
    order = np.lexsort((buckets, owner))
    buckets, owner = buckets[order], owner[order]
    new = np.ones(len(buckets), dtype=bool)
    new[1:] = (buckets[1:] != buckets[:-1]) | (owner[1:] != owner[:-1])
    starts = np.flatnonzero(new)
    w = np.diff(np.append(starts, len(buckets))).astype(np.float64)
    bounds = np.searchsorted(owner[starts], np.arange(len(texts) + 1))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        row = w[lo:hi]
        row /= np.linalg.norm(row)
    counts.append(np.diff(bounds))
    indices.append(buckets[starts])
    weights.append(w)


def ngram_strings(text: str) -> list[str]:
    """The exact feature strings featurize hashes, for collision audits."""
    tokens = tokenize(text)
    return tokens + [f"{a}\x1f{b}" for a, b in zip(tokens, tokens[1:])]
