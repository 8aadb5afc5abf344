"""Feature hashing: tokenization, normalization, determinism, and a
frozen collision audit for the default bucket count."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline.errors import EmptyTextError
from caseline.features import (
    _PASS_BYTES,
    DEFAULT_HASH_DIM,
    featurize,
    ngram_strings,
    tokenize,
)

from fnv_reference import hash_ngrams


def _row(batch, i):
    """Indices and weights of row i of a batch."""
    lo, hi = batch.indptr[i], batch.indptr[i + 1]
    return batch.indices[lo:hi], batch.weights[lo:hi]


def _dense(batch):
    """The (n, hash_dim) matrix of a batch, written row by row from
    its indptr, indices and weights."""
    dense = np.zeros((len(batch), batch.hash_dim))
    for i in range(len(batch)):
        indices, weights = _row(batch, i)
        dense[i, indices] = weights
    return dense


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The COURT held; Art. 5(1)!") == \
            ["the", "court", "held", "art", "5", "1"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("?!... --- ***") == []

    def test_digits_kept(self):
        assert tokenize("article 14 and 2a") == ["article", "14", "and", "2a"]


class TestFeaturize:
    def test_empty_text_raises(self):
        with pytest.raises(EmptyTextError):
            featurize("  ... !!")

    def test_unit_norm(self):
        f = featurize("one two three two one one")
        assert np.isclose(np.linalg.norm(f.weights), 1.0, atol=1e-12)

    def test_indices_sorted_unique_in_range(self):
        f = featurize("a b c d e f g a b", hash_dim=128)
        assert (np.diff(f.indices) > 0).all()
        assert f.indices.min() >= 0 and f.indices.max() < 128

    def test_deterministic(self):
        a = featurize("some legal text about liberty")
        b = featurize("some legal text about liberty")
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_repetition_raises_weight(self):
        dense = _dense(featurize("rare rare common", hash_dim=1 << 16))[0]
        toks = ["rare", "common"]
        buckets = [featurize(t, hash_dim=1 << 16).indices[0] for t in toks]
        assert dense[buckets[0]] > dense[buckets[1]]

    def test_one_text_is_a_one_row_batch(self):
        f = featurize("x y z", hash_dim=64)
        assert len(f) == 1
        assert f.indptr.tolist() == [0, len(f.indices)]

    def test_block_of_all_rows_over_every_bucket_is_dense(self):
        f = featurize(["x y z", "z w", "x x", "v w x"], hash_dim=4)
        union, block = f.block(np.arange(len(f)))
        assert union.tolist() == [0, 1, 2, 3]
        assert block.tobytes() == _dense(f).tobytes()

    def test_block_is_dense_over_the_union(self):
        f = featurize(["x y z", "z w", "x x", "v w x"], hash_dim=64)
        rows = [3, 0, 3, 1]
        union, block = f.block(rows)
        assert (np.diff(union) > 0).all()
        assert set(union.tolist()) == set(np.concatenate(
            [_row(f, i)[0] for i in rows]).tolist())
        dense = _dense(f)
        assert block.tobytes() == dense[rows][:, union].tobytes()
        assert not dense[rows][:, np.setdiff1d(np.arange(64), union)].any()

    @pytest.mark.parametrize("texts", [["x y z", "z w"], []])
    def test_block_of_no_rows_is_empty(self, texts):
        union, block = featurize(texts, hash_dim=64).block(np.arange(0))
        assert union.dtype == np.int64 and union.shape == (0,)
        assert block.shape == (0, 0)

    def test_case_insensitive(self):
        a = featurize("Liberty AND security")
        b = featurize("liberty and SECURITY")
        np.testing.assert_array_equal(a.indices, b.indices)


class TestNgramStrings:
    def test_unigrams_then_bigrams(self):
        assert ngram_strings("a b c") == ["a", "b", "c", "a\x1fb", "b\x1fc"]

    def test_matches_featurize_bucket_count(self):
        text = "the quick brown fox jumps over the lazy dog"
        f = featurize(text, hash_dim=1 << 18)
        # distinct strings can only collapse further through hashing
        assert len(f.indices) <= len(set(ngram_strings(text)))


def _tokens(rng, n):
    alphabet = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                "golf", "hotel", "india", "juliet"]
    return [alphabet[i] for i in rng.integers(0, len(alphabet), size=n)]


class TestHashNgrams:
    """The per-token FNV-1a reference that featurize must match."""

    def test_empty(self):
        assert len(hash_ngrams([], 64)) == 0

    def test_single_token_has_no_bigram(self):
        assert len(hash_ngrams(["solo"], 64)) == 1

    def test_count_is_unigrams_plus_bigrams(self, rng):
        toks = _tokens(rng, 23)
        assert len(hash_ngrams(toks, 512)) == 23 + 22

    def test_deterministic(self, rng):
        toks = _tokens(rng, 50)
        np.testing.assert_array_equal(hash_ngrams(toks, 512),
                                      hash_ngrams(toks, 512))

    def test_buckets_in_range(self, rng):
        for dim in (8, 64, 4096):
            ids = np.asarray(hash_ngrams(_tokens(rng, 200), dim))
            assert ids.min() >= 0 and ids.max() < dim

    def test_bigram_ordering_matters(self):
        ab = np.asarray(hash_ngrams(["aa", "bb"], 1 << 20))
        ba = np.asarray(hash_ngrams(["bb", "aa"], 1 << 20))
        assert set(ab[:2]) == set(ba[:2])
        assert ab[2] != ba[2]


def test_collision_audit_default_dim():
    """Frozen collision audit for the default bucket count.

    200 documents of 30 words over a 100-word vocabulary yield 4,505
    distinct feature strings; hashing them into the default 2^18
    buckets collides exactly 87 of them (1.93%).  That is about twice
    the uniform-hash birthday estimate (~39) because the hash's low
    bits are structured for near-identical strings; the exact count is
    pinned so any change to tokenization, n-gram composition, or the
    hash function shows up here.
    """
    rng = np.random.default_rng(0)
    vocab = [f"word{i:03d}" for i in range(100)]
    strings = set()
    for _ in range(200):
        words = [vocab[j] for j in rng.integers(0, 100, size=30)]
        strings.update(ngram_strings(" ".join(words)))
    buckets = set()
    for s in strings:
        toks = s.split("\x1f")
        ids = np.asarray(hash_ngrams(toks, DEFAULT_HASH_DIM))
        buckets.add(int(ids[-1]))  # last id = the full n-gram's bucket
    assert len(strings) == 4505
    collisions = len(strings) - len(buckets)
    assert collisions == 87
    assert collisions / len(strings) < 0.025


@settings(max_examples=50, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               min_size=0, max_size=200))
def test_featurize_total_property(text):
    """Any printable text either raises EmptyTextError or yields sorted
    unique indices with unit-norm positive weights."""
    try:
        f = featurize(text, hash_dim=512)
    except EmptyTextError:
        assert tokenize(text) == []
        return
    assert (np.diff(f.indices) > 0).all() if len(f.indices) > 1 else True
    assert (f.weights > 0).all()
    assert np.isclose(np.linalg.norm(f.weights), 1.0, atol=1e-9)
    assert f.indices.max() < 512


_TOKEN = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                 min_size=1, max_size=14)


def _reference_features(tokens, hash_dim):
    """Indices and weights from the per-token FNV-1a reference."""
    buckets = hash_ngrams(tokens, hash_dim)
    indices, counts = np.unique(buckets, return_counts=True)
    weights = counts.astype(np.float64)
    weights /= np.linalg.norm(weights)
    return indices, weights


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_TOKEN, min_size=1, max_size=30), min_size=1,
                max_size=6),
       st.sampled_from([1, 7, 512, 1 << 18, (1 << 61) + 5]))
def test_featurize_sequence_matches_reference_hash(token_lists, hash_dim):
    """Hashing a sequence gives the per-token FNV-1a reference's
    buckets, hence bitwise the same indices and weights, and so does
    hashing each text alone."""
    texts = [" ".join(tokens) for tokens in token_lists]
    batch = featurize(texts, hash_dim)
    assert len(batch) == len(texts) and batch.hash_dim == hash_dim
    assert batch.indptr.dtype == batch.indices.dtype == np.int64
    for i, (tokens, text) in enumerate(zip(token_lists, texts)):
        indices, weights = _reference_features(tokens, hash_dim)
        got_indices, got_weights = _row(batch, i)
        assert got_indices.tobytes() == indices.tobytes()
        assert got_weights.tobytes() == weights.tobytes()
        single = featurize(text, hash_dim)
        assert single.indices.tobytes() == indices.tobytes()
        assert single.weights.tobytes() == weights.tobytes()


def test_featurize_sequence_spans_several_passes():
    """A sequence larger than one hashing pass splits at text boundaries
    without changing any text's features."""
    rng = np.random.default_rng(1)
    vocab = [f"w{i}" for i in range(300)]
    texts = [" ".join(vocab[j] for j in rng.integers(0, 300, size=n))
             for n in rng.integers(1, 80, size=3 * _PASS_BYTES // 100)]
    batch = featurize(texts, 1 << 12)
    assert len(batch) == len(texts)
    for i, text in enumerate(texts):
        indices, weights = _reference_features(tokenize(text), 1 << 12)
        got_indices, got_weights = _row(batch, i)
        assert got_indices.tobytes() == indices.tobytes()
        assert got_weights.tobytes() == weights.tobytes()


def _check_against_reference(texts, hash_dim):
    token_lists = [tokenize(text) for text in texts]
    if not all(token_lists):
        with pytest.raises(EmptyTextError):
            featurize(texts, hash_dim)
        return
    batch = featurize(texts, hash_dim)
    for i, (text, tokens) in enumerate(zip(texts, token_lists)):
        indices, weights = _reference_features(tokens, hash_dim)
        for got in (_row(batch, i), _row(featurize(text, hash_dim), 0)):
            assert got[0].tobytes() == indices.tobytes()
            assert got[1].tobytes() == weights.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=80), min_size=1, max_size=5))
def test_featurize_sequence_tokenizes_any_text_like_tokenize(texts):
    """Byte-level tokenizing inside a pass finds tokenize's tokens
    in any text, non-ASCII and case-mapped characters included."""
    _check_against_reference(texts, 1 << 10)


@pytest.mark.parametrize("text", [
    "\u0130stanbul",         # lowercases to "i" plus a combining dot
    "\u212a\u00e9lvin 42",  # Kelvin sign lowercases to ASCII "k"
    "stra\u00dfe \u03a3\u03a3 \u0663\u0664 ok",
    "lone \ud800 surrogate",
    "tab\tand\x00nul\x7fdel",
])
def test_featurize_sequence_tricky_characters(text):
    _check_against_reference([text, "plain words"], 1 << 10)


def test_featurize_sequence_empty_text_raises():
    empty = featurize([], 64)
    assert len(empty) == 0 and empty.hash_dim == 64
    assert empty.indptr.tolist() == [0] and len(empty.indices) == 0
    with pytest.raises(EmptyTextError):
        featurize(["fine words", " ?! "], 64)
