"""Precedent retrieval: decay arithmetic, brute-force oracle parity,
future masking and tie-breaking."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline.errors import (
    ConfigError,
    NegativeGapError,
    NonFiniteError,
    RankOutOfRangeError,
)
from caseline.retrieval import (
    Evidence,
    RetrievalConfig,
    debug_table,
    decayed_similarity,
    retrieve_precedents,
)
from caseline.store import EmbeddingStore

CFG = RetrievalConfig(k=5, alpha=2.0, val_size=100)


def _random_store(rng, n, d=16):
    mat = rng.standard_normal((n, d))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    ids = [f"s{i:04d}" for i in range(n)]
    return EmbeddingStore(ids, mat)


def _brute_force(query_rank, query_vec, store, labels, cfg):
    """Independent O(n) rescoring: python loop, score formula written
    out verbatim, stable sort by (-score, gap, id)."""
    rows = []
    for rank in range(query_rank):
        cos = float(np.dot(store.matrix[rank], query_vec))
        gap = query_rank - rank
        score = cos / (1.0 + gap / (cfg.alpha * cfg.val_size))
        rows.append((score, gap, store.case_ids[rank], rank))
    rows.sort(key=lambda r: (-r[0], r[1], r[2]))
    return rows[:cfg.k]


class TestConfig:
    def test_defaults(self):
        cfg = RetrievalConfig()
        assert cfg.k == 5 and cfg.alpha == 2.0 and cfg.val_size == 3000

    @pytest.mark.parametrize("kw", [
        dict(k=0), dict(alpha=0.0), dict(alpha=-1.0), dict(val_size=0),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigError):
            RetrievalConfig(**kw)


class TestDecayedSimilarity:
    def test_zero_gap_identity(self):
        assert decayed_similarity(0.8, 0, CFG) == 0.8

    def test_halving_at_alpha_val_size(self):
        gap = CFG.alpha * CFG.val_size
        assert math.isclose(decayed_similarity(0.6, gap, CFG), 0.3,
                            rel_tol=0, abs_tol=1e-15)
        # arrays are scored elementwise: halved at the gap, then a
        # third and a quarter at two and three times it
        cosines = np.array([0.6, -0.9, 0.5])
        gaps = gap * np.array([1.0, 2.0, 3.0])
        got = decayed_similarity(cosines, gaps, CFG)
        assert got.shape == (3,)
        for g, want in zip(got, (0.3, -0.3, 0.125)):
            assert math.isclose(g, want, rel_tol=0, abs_tol=1e-15)

    def test_quartering_at_three_alpha_val_size(self):
        gap = 3 * CFG.alpha * CFG.val_size
        assert math.isclose(decayed_similarity(0.5, gap, CFG), 0.125,
                            rel_tol=0, abs_tol=1e-15)

    def test_negative_gap_rejected(self):
        with pytest.raises(NegativeGapError):
            decayed_similarity(0.5, -1, CFG)
        with pytest.raises(NegativeGapError, match="-1"):
            decayed_similarity(np.full(4, 0.5),
                               np.array([3.0, 2.0, -1.0, 0.0]), CFG)

    def test_magnitude_never_grows(self, rng):
        for _ in range(100):
            c = float(rng.uniform(-1, 1))
            gap = float(rng.uniform(0, 1e6))
            assert abs(decayed_similarity(c, gap, CFG)) <= abs(c) + 1e-15

    def test_monotone_decreasing_in_gap(self):
        scores = [decayed_similarity(0.9, g, CFG) for g in (0, 1, 10, 1000)]
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_monotone_increasing_in_cosine(self):
        scores = [decayed_similarity(c, 50, CFG) for c in (-0.5, 0.0, 0.5, 1.0)]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1, 1), st.floats(0, 1e7, allow_nan=False),
           st.floats(0.01, 100), st.integers(1, 10000))
    def test_halving_property(self, cosine, gap, alpha, val_size):
        cfg = RetrievalConfig(k=1, alpha=alpha, val_size=val_size)
        half = decayed_similarity(cosine, alpha * val_size, cfg)
        assert math.isclose(half, cosine / 2, rel_tol=0, abs_tol=1e-12)


class TestRetrieve:
    def test_rank_zero_empty(self, rng):
        store = _random_store(rng, 10)
        labels = rng.integers(0, 2, size=(10, 3)).astype(float)
        ev = retrieve_precedents(0, store.matrix[0], store, labels, CFG)
        assert len(ev) == 0

    def test_truncated_pool(self, rng):
        store = _random_store(rng, 10)
        labels = rng.integers(0, 2, size=(10, 3)).astype(float)
        ev = retrieve_precedents(3, store.matrix[3], store, labels, CFG)
        assert len(ev) == 3

    def test_future_mask(self, rng):
        store = _random_store(rng, 60)
        labels = rng.integers(0, 2, size=(60, 4)).astype(float)
        for q in (1, 7, 30, 59):
            ev = retrieve_precedents(q, store.matrix[q], store, labels, CFG)
            assert all(e.rank < q for e in ev)

    def test_sorted_by_descending_score(self, rng):
        store = _random_store(rng, 80)
        labels = rng.integers(0, 2, size=(80, 4)).astype(float)
        ev = retrieve_precedents(70, store.matrix[70], store, labels, CFG)
        scores = [e.score for e in ev]
        assert scores == sorted(scores, reverse=True)

    def test_oracle_parity(self, rng):
        store = _random_store(rng, 200)
        labels = rng.integers(0, 2, size=(200, 5)).astype(float)
        for q in rng.integers(1, 200, size=25):
            q = int(q)
            got = retrieve_precedents(q, store.matrix[q], store, labels, CFG)
            want = _brute_force(q, store.matrix[q], store, labels, CFG)
            assert [e.case_id for e in got] == [w[2] for w in want]
            for e, w in zip(got, want):
                assert math.isclose(e.score, w[0], rel_tol=0, abs_tol=1e-12)

    def test_evidence_carries_labels(self, rng):
        store = _random_store(rng, 30)
        labels = rng.integers(0, 2, size=(30, 4)).astype(float)
        ev = retrieve_precedents(20, store.matrix[20], store, labels, CFG)
        for e in ev:
            np.testing.assert_array_equal(e.labels, labels[e.rank])

    def test_tie_break_prefers_recent_then_id(self):
        # all candidates identical to the query -> equal cosine; decay
        # then strictly prefers smaller gaps, no id tie remains
        mat = np.tile(np.array([1.0, 0.0]), (6, 1))
        store = EmbeddingStore([f"t{i}" for i in range(6)], mat)
        labels = np.zeros((6, 2))
        cfg = RetrievalConfig(k=3, alpha=2.0, val_size=10)
        ev = retrieve_precedents(5, mat[5], store, labels, cfg)
        assert [e.rank for e in ev] == [4, 3, 2]

    def test_tie_break_id_when_scores_equal(self):
        # orthogonal candidates -> cosine 0 for every candidate; decayed
        # score is exactly 0 regardless of gap, so the id breaks the tie
        mat = np.zeros((5, 3))
        mat[:4, 1] = 1.0
        mat[4, 0] = 1.0
        store = EmbeddingStore(["d", "c", "b", "a"][::-1] + ["q"], mat)
        labels = np.zeros((5, 2))
        cfg = RetrievalConfig(k=4, alpha=1.0, val_size=1)
        ev = retrieve_precedents(4, mat[4], store, labels, cfg)
        assert all(e.score == 0.0 for e in ev)
        # equal scores and distinct gaps: recency wins before the id
        assert [e.rank for e in ev] == [3, 2, 1, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rank", [0, 5])
    def test_non_finite_query_rejected(self, rng, bad, rank):
        store = _random_store(rng, 10)
        labels = np.zeros((10, 2))
        query = store.matrix[rank].copy()
        query[3] = bad
        with pytest.raises(NonFiniteError, match=f"rank {rank}"):
            retrieve_precedents(rank, query, store, labels, CFG)
        with pytest.raises(NonFiniteError):
            debug_table(rank, query, store, labels, CFG)

    def test_rank_out_of_range(self, rng):
        store = _random_store(rng, 5)
        labels = np.zeros((5, 2))
        with pytest.raises(RankOutOfRangeError):
            retrieve_precedents(6, store.matrix[0], store, labels, CFG)

    def test_candidate_limit_restricts_pool(self, rng):
        store = _random_store(rng, 50)
        labels = rng.integers(0, 2, size=(50, 3)).astype(float)
        ev = retrieve_precedents(40, store.matrix[40], store, labels, CFG,
                                 candidate_limit=10)
        assert all(e.rank < 10 for e in ev)

    def test_degenerate_alpha_matches_pure_cosine(self, rng):
        store = _random_store(rng, 120)
        labels = rng.integers(0, 2, size=(120, 3)).astype(float)
        cfg = RetrievalConfig(k=7, alpha=1e10, val_size=3000)
        for q in (40, 80, 119):
            ev = retrieve_precedents(q, store.matrix[q], store, labels, cfg)
            cosines = store.matrix[:q] @ store.matrix[q]
            want = np.argsort(-cosines, kind="stable")[:7]
            got_ranks = {e.rank for e in ev}
            # same set of winners as pure cosine (ties aside, scores match)
            want_scores = sorted(cosines[want], reverse=True)
            got_scores = sorted((e.score for e in ev), reverse=True)
            np.testing.assert_allclose(got_scores, want_scores, atol=1e-6)
            assert got_ranks == set(int(w) for w in want)


class TestTopKAcrossTies:
    """Partial top-k selection against the plain sort in ``_brute_force``
    on stores where many scores tie exactly at the k-th position."""

    @staticmethod
    def _tied_store(rng, n=60):
        # A few distinct small-integer rows: every dot product is exact,
        # so duplicated rows get bit-equal cosines in any summation
        # order.  Shuffled ids make case_id order differ from rank order.
        base = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                         [0, 0, 1, -1], [-1, 0, 1, 0], [0, 0, 0, 0]],
                        dtype=float)
        matrix = base[rng.integers(0, len(base), size=n)]
        ids = [f"t{p:03d}" for p in rng.permutation(n)]
        return EmbeddingStore(ids, matrix)

    # alpha=2: ties where the cosine is 0.  alpha=1e18: the decay
    # factor rounds to 1.0, so every duplicated row ties.
    @pytest.mark.parametrize("alpha", [2.0, 1e18])
    def test_matches_plain_sort(self, rng, alpha):
        store = self._tied_store(rng)
        labels = rng.integers(0, 2, size=(len(store), 3)).astype(float)
        straddled = 0
        for q in (1, 2, 17, 40, 59):
            query = store.matrix[q]
            full = _brute_force(q, query, store, labels,
                                RetrievalConfig(k=q, alpha=alpha,
                                                val_size=1))
            # plus a k whose k-th score is the first zero score
            first_zero = 1 + sum(w[0] > 0 for w in full)
            for k in sorted({1, 5, q - 1, q, q + 3, first_zero} - {0}):
                cfg = RetrievalConfig(k=k, alpha=alpha, val_size=1)
                want = full[:k]
                got = retrieve_precedents(q, query, store, labels, cfg)
                assert [(e.score, e.case_id, e.rank) for e in got] \
                    == [(w[0], w[2], w[3]) for w in want]
                table = debug_table(q, query, store, labels, cfg, top=k)
                assert [row.split()[0]
                        for row in table.splitlines()[2:]] \
                    == [w[2] for w in want]
                straddled += k < q and full[k - 1][0] == full[k][0]
        assert straddled >= 3, "no tie straddles the k-th position"


class TestEvidenceTypes:
    def test_evidence_is_a_plain_tuple(self, rng):
        store = _random_store(rng, 10)
        labels = rng.integers(0, 2, size=(10, 3)).astype(float)
        for q in (0, 4):
            ev = retrieve_precedents(q, store.matrix[q], store, labels, CFG)
            assert type(ev) is tuple and len(ev) == q
            assert all(type(e) is Evidence for e in ev)


class TestDebugTable:
    def test_masked_future_rows_sentinel(self, rng):
        store = _random_store(rng, 12)
        labels = rng.integers(0, 2, size=(12, 3)).astype(float)
        text = debug_table(6, store.matrix[6], store, labels, CFG,
                           top=3, include_future=2)
        assert "(masked)" in text
        assert "-1.0" in text

    def test_lists_top_candidates(self, rng):
        store = _random_store(rng, 12)
        labels = rng.integers(0, 2, size=(12, 3)).astype(float)
        text = debug_table(6, store.matrix[6], store, labels, CFG, top=3)
        ev = retrieve_precedents(6, store.matrix[6], store, labels,
                                 RetrievalConfig(k=3, alpha=CFG.alpha,
                                                 val_size=CFG.val_size))
        for e in ev:
            assert e.case_id in text
