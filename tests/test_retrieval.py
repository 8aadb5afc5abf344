"""Precedent retrieval: decay arithmetic, brute-force oracle parity,
future masking, tie-breaking, and the early-stopping window scan
against one product over the whole pool (``retrieval_reference``)."""
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
    _scored_pool,
    debug_table,
    decayed_similarity,
    retrieve_precedents,
)
from caseline.store import EmbeddingStore
from retrieval_reference import reference_pool, reference_top

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


# Row kinds of the scan's oracle stores.  "ints" rows hold small
# integers, so every dot product is exact and duplicated rows tie.
_ROW_KINDS = ("unit", "scaled", "zero", "ints", "duplicate")


@st.composite
def _scan_case(draw):
    """A store of at most 8,000 elements, small enough that OpenBLAS
    never splits a product across threads, a query and a retrieval
    setting."""
    n = draw(st.integers(0, 3)) if draw(st.integers(0, 3)) == 3 \
        else draw(st.integers(60, 300))
    d = draw(st.sampled_from([1, 3, 8, 16, 26]))
    n = min(n, 8000 // d)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=1,
                          max_size=3))
    matrix = rng.standard_normal((n, d))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    kind = rng.integers(0, len(kinds), size=n)
    for j, name in enumerate(kinds):
        rows = np.flatnonzero(kind == j)
        if name == "scaled":
            matrix[rows] *= rng.uniform(0.05, 20.0, size=(len(rows), 1))
        elif name == "zero":
            matrix[rows] = 0.0
        elif name == "ints":
            matrix[rows] = rng.integers(-2, 3, size=(len(rows), d))
        elif name == "duplicate" and n:
            matrix[rows] = matrix[rng.integers(0, n)]
    store = EmbeddingStore([f"w{i:03d}" for i in range(n)], matrix)
    rank = n - draw(st.integers(0, n))  # most pools span several windows
    query = draw(st.sampled_from(["row", "negated", "random"]))
    if query == "random" or n == 0:
        q = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
    else:
        q = store.matrix[min(rank, n - 1)] * (-1.0 if query == "negated"
                                                else 1.0)
    k = draw(st.integers(1, 8))
    if draw(st.integers(0, 3)) == 3:  # k at or above the pool size
        k += rank
    cfg = RetrievalConfig(
        k=k, alpha=draw(st.sampled_from([0.01, 0.5, 2.0, 1e18])),
        val_size=draw(st.sampled_from([1, 10, 300, 3000])))
    limit = None if draw(st.booleans()) \
        else rank - draw(st.integers(0, rank))
    return store, rank, q, cfg, limit


class TestWindowScan:
    """The scan returns what one product over the whole pool and one
    full sort return, bit for bit, and it stops early when it can."""

    @settings(max_examples=300, deadline=None)
    @given(_scan_case())
    def test_matches_one_product_over_the_pool(self, case):
        store, rank, q, cfg, limit = case
        labels = (np.arange(len(store) * 2).reshape(-1, 2) % 3 == 0) * 1.0
        want = reference_top(rank, q, store, cfg, cfg.k, limit)
        got = retrieve_precedents(rank, q, store, labels, cfg, limit)
        assert [(e.rank, e.case_id) for e in got] \
            == [(r, store.case_ids[r]) for r, *_ in want]
        assert np.array([e.score for e in got]).tobytes() \
            == np.array([w[3] for w in want]).tobytes()
        for e in got:
            assert e.labels.tobytes() == labels[e.rank].tobytes()
        if limit is None:
            lines = debug_table(rank, q, store, labels, cfg,
                                top=cfg.k).splitlines()[2:]
            assert lines == [
                f"{store.case_ids[r]:<24}{cos:>10.4f}{int(gap):>8}"
                f"{score:>10.4f}  "
                + "".join(str(int(b)) for b in labels[r])
                for r, cos, gap, score in want]

    @pytest.mark.parametrize("alpha,val_size", [(2.0, 10), (2.0, 3000)])
    def test_scores_are_the_decay_law(self, rng, alpha, val_size):
        store = _random_store(rng, 300, d=8)
        cfg = RetrievalConfig(k=5, alpha=alpha, val_size=val_size)
        for q in (299, 200, 130, 64, 2):
            pool_end, lo, cos, gaps, scores, _ = _scored_pool(
                q, store.matrix[q], store, cfg, None, cfg.k)
            assert gaps.tolist() == list(range(pool_end - lo, 0, -1))
            assert scores.tobytes() \
                == decayed_similarity(cos, gaps, cfg).tobytes()
            want_cos, _, want = reference_pool(q, store.matrix[q], store,
                                               cfg)
            assert cos.tobytes() == want_cos[lo:].tobytes()
            assert scores.tobytes() == want[lo:].tobytes()

    def test_strong_decay_stops_early(self, rng):
        store = _random_store(rng, 1000, d=8)
        cfg = RetrievalConfig(k=5, alpha=1.0, val_size=10)
        for q in (999, 700, 400):
            pool_end, lo, *_ = _scored_pool(q, store.matrix[q], store, cfg,
                                            None, cfg.k)
            assert 0 < pool_end - lo <= pool_end // 2, (q, lo)

    def test_rows_whose_squares_underflow(self, rng):
        """Squares of rows near 1e-170 underflow to 0, and so does the
        store's largest norm; the scan then reads the whole pool rather
        than trust it."""
        store = _random_store(rng, 200, d=8)
        tiny = EmbeddingStore(store.case_ids, store.matrix * 1e-170)
        assert tiny.max_norm == 0.0
        cfg = RetrievalConfig(k=10, alpha=1.0, val_size=200)
        labels = np.zeros((200, 2))
        for q in (199, 150, 90):
            query = store.matrix[q] * 1e150
            got = retrieve_precedents(q, query, tiny, labels, cfg)
            want = reference_top(q, query, tiny, cfg, cfg.k)
            assert [(e.rank, e.score) for e in got] \
                == [(r, s) for r, _, _, s in want]

    def test_newest_window_is_never_one_row(self, rng):
        """At a pool one row past a multiple of 64 and a tiny
        ``alpha * val_size``, a one-row window would score its row
        through another product path, with other bits."""
        store = _random_store(rng, 200, d=8)
        cfg = RetrievalConfig(k=1, alpha=0.01, val_size=1)
        labels = np.zeros((200, 2))
        for q in (65, 129, 193):
            for _ in range(5):
                query = store.matrix[q - 1] + 0.3 * rng.standard_normal(8)
                got = retrieve_precedents(q, query, store, labels, cfg)
                want = reference_top(q, query, store, cfg, cfg.k)
                assert [(e.rank, e.score) for e in got] \
                    == [(r, s) for r, _, _, s in want]

    def test_bound_reaches_an_older_near_tie(self):
        """Rank 63 is the query itself at the largest norm; rank 64,
        the newest of its window, scores 0.5e-6 below it.  The bound at
        rank 63, with its 1e-6 margin, must not stop the scan there."""
        cfg = RetrievalConfig(k=1, alpha=1.0, val_size=100)
        at64, at63 = (decayed_similarity(1.0, g, cfg) for g in (64, 65))
        c = (1 - 0.5e-6) * at63 / at64
        matrix = np.zeros((129, 3))
        matrix[:, 2] = 1.0
        matrix[63] = matrix[128] = [1.0, 0.0, 0.0]
        matrix[64] = [c, math.sqrt(1 - c * c), 0.0]
        store = EmbeddingStore([f"t{i}" for i in range(129)], matrix)
        ev = retrieve_precedents(128, matrix[128], store,
                                 np.zeros((129, 1)), cfg)
        assert [e.rank for e in ev] == [63]

    def test_negative_candidate_limit_rejected(self, rng):
        store = _random_store(rng, 20)
        labels = np.zeros((20, 2))
        with pytest.raises(RankOutOfRangeError, match="candidate_limit -3"):
            retrieve_precedents(10, store.matrix[10], store, labels, CFG,
                                candidate_limit=-3)
