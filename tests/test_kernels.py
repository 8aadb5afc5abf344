"""Hot kernels: the FNV-1a n-gram hashing reference and the AdamW
update against its formula."""
from __future__ import annotations

import numpy as np

from caseline import kernels

ADAM_KW = dict(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
               weight_decay=0.01, bias_c1=1 - 0.9 ** 3,
               bias_c2=1 - 0.999 ** 3)


def _tokens(rng, n):
    alphabet = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                "golf", "hotel", "india", "juliet"]
    return [alphabet[i] for i in rng.integers(0, len(alphabet), size=n)]


class TestHashNgrams:
    def test_empty(self):
        assert len(kernels.hash_ngrams([], 64)) == 0

    def test_single_token_has_no_bigram(self):
        assert len(kernels.hash_ngrams(["solo"], 64)) == 1

    def test_count_is_unigrams_plus_bigrams(self, rng):
        toks = _tokens(rng, 23)
        assert len(kernels.hash_ngrams(toks, 512)) == 23 + 22

    def test_deterministic(self, rng):
        toks = _tokens(rng, 50)
        np.testing.assert_array_equal(kernels.hash_ngrams(toks, 512),
                                      kernels.hash_ngrams(toks, 512))

    def test_buckets_in_range(self, rng):
        for dim in (8, 64, 4096):
            ids = np.asarray(kernels.hash_ngrams(_tokens(rng, 200), dim))
            assert ids.min() >= 0 and ids.max() < dim

    def test_bigram_ordering_matters(self):
        ab = np.asarray(kernels.hash_ngrams(["aa", "bb"], 1 << 20))
        ba = np.asarray(kernels.hash_ngrams(["bb", "aa"], 1 << 20))
        assert set(ab[:2]) == set(ba[:2])
        assert ab[2] != ba[2]


class TestAdamwStep:
    def test_moves_against_gradient_from_rest(self):
        p = np.zeros(6)
        g = np.array([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
        kernels.adamw_step(p, g, np.zeros(6), np.zeros(6), 0.1, 0.9,
                           0.999, 1e-8, 0.0, 1 - 0.9, 1 - 0.999)
        assert (np.sign(p) == -np.sign(g)).all()

    def test_weight_decay_shrinks_params(self):
        p = np.full(3, 10.0)
        kernels.adamw_step(p, np.zeros(3), np.zeros(3), np.zeros(3),
                           0.1, 0.9, 0.999, 1e-8, 0.5,
                           1 - 0.9, 1 - 0.999)
        assert (p < 10.0).all() and (p > 9.0).all()

    def test_matches_reference_formula(self, rng):
        p = rng.standard_normal(8)
        g = rng.standard_normal(8)
        m = rng.standard_normal(8) * 0.1
        v = np.abs(rng.standard_normal(8)) * 0.01
        p0, m0, v0 = p.copy(), m.copy(), v.copy()
        kernels.adamw_step(p, g, m, v, **ADAM_KW)
        m_ref = 0.9 * m0 + 0.1 * g
        v_ref = 0.999 * v0 + 0.001 * g * g
        step = (m_ref / ADAM_KW["bias_c1"]) \
            / (np.sqrt(v_ref / ADAM_KW["bias_c2"]) + 1e-8)
        p_ref = p0 - 1e-3 * (step + 0.01 * p0)
        np.testing.assert_allclose(m, m_ref, rtol=1e-12)
        np.testing.assert_allclose(v, v_ref, rtol=1e-12)
        np.testing.assert_allclose(p, p_ref, rtol=1e-12)
