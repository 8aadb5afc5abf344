"""Contrastive encoder: loss hand-values, analytic-vs-numeric
gradients, training behaviour, and checkpoint round-trips."""
from __future__ import annotations

import math

import numpy as np
import pytest

from caseline import kernels
from caseline.encoder import (
    ContrastiveConfig,
    _dropout_mask,
    _forward,
    contrastive_epoch_losses,
    embed_corpus,
    encode,
    info_nce_loss,
    init_encoder_params,
    load_encoder,
    save_encoder,
    train_encoder,
)
from caseline.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NonPositiveTemperatureError,
)
from caseline.features import SparseFeatures, featurize, tokenize
from caseline.synthetic import generate_cluster_corpus

SMALL_CFG = ContrastiveConfig(hash_dim=1024, hidden_dim=16, out_dim=8,
                              epochs=2, learning_rate=1e-4,
                              batch_size=4, seed=11)


class TestInfoNceValues:
    def test_orthonormal_pair_unit_temperature(self):
        views = np.eye(2)
        loss, _, _ = info_nce_loss(views, views, 1.0)
        assert math.isclose(loss, math.log(1 + math.e ** -1),
                            rel_tol=0, abs_tol=1e-12)

    def test_orthonormal_pair_default_temperature(self):
        views = np.eye(2)
        loss, _, _ = info_nce_loss(views, views, 0.05)
        assert math.isclose(loss, math.log(1 + math.exp(-20.0)),
                            rel_tol=0, abs_tol=1e-15)

    def test_single_row_is_zero(self, rng):
        v = rng.standard_normal((1, 6))
        loss, g0, g1 = info_nce_loss(v, v.copy(), 0.05)
        assert loss == 0.0
        np.testing.assert_allclose(g0, 0.0, atol=1e-12)
        np.testing.assert_allclose(g1, 0.0, atol=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(20):
            v0 = rng.standard_normal((5, 7))
            v1 = rng.standard_normal((5, 7))
            loss, _, _ = info_nce_loss(v0, v1, 0.3)
            assert loss >= 0.0

    def test_scale_invariance(self, rng):
        v0 = rng.standard_normal((4, 6))
        v1 = rng.standard_normal((4, 6))
        base, _, _ = info_nce_loss(v0, v1, 0.1)
        scaled, _, _ = info_nce_loss(3.7 * v0, 0.2 * v1, 0.1)
        assert math.isclose(base, scaled, rel_tol=1e-12)

    def test_bad_temperature(self, rng):
        v = rng.standard_normal((2, 3))
        for t in (0.0, -1.0):
            with pytest.raises(NonPositiveTemperatureError):
                info_nce_loss(v, v, t)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            info_nce_loss(rng.standard_normal((2, 3)),
                          rng.standard_normal((3, 3)), 1.0)

    def test_zero_row_rejected(self, rng):
        v = rng.standard_normal((2, 3))
        z = v.copy()
        z[0] = 0.0
        with pytest.raises(DimensionMismatchError):
            info_nce_loss(z, v, 1.0)


class TestInfoNceGradients:
    @staticmethod
    def _fd_check(v0, v1, temperature, rng, n_probes=6):
        loss, g0, g1 = info_nce_loss(v0, v1, temperature)
        eps = 1e-5
        for grad, views, which in ((g0, v0, 0), (g1, v1, 1)):
            for _ in range(n_probes):
                i = rng.integers(0, views.shape[0])
                j = rng.integers(0, views.shape[1])
                vp = views.copy()
                vp[i, j] += eps
                vm = views.copy()
                vm[i, j] -= eps
                args = (vp, v1) if which == 0 else (v0, vp)
                lp, _, _ = info_nce_loss(*args, temperature)
                args = (vm, v1) if which == 0 else (v0, vm)
                lm, _, _ = info_nce_loss(*args, temperature)
                numeric = (lp - lm) / (2 * eps)
                denom = max(abs(numeric), abs(grad[i, j]), 1e-8)
                assert abs(numeric - grad[i, j]) / denom < 1e-4

    def test_random_batches(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(2, 9))
            v0 = rng.standard_normal((n, d))
            v1 = rng.standard_normal((n, d))
            temperature = float(rng.uniform(0.05, 2.0))
            self._fd_check(v0, v1, temperature, rng)


class TestEncode:
    def test_unit_norm_and_dim(self):
        params = init_encoder_params(SMALL_CFG)
        emb = encode(featurize("liberty and security", 1024), params)
        assert emb.shape == (8,)
        assert math.isclose(np.linalg.norm(emb), 1.0, rel_tol=1e-9)

    def test_infer_deterministic(self):
        params = init_encoder_params(SMALL_CFG)
        f = featurize("due process of law", 1024)
        np.testing.assert_array_equal(encode(f, params), encode(f, params))

    def test_dim_mismatch_rejected(self):
        params = init_encoder_params(SMALL_CFG)
        with pytest.raises(DimensionMismatchError):
            encode(featurize("text", 512), params)


@pytest.fixture(scope="module")
def cluster_corpus():
    return generate_cluster_corpus(120, n_clusters=4, seed=5)


class TestTraining:

    def test_zero_epochs_returns_init(self, cluster_corpus):
        corpus, _ = cluster_corpus
        cfg = ContrastiveConfig(hash_dim=1024, hidden_dim=16, out_dim=8,
                                epochs=0, seed=11)
        trained = train_encoder(corpus.cases, cfg)
        init = init_encoder_params(cfg)
        for key, arr in trained.arrays().items():
            np.testing.assert_array_equal(arr, init.arrays()[key])

    def test_deterministic(self, cluster_corpus):
        corpus, _ = cluster_corpus
        a = train_encoder(corpus.cases, SMALL_CFG)
        b = train_encoder(corpus.cases, SMALL_CFG)
        for key, arr in a.arrays().items():
            np.testing.assert_array_equal(arr, b.arrays()[key])

    def test_non_finite_views_name_epoch_and_batch(self, cluster_corpus):
        corpus, _ = cluster_corpus
        cfg = ContrastiveConfig(hash_dim=1024, hidden_dim=16, out_dim=8,
                                epochs=2, learning_rate=1e300,
                                batch_size=4, seed=11)
        with pytest.raises(NonFiniteError,
                           match=r"views at epoch 0 batch 1\b"):
            train_encoder(corpus.cases, cfg)

    def test_loss_not_increasing_over_epochs(self, cluster_corpus):
        """Final-epoch mean loss at or below first-epoch mean loss,
        averaged over 5 seeds."""
        corpus, _ = cluster_corpus
        firsts, lasts = [], []
        for seed in range(5):
            cfg = ContrastiveConfig(hash_dim=1024, hidden_dim=16,
                                    out_dim=8, epochs=3,
                                    learning_rate=1e-3, batch_size=4,
                                    seed=seed)
            losses = contrastive_epoch_losses(corpus.cases, cfg)
            assert len(losses) == 3
            firsts.append(losses[0])
            lasts.append(losses[-1])
        assert np.mean(lasts) <= np.mean(firsts)

    def test_cluster_structure(self, cluster_corpus):
        """After training, same-cluster pairs are closer on average
        than cross-cluster pairs."""
        corpus, assign = cluster_corpus
        cfg = ContrastiveConfig(hash_dim=1024, hidden_dim=128,
                                out_dim=64, epochs=2,
                                learning_rate=1e-4, seed=0)
        params = train_encoder(corpus.cases, cfg)
        mat = embed_corpus(corpus, params).matrix
        sims = mat @ mat.T
        same = assign[:, None] == assign[None, :]
        off_diag = ~np.eye(len(assign), dtype=bool)
        intra = sims[same & off_diag].mean()
        inter = sims[~same].mean()
        assert intra > inter


def _reference_features(text: str, hash_dim: int) -> SparseFeatures:
    buckets = kernels.hash_ngrams(tokenize(text), hash_dim)
    indices, counts = np.unique(buckets, return_counts=True)
    weights = counts.astype(np.float64)
    weights /= np.linalg.norm(weights)
    return SparseFeatures(indices, weights, hash_dim)


def _reference_backward(dz2, cache, params, grads):
    feats, z1, hd, mask = cache
    grads["b2"] += dz2
    grads["w2"] += np.outer(hd, dz2)
    dz1 = np.where(z1 > 0.0, (params.w2 @ dz2) * mask, 0.0)
    grads["b1"] += dz1
    kernels.add_outer(grads["w1"], feats.indices, feats.weights, dz1)


def _dense_reference_train(cases, cfg: ContrastiveConfig):
    """The contrastive loop with a dense hash_dim x hidden w1 gradient
    accumulated by kernels.add_outer and a dense AdamW update of
    every parameter (AdamW defaults: beta 0.9/0.999, eps 1e-8)."""
    feats = [_reference_features(c.text, cfg.hash_dim) for c in cases]
    params = init_encoder_params(cfg)
    arrays = params.arrays()
    m = {k: np.zeros_like(a) for k, a in arrays.items()}
    v = {k: np.zeros_like(a) for k, a in arrays.items()}
    order_rng = np.random.default_rng(cfg.seed + 1)
    t = 0
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(len(feats))
        for start in range(0, len(feats), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            views = ([], [])
            for i in batch:
                base = ((cfg.seed * 1000003 + epoch * 9973 + start) * 131
                        + int(i)) * 2
                for view, out in enumerate(views):
                    out.append(_forward(feats[i], params, _dropout_mask(
                        params.hidden_dim, params.dropout, base + view)))
            _, d0, d1 = info_nce_loss(np.array([z for z, _ in views[0]]),
                                      np.array([z for z, _ in views[1]]),
                                      cfg.temperature)
            grads = {k: np.zeros_like(a) for k, a in arrays.items()}
            for j in range(len(batch)):
                _reference_backward(d0[j], views[0][j][1], params, grads)
                _reference_backward(d1[j], views[1][j][1], params, grads)
            t += 1
            for k, a in arrays.items():
                kernels.adamw_step(
                    a.ravel(), grads[k].ravel(), m[k].ravel(), v[k].ravel(),
                    cfg.learning_rate, 0.9, 0.999, 1e-8, cfg.weight_decay,
                    1.0 - 0.9 ** t, 1.0 - 0.999 ** t)
    return params


class TestDenseReference:
    """Row-sparse training gives the dense trainer's weights bit for bit,
    whether the touched w1 rows stay under half or pass it."""

    @pytest.mark.parametrize("hash_dim, n_docs, crosses", [
        (1 << 14, 24, False),
        (256, 60, True),
    ])
    def test_weights_bitwise_equal(self, cluster_corpus, hash_dim, n_docs,
                                   crosses):
        corpus, _ = cluster_corpus
        cases = corpus.cases[:n_docs]
        cfg = ContrastiveConfig(hash_dim=hash_dim, hidden_dim=16, out_dim=8,
                                epochs=2, learning_rate=1e-3, batch_size=4,
                                dropout=0.2, weight_decay=0.05, seed=3)
        union = np.unique(np.concatenate(
            [_reference_features(c.text, hash_dim).indices for c in cases]))
        assert (2 * len(union) >= hash_dim) == crosses
        got = train_encoder(cases, cfg)
        want = _dense_reference_train(cases, cfg)
        for key, arr in want.arrays().items():
            assert got.arrays()[key].tobytes() == arr.tobytes(), key


class TestEmbedCorpus:
    def test_alignment_and_norms(self, drift_setup):
        store = drift_setup["store"]
        corpus = drift_setup["corpus"]
        assert list(store.case_ids) == [c.case_id for c in corpus.cases]
        norms = np.linalg.norm(store.matrix, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_encoder_params(SMALL_CFG)
        path = tmp_path / "encoder.npz"
        save_encoder(params, path, config_echo={"note": "unit"})
        loaded, meta = load_encoder(path)
        for key, arr in params.arrays().items():
            np.testing.assert_array_equal(arr, loaded.arrays()[key])
        assert loaded.dropout == params.dropout
        assert meta["note"] == "unit"
