"""Contrastive encoder: loss hand-values, analytic-vs-numeric
gradients, training behaviour, and checkpoint round-trips."""
from __future__ import annotations

import math

import numpy as np
import pytest

from caseline.encoder import (
    ContrastiveConfig,
    _backward,
    _dropout_mask,
    _fit,
    _forward,
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
from caseline.features import featurize
from caseline.synthetic import generate_cluster_corpus

from adamw_reference import formula_step

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_view_rejected(self, rng, bad):
        v = rng.standard_normal((2, 3))
        z = v.copy()
        z[1, 2] = bad
        for views in ((z, v), (v, z)):
            with pytest.raises(NonFiniteError, match="non-finite"):
                info_nce_loss(*views, 1.0)


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
        emb = encode(featurize(["liberty and security", "due process"],
                               1024), params)
        assert emb.shape == (2, 8)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0,
                                   rtol=1e-9)

    def test_infer_deterministic(self):
        params = init_encoder_params(SMALL_CFG)
        f = featurize("due process of law", 1024)
        np.testing.assert_array_equal(encode(f, params), encode(f, params))

    def test_empty_batch_encodes_to_no_rows(self):
        params = init_encoder_params(SMALL_CFG)
        assert encode(featurize([], 1024), params).shape == (0, 8)

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
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError,
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
            _, losses = _fit(featurize([c.text for c in corpus.cases],
                                       cfg.hash_dim), cfg)
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


class TestBackwardFiniteDifferences:
    """_backward against central differences of a random linear
    functional of _forward's outputs, with fixed dropout masks."""

    def test_matches_central_differences(self, rng):
        cfg = ContrastiveConfig(hash_dim=32, hidden_dim=5, out_dim=4,
                                dropout=0.3, seed=2)
        params = init_encoder_params(cfg)
        params.b1[:] = rng.uniform(-0.2, 0.2, 5)
        params.b2[:] = rng.uniform(-0.2, 0.2, 4)
        feats = featurize(["alpha bravo charlie alpha", "bravo delta",
                           "echo foxtrot alpha golf"], cfg.hash_dim)
        rows, x = feats.block([2, 0, 1])
        masks = np.stack([np.stack([_dropout_mask(5, 0.3, 2 * j + view)
                                    for j in range(3)])
                          for view in (0, 1)])
        probe = rng.standard_normal((2, 3, 4))

        def objective():
            z2, _ = _forward(x, rows, params, masks)
            return float((probe * z2).sum())

        _, cache = _forward(x, rows, params, masks)
        grads = _backward(probe, cache, params)
        eps = 1e-6
        for name, param, coords in (
                ("w1", params.w1, [(r, h) for r in rows
                                   for h in range(5)]),
                ("b1", params.b1, [(h,) for h in range(5)]),
                ("w2", params.w2, list(np.ndindex(params.w2.shape))),
                ("b2", params.b2, [(o,) for o in range(4)])):
            numeric = np.empty(len(coords))
            for n, at in enumerate(coords):
                keep = param[at]
                param[at] = keep + eps
                up = objective()
                param[at] = keep - eps
                down = objective()
                param[at] = keep
                numeric[n] = (up - down) / (2 * eps)
            analytic = grads[name].reshape(-1)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6,
                                       atol=1e-8, err_msg=name)


def _dense_reference_train(cases, cfg: ContrastiveConfig):
    """The contrastive loop with each batch's w1 block gradient
    scattered into a dense hash_dim x hidden gradient and a dense AdamW
    update of every parameter through the whole-array formula."""
    feats = featurize([c.text for c in cases], cfg.hash_dim)
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
            masks = np.stack([np.stack([_dropout_mask(
                params.hidden_dim, params.dropout,
                ((cfg.seed * 1000003 + epoch * 9973 + start) * 131
                 + int(i)) * 2 + view) for i in batch]) for view in (0, 1)])
            rows, x = feats.block(batch)
            views, cache = _forward(x, rows, params, masks)
            _, d0, d1 = info_nce_loss(views[0], views[1], cfg.temperature)
            grads = _backward(np.stack((d0, d1)), cache, params)
            w1_grad = np.zeros_like(params.w1)
            w1_grad[rows] = grads["w1"]
            grads["w1"] = w1_grad
            t += 1
            for k, a in arrays.items():
                formula_step(a, m[k], v[k], grads[k], t, cfg.learning_rate,
                             cfg.weight_decay)
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
        union, _ = featurize([c.text for c in cases], hash_dim).block(
            np.arange(len(cases)))
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
