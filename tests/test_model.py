"""Fusion, drift head, forward pass, composite loss, gradients, and
the supervised training loop."""
from __future__ import annotations

import math

import numpy as np
import pytest

from caseline.corpus import Corpus, LabelCatalog, chronological_split
from caseline.errors import (
    ConfigError,
    DegenerateRangeError,
    LabelLengthMismatchError,
)
from caseline.metrics import micro_confusion, micro_f1
from caseline.model import (
    TrainConfig,
    _batch_backward,
    _batch_forward,
    _precompute_inputs,
    drift_features,
    drift_input,
    evaluate_split,
    forward,
    fuse_evidence,
    init_model_params,
    load_model,
    loss,
    predict,
    predict_with_evidence,
    prediction_record,
    save_model,
    train,
    train_with_history,
)
from caseline.optim import AdamW
from caseline.retrieval import (
    Evidence,
    EvidenceSet,
    RetrievalConfig,
    retrieve_precedents,
)
from caseline.store import EmbeddingStore
from conftest import make_case

RETR = RetrievalConfig(k=5, alpha=2.0, val_size=40)


def _ev(entries):
    return EvidenceSet("q", tuple(entries))


def _random_params(rng, embed_dim, n_labels, cfg=None, rank_range=(0, 9)):
    cfg = cfg or TrainConfig()
    params = init_model_params(embed_dim, n_labels, cfg, rank_range)
    for arr in params.all_arrays().values():
        arr[...] = rng.standard_normal(arr.shape) * 0.3
    return params


class TestFuseEvidence:
    def test_empty_is_zeros(self):
        np.testing.assert_array_equal(fuse_evidence(_ev([]), 4), np.zeros(4))

    def test_singleton_passes_labels_through(self):
        v = np.array([1.0, 0.0, 1.0])
        out = fuse_evidence(_ev([Evidence("a", 0, -0.3, v)]), 3)
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_equal_scores_average(self):
        e1 = Evidence("a", 0, 0.5, np.array([1.0, 0.0]))
        e2 = Evidence("b", 1, 0.5, np.array([0.0, 1.0]))
        np.testing.assert_allclose(fuse_evidence(_ev([e1, e2]), 2),
                                   [0.5, 0.5], atol=1e-15)

    def test_unit_score_gap_softmax_weights(self):
        e1 = Evidence("a", 0, 1.0, np.array([1.0, 0.0]))
        e2 = Evidence("b", 1, 0.0, np.array([0.0, 1.0]))
        out = fuse_evidence(_ev([e1, e2]), 2)
        w_hi = math.e / (math.e + 1)
        np.testing.assert_allclose(out, [w_hi, 1 - w_hi], atol=1e-12)

    def test_convex_hull_and_weight_sum(self, rng):
        entries = [Evidence(f"e{i}", i, float(rng.uniform(-1, 1)),
                            rng.integers(0, 2, size=5).astype(float))
                   for i in range(4)]
        out = fuse_evidence(_ev(entries), 5)
        bits = np.stack([e.labels for e in entries])
        assert (out >= bits.min(axis=0) - 1e-12).all()
        assert (out <= bits.max(axis=0) + 1e-12).all()

    def test_shift_invariance(self, rng):
        labels = [rng.integers(0, 2, size=3).astype(float) for _ in range(3)]
        scores = [0.9, 0.1, -0.4]
        a = fuse_evidence(_ev([Evidence(f"e{i}", i, s, l)
                               for i, (s, l) in
                               enumerate(zip(scores, labels))]), 3)
        b = fuse_evidence(_ev([Evidence(f"e{i}", i, s + 7.5, l)
                               for i, (s, l) in
                               enumerate(zip(scores, labels))]), 3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_label_length_mismatch(self):
        bad = Evidence("a", 0, 0.5, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(LabelLengthMismatchError):
            fuse_evidence(_ev([bad]), 2)


class TestDriftInput:
    def test_endpoints(self):
        assert drift_input(10, (10, 20)) == 0.0
        assert drift_input(20, (10, 20)) == 1.0

    def test_extrapolation_beyond_max(self):
        assert drift_input(25, (10, 20)) == 1.5

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRangeError):
            drift_input(5, (7, 7))

    def test_features_plain(self):
        np.testing.assert_array_equal(drift_features(0.25, 0), [0.25])

    def test_features_sinusoidal(self):
        x = 0.3
        out = drift_features(x, 2)
        want = [x, math.sin(math.pi * x), math.cos(math.pi * x),
                math.sin(2 * math.pi * x), math.cos(2 * math.pi * x)]
        np.testing.assert_allclose(out, want, atol=1e-15)


class TestForward:
    def test_zero_params_yield_half_probabilities(self):
        params = init_model_params(4, 3, TrainConfig(), (0, 9))
        for arr in params.all_arrays().values():
            arr[...] = 0.0
        pred = forward(np.ones(4), np.zeros(3), np.array([0.5]), params)
        np.testing.assert_array_equal(pred.y_orig, np.zeros(3))
        np.testing.assert_array_equal(pred.drift, np.zeros(3))
        np.testing.assert_allclose(pred.probabilities, 0.5, atol=1e-15)

    def test_zero_drift_head_is_pure_classifier(self, rng):
        params = _random_params(rng, 4, 3)
        params.drift_w2[...] = 0.0
        params.drift_b2[...] = 0.0
        pred = forward(rng.standard_normal(4), rng.random(3),
                       np.array([0.7]), params)
        np.testing.assert_array_equal(pred.y_final, pred.y_orig)

    def test_straight_line_oracle(self, rng):
        """Independent re-implementation of concat -> linear, MLP drift,
        additive correction."""
        for _ in range(10):
            d, L = int(rng.integers(2, 8)), int(rng.integers(2, 5))
            params = _random_params(rng, d, L)
            e_case = rng.standard_normal(d)
            e_evid = rng.random(L)
            x = np.array([float(rng.uniform(0, 1.4))])
            pred = forward(e_case, e_evid, x, params)

            concat = np.concatenate([e_case, e_evid])
            y_orig = concat @ params.w + params.b
            hidden = np.maximum(x @ params.drift_w1 + params.drift_b1, 0.0)
            drift = hidden @ params.drift_w2 + params.drift_b2
            y_final = y_orig + drift
            probs = 1.0 / (1.0 + np.exp(-y_final))

            np.testing.assert_allclose(pred.y_orig, y_orig, atol=1e-12)
            np.testing.assert_allclose(pred.drift, drift, atol=1e-12)
            np.testing.assert_allclose(pred.y_final, y_final, atol=1e-12)
            np.testing.assert_allclose(pred.probabilities, probs, atol=1e-12)
            np.testing.assert_array_equal(
                pred.decisions, (probs >= 0.5).astype(np.uint8))

    def test_decision_monotonicity(self, rng):
        params = _random_params(rng, 4, 3)
        pred = forward(rng.standard_normal(4), rng.random(3),
                       np.array([0.2]), params)
        boosted = pred.y_final.copy()
        boosted[1] += 5.0
        probs = 1.0 / (1.0 + np.exp(-boosted))
        new_dec = (probs >= 0.5).astype(np.uint8)
        assert new_dec[1] >= pred.decisions[1]
        np.testing.assert_array_equal(np.delete(new_dec, 1),
                                      np.delete(pred.decisions, 1))


class TestLoss:
    @staticmethod
    def _pred(rng, L, zero_drift=False):
        params = _random_params(rng, 3, L)
        if zero_drift:
            params.drift_w2[...] = 0.0
            params.drift_b2[...] = 0.0
        return forward(rng.standard_normal(3), rng.random(L),
                       np.array([0.4]), params)

    def test_hand_value_ln2(self):
        params = init_model_params(3, 16, TrainConfig(), (0, 9))
        for arr in params.all_arrays().values():
            arr[...] = 0.0
        pred = forward(np.zeros(3), np.zeros(16), np.array([0.0]), params)
        value, _ = loss(pred, np.ones(16), 0.0)
        assert math.isclose(value, math.log(2), rel_tol=0, abs_tol=1e-12)

    def test_lambda_zero_is_pure_bce(self, rng):
        pred = self._pred(rng, 4)
        y = rng.integers(0, 2, size=4).astype(float)
        value, _ = loss(pred, y, 0.0)
        probs = pred.probabilities
        bce = -(y * np.log(probs) + (1 - y) * np.log(1 - probs)).mean()
        assert math.isclose(value, bce, rel_tol=1e-10)

    def test_zero_drift_scales_bce_only(self, rng):
        pred = self._pred(rng, 4, zero_drift=True)
        y = rng.integers(0, 2, size=4).astype(float)
        v0, _ = loss(pred, y, 0.0)
        v_half, _ = loss(pred, y, 0.5)
        assert math.isclose(v_half, 0.5 * v0, rel_tol=1e-12)

    def test_penalty_term(self, rng):
        pred = self._pred(rng, 3)
        y = rng.integers(0, 2, size=3).astype(float)
        lam = 0.25
        v, _ = loss(pred, y, lam)
        v_bce, _ = loss(pred, y, 0.0)
        penalty = float((pred.drift ** 2).sum())
        assert math.isclose(v, (1 - lam) * v_bce + lam * penalty,
                            rel_tol=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        """d loss / d y_final and d loss / d drift against central
        differences, perturbing via the Prediction fields."""
        from caseline.model import Prediction, _sigmoid
        for _ in range(10):
            L = int(rng.integers(2, 5))
            y = rng.integers(0, 2, size=L).astype(float)
            lam = float(rng.uniform(0, 1))
            y_orig = rng.standard_normal(L)
            drift = rng.standard_normal(L) * 0.5

            def make(yo, dr):
                yf = yo + dr
                p = _sigmoid(yf)
                return Prediction(y_orig=yo, drift=dr, y_final=yf,
                                  probabilities=p,
                                  decisions=(p >= 0.5).astype(np.uint8))

            _, grads = loss(make(y_orig, drift), y, lam)
            eps = 1e-6
            for j in range(L):
                # y_final direction: perturb y_orig (drift fixed)
                yo_p, yo_m = y_orig.copy(), y_orig.copy()
                yo_p[j] += eps
                yo_m[j] -= eps
                lp, _ = loss(make(yo_p, drift), y, lam)
                lm, _ = loss(make(yo_m, drift), y, lam)
                num = (lp - lm) / (2 * eps)
                assert abs(num - grads["y_final"][j]) < 1e-5
                # drift direction: includes the penalty path
                dr_p, dr_m = drift.copy(), drift.copy()
                dr_p[j] += eps
                dr_m[j] -= eps
                lp, _ = loss(make(y_orig, dr_p), y, lam)
                lm, _ = loss(make(y_orig, dr_m), y, lam)
                num = (lp - lm) / (2 * eps)
                total = grads["y_final"][j] + grads["drift"][j]
                assert abs(num - total) < 1e-5


class TestParameterGradients:
    def test_all_parameters_match_finite_differences(self, rng):
        """The batched analytic gradients used by the trainer, checked
        against central differences of the batch objective for every
        parameter tensor."""
        for _ in range(5):
            d, L, B = (int(rng.integers(2, 8)), int(rng.integers(2, 5)),
                       int(rng.integers(1, 5)))
            lam = float(rng.uniform(0, 1))
            params = _random_params(rng, d, L)
            e_case = rng.standard_normal((B, d))
            e_ev = rng.random((B, L))
            t = rng.uniform(0, 1.3, size=(B, 1))
            y = rng.integers(0, 2, size=(B, L)).astype(float)

            def objective(p):
                y_orig, drift, y_final, _ = _batch_forward(
                    e_case, e_ev, t, p)
                z = y_final
                bce = (np.maximum(z, 0) - z * y
                       + np.log1p(np.exp(-np.abs(z)))).mean(axis=1)
                pen = (drift * drift).sum(axis=1)
                return float(((1 - lam) * bce + lam * pen).mean())

            y_orig, drift, y_final, cache = _batch_forward(
                e_case, e_ev, t, params)
            from caseline.model import _sigmoid
            d_y_final = (1 - lam) * (_sigmoid(y_final) - y) / (L * B)
            d_drift = 2 * lam * drift / B
            grads = {k: np.zeros_like(v)
                     for k, v in params.all_arrays().items()}
            _batch_backward(d_y_final, d_drift, cache, params, grads)

            eps = 1e-5
            for name, arr in params.all_arrays().items():
                flat = arr.ravel()
                for probe in range(min(4, flat.size)):
                    j = int(rng.integers(0, flat.size))
                    orig = flat[j]
                    flat[j] = orig + eps
                    lp = objective(params)
                    flat[j] = orig - eps
                    lm = objective(params)
                    flat[j] = orig
                    num = (lp - lm) / (2 * eps)
                    got = grads[name].ravel()[j]
                    denom = max(abs(num), abs(got), 1e-8)
                    assert abs(num - got) / denom < 1e-4, name


def _toy_setup(rng, n=120, d=8, L=3, n_train=80, n_val=20, n_test=20,
               separable=True):
    """Corpus whose embeddings are L label-direction prototypes plus
    noise; labels are a linear threshold of the embedding, so a linear
    classifier can separate them."""
    protos = np.eye(L)
    mat = np.zeros((n, d))
    labels = np.zeros((n, L))
    cases = []
    for i in range(n):
        bits = rng.integers(0, 2, size=L)
        if not bits.any():
            bits[rng.integers(0, L)] = 1
        labels[i] = bits
        vec = np.zeros(d)
        vec[:L] = bits
        vec[L:] = rng.standard_normal(d - L) * (0.05 if separable else 2.0)
        mat[i] = vec / np.linalg.norm(vec)
        cases.append(make_case(f"m{i:03d}", i, {f"L{j}" for j in range(L)
                                                if bits[j]},
                               f"filler text {i}"))
    catalog = LabelCatalog(tuple(f"L{j}" for j in range(L)))
    corpus = Corpus(cases)
    splits = chronological_split(corpus, n_train, n_val, n_test)
    store = EmbeddingStore([c.case_id for c in corpus.cases], mat)
    return corpus, catalog, splits, store


class TestTraining:
    def test_invalid_config(self):
        for kw in (dict(lam=-0.1), dict(lam=1.5), dict(classifier_lr=0.0),
                   dict(other_lr=-1e-5), dict(batch_size=0),
                   dict(dropout=1.0), dict(patience=-1),
                   dict(max_epochs=-1)):
            with pytest.raises(ConfigError):
                TrainConfig(**kw)

    def test_zero_epochs_returns_init(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=0, seed=3)
        got = train(splits, store, catalog, RETR, cfg)
        init = init_model_params(store.dim, len(catalog), cfg,
                                 (0, splits.n_train - 1))
        for key, arr in got.all_arrays().items():
            np.testing.assert_array_equal(arr, init.all_arrays()[key])

    def test_separable_corpus_high_train_f1(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(classifier_lr=0.05, dropout=0.0,
                          retrieval_on=False, drift_on=False,
                          max_epochs=20, patience=100, seed=0)
        params = train(splits, store, catalog, RETR, cfg)
        report = evaluate_split(params, splits, store, catalog, RETR,
                                "train")
        assert report.micro_f1 >= 0.95

    def test_loss_decreases_over_epochs_across_seeds(self, rng):
        firsts, lasts = [], []
        for seed in range(5):
            _, catalog, splits, store = _toy_setup(
                np.random.default_rng(100 + seed))
            cfg = TrainConfig(classifier_lr=0.01, max_epochs=5,
                              patience=100, seed=seed)
            _, hist = train_with_history(splits, store, catalog, RETR,
                                         cfg)
            firsts.append(hist["train_loss"][0])
            lasts.append(hist["train_loss"][-1])
        assert np.mean(lasts) < np.mean(firsts)

    def test_determinism(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=3, seed=9)
        a = train(splits, store, catalog, RETR, cfg)
        b = train(splits, store, catalog, RETR, cfg)
        for key, arr in a.all_arrays().items():
            np.testing.assert_array_equal(arr, b.all_arrays()[key])

    def test_early_stop_semantics(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=30, seed=2, classifier_lr=0.05,
                          dropout=0.0)
        _, hist = train_with_history(splits, store, catalog, RETR, cfg)
        f1s = hist["val_f1"]
        if len(f1s) < 30:
            # stopped early: the last `patience` epochs failed to improve
            # on the best seen before them
            best_before = max(f1s[:-2])
            assert f1s[-1] <= best_before and f1s[-2] <= best_before

    def test_drift_off_keeps_head_zero(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=3, seed=1, drift_on=False)
        params = train(splits, store, catalog, RETR, cfg)
        assert not params.drift_w2.any()
        assert not params.drift_b2.any()
        pred = predict(splits.corpus.cases[-1], len(splits.corpus.cases) - 1,
                       params, store,
                       splits.corpus.label_matrix(catalog).astype(float),
                       RETR)
        np.testing.assert_array_equal(pred.y_final, pred.y_orig)

    def test_drift_off_forces_lambda_zero(self, rng):
        """With the head off, the penalty weight must be irrelevant:
        training with lam 0.0 and lam 0.37 is bit-identical."""
        _, catalog, splits, store = _toy_setup(rng)
        a = train(splits, store, catalog, RETR,
                  TrainConfig(max_epochs=3, seed=4, drift_on=False,
                              lam=0.0))
        b = train(splits, store, catalog, RETR,
                  TrainConfig(max_epochs=3, seed=4, drift_on=False,
                              lam=0.37))
        for key, arr in a.all_arrays().items():
            np.testing.assert_array_equal(arr, b.all_arrays()[key])

    def test_ablation_identity_vs_plain_bce_trainer(self, rng):
        """Drift off + retrieval off + zero dropout must equal an
        independently written plain-BCE logistic trainer driven by the
        same batch order and optimizer settings."""
        _, catalog, splits, store = _toy_setup(rng)
        L = len(catalog)
        cfg = TrainConfig(max_epochs=4, seed=6, drift_on=False,
                          retrieval_on=False, dropout=0.0, patience=100)
        got = train(splits, store, catalog, RETR, cfg)

        # independent trainer
        train_ranks = list(splits.train_ranks)
        val_ranks = list(splits.val_ranks)
        labels_all = splits.corpus.label_matrix(catalog).astype(float)
        x_train = np.hstack([store.matrix[train_ranks],
                             np.zeros((len(train_ranks), L))])
        x_val = np.hstack([store.matrix[val_ranks],
                           np.zeros((len(val_ranks), L))])
        y_train = labels_all[train_ranks]
        y_val = labels_all[val_ranks]
        ref = init_model_params(store.dim, L, cfg,
                                (train_ranks[0], train_ranks[-1]))
        w, b = ref.w, ref.b
        opt = AdamW({"w": w, "b": b}, lr=cfg.classifier_lr,
                    weight_decay=cfg.weight_decay)

        def sigmoid(z):
            # branch on sign so negative logits take the e^z/(1+e^z)
            # form; matching the model's numerics bit-for-bit is the
            # point of this test
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        order = np.random.default_rng(cfg.seed + 1)
        best_w, best_b, best_f1 = w.copy(), b.copy(), -1.0
        n = len(train_ranks)
        for _epoch in range(cfg.max_epochs):
            perm = order.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                z = x_train[idx] @ w + b
                dz = (sigmoid(z) - y_train[idx]) / (L * len(idx))
                opt.step({"w": x_train[idx].T @ dz, "b": dz.sum(axis=0)})
            z = x_val @ w + b
            dec = (sigmoid(z) >= 0.5).astype(np.uint8)
            f1 = micro_f1(micro_confusion(dec, y_val))
            if f1 > best_f1:
                best_f1, best_w, best_b = f1, w.copy(), b.copy()
        np.testing.assert_array_equal(got.w, best_w)
        np.testing.assert_array_equal(got.b, best_b)


class TestCandidatePolicy:
    def test_training_evidence_is_training_split_only(self, rng):
        """The strictly-earlier mask is the training policy: a training
        query's evidence equals the pool capped at n_train, and the
        trainer fuses exactly that evidence."""
        corpus, catalog, splits, store = _toy_setup(rng)
        labels = corpus.label_matrix(catalog).astype(np.float64)
        n_train = splits.n_train
        ranks = list(splits.train_ranks)
        e_ev, _ = _precompute_inputs(ranks, store, labels, RETR, True, 0,
                                     (0, n_train - 1))
        for r in ranks:
            ev = retrieve_precedents(r, store.matrix[r], store, labels,
                                     RETR)
            capped = retrieve_precedents(r, store.matrix[r], store, labels,
                                         RETR, candidate_limit=n_train)
            assert all(e.rank < n_train for e in ev)
            assert [(e.rank, e.case_id, e.score) for e in ev] \
                == [(e.rank, e.case_id, e.score) for e in capped]
            assert e_ev[r].tobytes() \
                == fuse_evidence(capped, len(catalog)).tobytes()


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(77)
    corpus, catalog, splits, store = _toy_setup(rng)
    cfg = TrainConfig(max_epochs=3, seed=5)
    params = train(splits, store, catalog, RETR, cfg)
    labels = corpus.label_matrix(catalog).astype(float)
    return corpus, catalog, splits, store, params, labels


class TestPredict:
    def test_first_case_has_no_evidence(self, trained):
        corpus, _, _, store, params, labels = trained
        pred, ev = predict_with_evidence(corpus.cases[0], 0, params,
                                         store, labels, RETR)
        assert len(ev) == 0
        assert pred.probabilities.shape == labels[0].shape

    def test_deterministic(self, trained):
        corpus, _, _, store, params, labels = trained
        a = predict(corpus.cases[10], 10, params, store, labels, RETR)
        b = predict(corpus.cases[10], 10, params, store, labels, RETR)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_matches_recomposed_pipeline(self, trained):
        from caseline.retrieval import retrieve_precedents
        corpus, _, _, store, params, labels = trained
        rank = 50
        pred = predict(corpus.cases[rank], rank, params, store, labels,
                       RETR)
        ev = retrieve_precedents(rank, store.matrix[rank], store, labels,
                                 RETR)
        e_ev = fuse_evidence(ev, labels.shape[1])
        x = drift_features(drift_input(rank, params.train_rank_range),
                           params.drift_frequencies)
        want = forward(store.matrix[rank], e_ev, x, params)
        np.testing.assert_allclose(pred.probabilities, want.probabilities,
                                   atol=1e-12)

    def test_prediction_record_shape(self, trained):
        corpus, catalog, _, store, params, labels = trained
        pred, ev = predict_with_evidence(corpus.cases[30], 30, params,
                                         store, labels, RETR)
        rec = prediction_record(corpus.cases[30].case_id, pred, catalog, ev)
        assert rec["case_id"] == corpus.cases[30].case_id
        assert len(rec["probabilities"]) == len(catalog)
        assert all(name in catalog.names for name in rec["decisions"])
        assert all(set(e) == {"case_id", "score"} for e in rec["evidence"])


class TestCheckpoint:
    def test_round_trip(self, rng, tmp_path):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=2, seed=8)
        params = train(splits, store, catalog, RETR, cfg)
        path = tmp_path / "model.npz"
        save_model(params, path)
        loaded = load_model(path)
        for key, arr in params.all_arrays().items():
            np.testing.assert_array_equal(arr, loaded.all_arrays()[key])
        assert loaded.train_rank_range == params.train_rank_range
        assert loaded.retrieval_on == params.retrieval_on
        assert loaded.drift_on == params.drift_on

    def test_loaded_model_predicts_identically(self, rng, tmp_path):
        corpus, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=2, seed=8)
        params = train(splits, store, catalog, RETR, cfg)
        labels = corpus.label_matrix(catalog).astype(float)
        path = tmp_path / "model.npz"
        save_model(params, path)
        loaded = load_model(path)
        a = predict(corpus.cases[60], 60, params, store, labels, RETR)
        b = predict(corpus.cases[60], 60, loaded, store, labels, RETR)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
