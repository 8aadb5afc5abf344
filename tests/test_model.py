"""Fusion, drift head, the inference path, composite loss, gradients,
and the supervised training loop."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline.artifacts import save_npz
from caseline.corpus import Corpus, LabelCatalog, chronological_split
from caseline.errors import (
    ConfigError,
    DegenerateRangeError,
    DimensionMismatchError,
    IoFailureError,
    LabelLengthMismatchError,
    NonFiniteError,
)
from caseline.metrics import micro_confusion, micro_f1
from caseline.model import (
    TrainConfig,
    _batch_backward,
    _batch_forward,
    _batch_loss,
    _precompute_inputs,
    _sigmoid,
    drift_input,
    evaluate_split,
    forward,
    fuse_evidence,
    infer,
    init_model_params,
    load_model,
    predict_with_evidence,
    prediction_record,
    save_model,
    train_with_history,
)
from caseline.optim import AdamW
from caseline.retrieval import Evidence, RetrievalConfig, retrieve_precedents
from caseline.store import EmbeddingStore
from case_factory import make_case

RETR = RetrievalConfig(k=5, alpha=2.0, val_size=40)


def _train_one(splits, store, catalog, retr, cfg):
    """One lane: its params and its history as per-epoch values."""
    (params,), history = train_with_history(splits, store, catalog,
                                            (retr,), (cfg,))
    return params, {k: [v for v, in vs] for k, vs in history.items()}


def _random_params(rng, embed_dim, n_labels, cfg=None, rank_range=(0, 9)):
    cfg = cfg or TrainConfig()
    params = init_model_params(embed_dim, n_labels, cfg, rank_range)
    for arr in params.all_arrays().values():
        arr[...] = rng.standard_normal(arr.shape) * 0.3
    return params


class TestFuseEvidence:
    def test_empty_is_zeros(self):
        np.testing.assert_array_equal(fuse_evidence((), 4), np.zeros(4))

    def test_singleton_passes_labels_through(self):
        v = np.array([1.0, 0.0, 1.0])
        out = fuse_evidence((Evidence("a", 0, -0.3, v),), 3)
        np.testing.assert_allclose(out, v, atol=1e-15)

    def test_equal_scores_average(self):
        e1 = Evidence("a", 0, 0.5, np.array([1.0, 0.0]))
        e2 = Evidence("b", 1, 0.5, np.array([0.0, 1.0]))
        np.testing.assert_allclose(fuse_evidence((e1, e2), 2),
                                   [0.5, 0.5], atol=1e-15)

    def test_unit_score_gap_softmax_weights(self):
        e1 = Evidence("a", 0, 1.0, np.array([1.0, 0.0]))
        e2 = Evidence("b", 1, 0.0, np.array([0.0, 1.0]))
        out = fuse_evidence((e1, e2), 2)
        w_hi = math.e / (math.e + 1)
        np.testing.assert_allclose(out, [w_hi, 1 - w_hi], atol=1e-12)

    def test_convex_hull_and_weight_sum(self, rng):
        entries = [Evidence(f"e{i}", i, float(rng.uniform(-1, 1)),
                            rng.integers(0, 2, size=5).astype(float))
                   for i in range(4)]
        out = fuse_evidence(tuple(entries), 5)
        bits = np.stack([e.labels for e in entries])
        assert (out >= bits.min(axis=0) - 1e-12).all()
        assert (out <= bits.max(axis=0) + 1e-12).all()

    def test_shift_invariance(self, rng):
        labels = [rng.integers(0, 2, size=3).astype(float) for _ in range(3)]
        scores = [0.9, 0.1, -0.4]
        a = fuse_evidence(tuple(Evidence(f"e{i}", i, s, l)
                                for i, (s, l) in
                                enumerate(zip(scores, labels))), 3)
        b = fuse_evidence(tuple(Evidence(f"e{i}", i, s + 7.5, l)
                                for i, (s, l) in
                                enumerate(zip(scores, labels))), 3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_label_length_mismatch(self):
        bad = Evidence("a", 0, 0.5, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(LabelLengthMismatchError):
            fuse_evidence((bad,), 2)


class TestDriftInput:
    def test_endpoints(self):
        assert drift_input(10, (10, 20)) == 0.0
        assert drift_input(20, (10, 20)) == 1.0

    def test_extrapolation_beyond_max(self):
        assert drift_input(25, (10, 20)) == 1.5

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRangeError):
            drift_input(5, (7, 7))


def _random_store(rng, n, d, L):
    """Unit-vector store of n cases with random multi-hot labels."""
    mat = rng.standard_normal((n, d))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    store = EmbeddingStore([f"q{i:03d}" for i in range(n)], mat)
    return store, rng.integers(0, 2, size=(n, L)).astype(float)


def _oracle_row(rank, store, labels, params, cfg):
    """Straight-line reference for one query: brute-force top-k over
    the strictly-earlier cases, softmax fusion of their labels, the
    affine drift coordinate, concat -> linear, MLP drift, additive
    correction, logistic probability."""
    q = store.matrix[rank]
    scored = []
    for j in range(rank):
        gap = rank - j
        score = float(np.dot(q, store.matrix[j])) \
            / (1.0 + gap / (cfg.alpha * cfg.val_size))
        scored.append((-score, gap, store.case_ids[j], j, score))
    top = sorted(scored)[:cfg.k]
    e_evid = np.zeros(labels.shape[1])
    if top:
        best = max(s for *_, s in top)
        weights = [math.exp(s - best) for *_, s in top]
        for wgt, (*_, j, _s) in zip(weights, top):
            e_evid += wgt * labels[j]
        e_evid /= sum(weights)
    lo, hi = params.train_rank_range
    x = (rank - lo) / (hi - lo)
    concat = np.concatenate([q, e_evid])
    y_orig = concat @ params.w + params.b
    hidden = np.maximum(x * params.drift_w1[0] + params.drift_b1, 0.0)
    drift = hidden @ params.drift_w2 + params.drift_b2
    y_final = y_orig + drift
    probs = 1.0 / (1.0 + np.exp(-y_final))
    return [case_id for _, _, case_id, _, _ in top], y_orig, drift, probs


class TestForward:
    """The batched forward as ``infer`` runs it, from ranks to
    decisions."""

    def test_zero_params_yield_half_probabilities(self, rng):
        store, labels = _random_store(rng, 8, 4, 3)
        params = init_model_params(4, 3, TrainConfig(), (0, 7))
        for arr in params.all_arrays().values():
            arr[...] = 0.0
        pred, _ = infer(params, range(8), store, labels, RETR)
        np.testing.assert_array_equal(pred.y_orig, np.zeros((8, 3)))
        np.testing.assert_array_equal(pred.drift, np.zeros((8, 3)))
        np.testing.assert_allclose(pred.probabilities, 0.5, atol=1e-15)

    def test_zero_drift_head_is_pure_classifier(self, rng):
        store, labels = _random_store(rng, 8, 4, 3)
        params = _random_params(rng, 4, 3)
        params.drift_w2[...] = 0.0
        params.drift_b2[...] = 0.0
        pred, _ = infer(params, range(8), store, labels, RETR)
        np.testing.assert_array_equal(pred.y_final, pred.y_orig)

    def test_straight_line_oracle(self, rng):
        """Independent re-implementation of retrieval, fusion, the drift
        input, concat -> linear, MLP drift and additive correction."""
        for _ in range(10):
            n = int(rng.integers(3, 14))
            d, L = int(rng.integers(2, 8)), int(rng.integers(2, 5))
            params = _random_params(rng, d, L, rank_range=(0, n - 2))
            store, labels = _random_store(rng, n, d, L)
            retr = RetrievalConfig(k=int(rng.integers(1, 5)),
                                   alpha=float(rng.uniform(0.5, 3.0)),
                                   val_size=int(rng.integers(1, 10)))
            ranks = list(rng.permutation(n)[:int(rng.integers(1, n + 1))])
            pred, evidence = infer(params, ranks, store, labels, retr)
            for i, r in enumerate(ranks):
                ids, y_orig, drift, probs = _oracle_row(
                    r, store, labels, params, retr)
                assert [e.case_id for e in evidence[i]] == ids
                np.testing.assert_allclose(pred.y_orig[i], y_orig,
                                           atol=1e-12)
                np.testing.assert_allclose(pred.drift[i], drift,
                                           atol=1e-12)
                np.testing.assert_allclose(pred.y_final[i],
                                           y_orig + drift, atol=1e-12)
                np.testing.assert_allclose(pred.probabilities[i], probs,
                                           atol=1e-12)
                np.testing.assert_array_equal(
                    pred.decisions[i], (probs >= 0.5).astype(np.uint8))

    def test_retrieval_off_fuses_no_evidence(self, rng):
        store, labels = _random_store(rng, 10, 4, 3)
        params = _random_params(rng, 4, 3)
        params.retrieval_on = False
        pred, evidence = infer(params, range(10), store, labels, RETR)
        assert all(len(ev) == 0 for ev in evidence)
        want = store.matrix @ params.w[:4] + params.b
        np.testing.assert_allclose(pred.y_orig, want, atol=1e-12)

    def test_decision_monotonicity(self, rng):
        store, labels = _random_store(rng, 10, 4, 3)
        params = _random_params(rng, 4, 3)
        before, _ = infer(params, range(10), store, labels, RETR)
        params.b[1] += 5.0
        after, _ = infer(params, range(10), store, labels, RETR)
        assert (after.decisions[:, 1] >= before.decisions[:, 1]).all()
        np.testing.assert_array_equal(np.delete(after.decisions, 1, 1),
                                      np.delete(before.decisions, 1, 1))

    def test_wrong_input_widths_name_both_dims(self, rng):
        params = _random_params(rng, 5, 3)
        with pytest.raises(DimensionMismatchError,
                           match=r"^case embedding dim 4 != 5$"):
            forward(np.zeros(4), np.zeros(3), np.zeros(1), params)
        with pytest.raises(DimensionMismatchError,
                           match=r"^evidence dim 2 != 3$"):
            forward(np.zeros(5), np.zeros(2), np.zeros(1), params)


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  -2.2250738585072009e-308, 745.0, -745.0, 745.2, -745.2,
                  709.8, -709.8, 1e308, -1e308, np.inf, -np.inf]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SIGMOID_EDGES),
                          st.floats(allow_nan=False)),
                min_size=1, max_size=40))
def test_sigmoid_equals_two_branch_form(values):
    """The one-exp sigmoid gives the two-branch form's bits everywhere,
    signed zeros, subnormals, the exp overflow and underflow edges and
    infinities included, and neither overflows nor divides by zero.
    Both underflow to 0 on large |z|, so underflow is not raised."""
    z = np.array(values)
    with np.errstate(over="raise", invalid="raise", divide="raise",
                     under="ignore"):
        want = _two_branch_sigmoid(z)
        got = _sigmoid(z)
        given_e = _sigmoid(z, np.exp(-np.abs(z)))
    assert got.tobytes() == want.tobytes()
    assert given_e.tobytes() == want.tobytes()


class TestLoss:
    @staticmethod
    def _batch(rng, B, L, zero_drift=False):
        y_final = rng.standard_normal((B, L)) * 2.0
        drift = np.zeros((B, L)) if zero_drift \
            else rng.standard_normal((B, L)) * 0.5
        y = rng.integers(0, 2, size=(B, L)).astype(float)
        return y_final, drift, y

    def test_hand_value_ln2(self):
        value, _, _ = _batch_loss(np.zeros((1, 16)), np.zeros((1, 16)),
                                  np.ones((1, 16)), 0.0)
        assert math.isclose(value, math.log(2), rel_tol=0, abs_tol=1e-12)

    def test_lambda_zero_is_pure_bce(self, rng):
        y_final, drift, y = self._batch(rng, 3, 4)
        value, _, _ = _batch_loss(y_final, drift, y, 0.0)
        probs = 1.0 / (1.0 + np.exp(-y_final))
        bce = -(y * np.log(probs) + (1 - y) * np.log(1 - probs)).mean()
        assert math.isclose(value, bce, rel_tol=1e-10)

    def test_zero_drift_scales_bce_only(self, rng):
        y_final, drift, y = self._batch(rng, 3, 4, zero_drift=True)
        v0, _, _ = _batch_loss(y_final, drift, y, 0.0)
        v_half, _, _ = _batch_loss(y_final, drift, y, 0.5)
        assert math.isclose(v_half, 0.5 * v0, rel_tol=1e-12)

    def test_penalty_term(self, rng):
        y_final, drift, y = self._batch(rng, 4, 3)
        lam = 0.25
        v, _, _ = _batch_loss(y_final, drift, y, lam)
        v_bce, _, _ = _batch_loss(y_final, drift, y, 0.0)
        penalty = float((drift ** 2).sum(axis=1).mean())
        assert math.isclose(v, (1 - lam) * v_bce + lam * penalty,
                            rel_tol=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        """d loss / d y_final and d loss / d drift against central
        differences of the loss value; a drift step also moves
        y_final = y_orig + drift."""
        for _ in range(10):
            B, L = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            y_orig, drift, y = self._batch(rng, B, L)
            lam = float(rng.uniform(0, 1))

            def value(yo, dr):
                return _batch_loss(yo + dr, dr, y, lam)[0]

            _, d_y_final, d_drift = _batch_loss(y_orig + drift, drift, y,
                                                lam)
            eps = 1e-6
            for idx in np.ndindex(B, L):
                step = np.zeros((B, L))
                step[idx] = eps
                num = (value(y_orig + step, drift)
                       - value(y_orig - step, drift)) / (2 * eps)
                assert abs(num - d_y_final[idx]) < 1e-5
                num = (value(y_orig, drift + step)
                       - value(y_orig, drift - step)) / (2 * eps)
                assert abs(num - d_y_final[idx] - d_drift[idx]) < 1e-5


class TestParameterGradients:
    def test_all_parameters_match_finite_differences(self, rng):
        """The trainer's analytic gradients, from _batch_loss through
        _batch_backward, checked against central differences of an
        independently written batch objective for every parameter
        tensor.  Batches hold at least two cases so a wrong batch
        normalization shows."""
        for _ in range(5):
            d, L, B = (int(rng.integers(2, 8)), int(rng.integers(2, 5)),
                       int(rng.integers(2, 5)))
            lam = float(rng.uniform(0, 1))
            params = _random_params(rng, d, L)
            e_case = rng.standard_normal((B, d))
            e_ev = rng.random((B, L))
            t = rng.uniform(0, 1.3, size=(B, 1))
            y = rng.integers(0, 2, size=(B, L)).astype(float)

            arrays = params.all_arrays()

            def objective():
                y_orig, drift, y_final, _ = _batch_forward(
                    e_case, e_ev, t, arrays)
                z = y_final
                bce = (np.maximum(z, 0) - z * y
                       + np.log1p(np.exp(-np.abs(z)))).mean(axis=1)
                pen = (drift * drift).sum(axis=1)
                return float(((1 - lam) * bce + lam * pen).mean())

            _, drift, y_final, cache = _batch_forward(
                e_case, e_ev, t, arrays)
            _, d_y_final, d_drift = _batch_loss(y_final, drift, y, lam)
            grads = _batch_backward(d_y_final, d_drift, cache, arrays)
            assert grads.keys() == arrays.keys()
            eps = 1e-5
            for name, arr in arrays.items():
                flat = arr.ravel()
                for probe in range(min(4, flat.size)):
                    j = int(rng.integers(0, flat.size))
                    orig = flat[j]
                    flat[j] = orig + eps
                    lp = objective()
                    flat[j] = orig - eps
                    lm = objective()
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
                   dict(max_epochs=-1), dict(seed=-1)):
            with pytest.raises(ConfigError):
                TrainConfig(**kw)

    def test_zero_epochs_returns_init(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=0, seed=3)
        got, _ = _train_one(splits, store, catalog, RETR, cfg)
        init = init_model_params(store.dim, len(catalog), cfg,
                                 (0, splits.n_train - 1))
        for key, arr in got.all_arrays().items():
            np.testing.assert_array_equal(arr, init.all_arrays()[key])

    def test_separable_corpus_high_train_f1(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(classifier_lr=0.05, dropout=0.0,
                          retrieval_on=False, drift_on=False,
                          max_epochs=20, patience=100, seed=0)
        params, _ = _train_one(splits, store, catalog, RETR, cfg)
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
            _, hist = _train_one(splits, store, catalog, RETR, cfg)
            firsts.append(hist["train_loss"][0])
            lasts.append(hist["train_loss"][-1])
        assert np.mean(lasts) < np.mean(firsts)

    def test_determinism(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=3, seed=9)
        a, _ = _train_one(splits, store, catalog, RETR, cfg)
        b, _ = _train_one(splits, store, catalog, RETR, cfg)
        for key, arr in a.all_arrays().items():
            np.testing.assert_array_equal(arr, b.all_arrays()[key])

    def test_early_stop_semantics(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=30, seed=2, classifier_lr=0.05,
                          dropout=0.0)
        _, hist = _train_one(splits, store, catalog, RETR, cfg)
        f1s = hist["val_f1"]
        if len(f1s) < 30:
            # stopped early: the last `patience` epochs failed to improve
            # on the best seen before them
            best_before = max(f1s[:-2])
            assert f1s[-1] <= best_before and f1s[-2] <= best_before

    def test_drift_off_keeps_head_zero(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=3, seed=1, drift_on=False)
        params, _ = _train_one(splits, store, catalog, RETR, cfg)
        assert not params.drift_w2.any()
        assert not params.drift_b2.any()
        pred, _ = infer(params, splits.test_ranks, store,
                        splits.corpus.label_matrix(catalog).astype(float),
                        RETR)
        np.testing.assert_array_equal(pred.y_final, pred.y_orig)

    def test_drift_off_forces_lambda_zero(self, rng):
        """With the head off, the penalty weight must be irrelevant:
        training with lam 0.0 and lam 0.37 is bit-identical."""
        _, catalog, splits, store = _toy_setup(rng)
        a, _ = _train_one(splits, store, catalog, RETR,
                          TrainConfig(max_epochs=3, seed=4, drift_on=False,
                                      lam=0.0))
        b, _ = _train_one(splits, store, catalog, RETR,
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
        got, _ = _train_one(splits, store, catalog, RETR, cfg)

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

    # both stop early and return an earlier epoch's checkpoint
    @pytest.mark.parametrize(
        "seed,dropout,batch_size,lam,classifier_lr,other_lr", [
            (3, 0.5, 5, 0.40, 0.02, 1e-3),
            (4, 0.2, 8, 0.10, 0.2, 1e-5),
        ])
    def test_full_model_vs_per_array_trainer(self, seed, dropout,
                                             batch_size, lam,
                                             classifier_lr, other_lr):
        """Drift on, retrieval on and dropout > 0 must equal an
        independently written trainer that keeps the six arrays apart:
        per-array AdamW groups, gradients from the formulas, the loss
        as mean-BCE plus the drift penalty, and early stopping on
        validation micro-F1.  The trainer's group buffers and flat
        gradients must not change a bit."""
        _, catalog, splits, store = _toy_setup(np.random.default_rng(seed))
        L = len(catalog)
        cfg = TrainConfig(max_epochs=8, seed=seed, dropout=dropout,
                          batch_size=batch_size, lam=lam,
                          classifier_lr=classifier_lr, other_lr=other_lr,
                          patience=2)
        got, got_history = _train_one(splits, store, catalog, RETR, cfg)

        train_ranks = list(splits.train_ranks)
        val_ranks = list(splits.val_ranks)
        labels_all = splits.corpus.label_matrix(catalog).astype(float)
        rank_range = (train_ranks[0], train_ranks[-1])

        def inputs(ranks):
            ev = np.stack([fuse_evidence(retrieve_precedents(
                r, store.matrix[r], store, labels_all, RETR), L)
                for r in ranks])
            t = np.array([[drift_input(r, rank_range)] for r in ranks])
            return np.hstack([store.matrix[ranks], ev]), t

        x_train, t_train = inputs(train_ranks)
        x_val, t_val = inputs(val_ranks)
        y_train = labels_all[train_ranks]
        y_val = labels_all[val_ranks]
        init = init_model_params(store.dim, L, cfg, rank_range)
        p = {k: v.copy() for k, v in init.all_arrays().items()}
        opt_c = AdamW({k: p[k] for k in ("w", "b")}, lr=cfg.classifier_lr,
                      weight_decay=cfg.weight_decay)
        opt_d = AdamW({k: p[k] for k in ("drift_w1", "drift_b1",
                                         "drift_w2", "drift_b2")},
                      lr=cfg.other_lr, weight_decay=cfg.weight_decay)

        def sigmoid(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        def forward(xd, t):
            z1 = t @ p["drift_w1"] + p["drift_b1"]
            h = np.maximum(z1, 0.0)
            drift = h @ p["drift_w2"] + p["drift_b2"]
            return xd @ p["w"] + p["b"] + drift, drift, z1, h

        order = np.random.default_rng(cfg.seed + 1)
        best = {k: v.copy() for k, v in p.items()}
        best_f1, stale = -1.0, 0
        history = {"train_loss": [], "val_f1": []}
        n = len(train_ranks)
        for epoch in range(cfg.max_epochs):
            perm = order.permutation(n)
            total, batches = 0.0, 0
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                bsz = len(idx)
                keep = np.random.default_rng(
                    (cfg.seed * 1000003 + epoch * 9973 + start) * 131 + 7
                ).random((bsz, x_train.shape[1])) >= cfg.dropout
                xd = x_train[idx] * (keep / (1.0 - cfg.dropout))
                t = t_train[idx]
                y = y_train[idx]
                y_final, drift, z1, h = forward(xd, t)
                bce = (np.maximum(y_final, 0.0) - y_final * y
                       + np.log1p(np.exp(-np.abs(y_final)))).mean(axis=1)
                penalty = (drift * drift).sum(axis=1)
                total += float(((1.0 - lam) * bce + lam * penalty).mean())
                batches += 1
                dz = (1.0 - lam) * (sigmoid(y_final) - y) / (L * bsz)
                dd = dz + 2.0 * lam * drift / bsz
                dh = np.where(z1 <= 0, 0.0, dd @ p["drift_w2"].T)
                opt_c.step({"w": xd.T @ dz, "b": dz.sum(axis=0)})
                opt_d.step({"drift_w1": t.T @ dh, "drift_b1": dh.sum(axis=0),
                            "drift_w2": h.T @ dd, "drift_b2": dd.sum(axis=0)})
            y_final, _, _, _ = forward(x_val, t_val)
            dec = (sigmoid(y_final) >= 0.5).astype(np.uint8)
            f1 = micro_f1(micro_confusion(dec, y_val))
            history["train_loss"].append(total / batches)
            history["val_f1"].append(f1)
            if f1 > best_f1:
                best_f1, stale = f1, 0
                best = {k: v.copy() for k, v in p.items()}
            else:
                stale += 1
                if stale >= cfg.patience:
                    break

        assert got_history == history
        assert len(history["val_f1"]) < cfg.max_epochs
        assert np.argmax(history["val_f1"]) < len(history["val_f1"]) - 1
        assert np.any(best["drift_w2"] != 0.0)
        for key, arr in got.all_arrays().items():
            assert arr.tobytes() == best[key].tobytes(), key


def _lanes_vs_one_lane_runs(splits, store, catalog, retr_cfgs, cfgs):
    """Train the configs as lanes and check every lane bit for bit
    against a one-lane run of it: each parameter array, the flags and
    split sizes, and its history, which reads None after the lane
    stopped.  Returns the lanes' params and the number of epochs each
    lane trained."""
    got, history = train_with_history(splits, store, catalog, retr_cfgs,
                                      cfgs)
    assert len(got) == len(cfgs)
    assert history.keys() == {"train_loss", "val_f1"}
    epochs = []
    for lane, (retr, cfg) in enumerate(zip(retr_cfgs, cfgs)):
        one, one_history = _train_one(splits, store, catalog, retr, cfg)
        for key, arr in one.all_arrays().items():
            assert got[lane].all_arrays()[key].tobytes() == arr.tobytes(), \
                (lane, key)
        assert (got[lane].retrieval_on, got[lane].drift_on,
                got[lane].val_size, got[lane].test_size) \
            == (one.retrieval_on, one.drift_on, one.val_size, one.test_size)
        n = len(one_history["val_f1"])
        for key, values in history.items():
            column = [entry[lane] for entry in values]
            assert column[:n] == one_history[key], (lane, key)
            assert all(v is None for v in column[n:]), (lane, key)
        epochs.append(n)
    assert len(history["val_f1"]) == max(epochs)
    return got, epochs


class TestLanes:
    BASE = TrainConfig(max_epochs=12, seed=1, patience=2, classifier_lr=0.05,
                       other_lr=1e-3, lam=0.3)

    def test_flag_cells_as_lanes_equal_one_lane_runs(self):
        """The four retrieval/drift cells as lanes of one run.  Lanes stop
        early at different epochs, so stopped lanes leave the stack
        while the others keep training."""
        _, catalog, splits, store = _toy_setup(np.random.default_rng(1))
        cfgs = tuple(dataclasses.replace(self.BASE, retrieval_on=r,
                                         drift_on=d)
                     for r, d in ((True, True), (False, True),
                                  (True, False), (False, False)))
        got, epochs = _lanes_vs_one_lane_runs(splits, store, catalog,
                                              (RETR,) * 4, cfgs)
        assert min(epochs) < max(epochs) < self.BASE.max_epochs
        drift = ("drift_w1", "drift_b1", "drift_w2", "drift_b2")
        for lane in (2, 3):
            assert not any(getattr(got[lane], n).any() for n in drift)
        assert any(getattr(got[0], n).any() for n in drift)

    @pytest.mark.parametrize("sweep", [
        {"k": (3, 5, 7)},
        {"alpha": (1.0, 10.0)},
        {"lam": (0.0, 0.05, 0.10, 0.25, 0.5)},
    ])
    def test_sweeps_as_lanes_equal_one_lane_runs(self, sweep):
        (field, values), = sweep.items()
        _, catalog, splits, store = _toy_setup(np.random.default_rng(2))
        if field == "lam":
            retr_cfgs = (RETR,) * len(values)
            cfgs = tuple(dataclasses.replace(self.BASE, seed=2, lam=v)
                         for v in values)
        else:
            retr_cfgs = tuple(dataclasses.replace(RETR, **{field: v})
                              for v in values)
            cfgs = (dataclasses.replace(self.BASE, seed=2),) * len(values)
        _lanes_vs_one_lane_runs(splits, store, catalog, retr_cfgs, cfgs)

    @pytest.mark.parametrize("field,value", [
        ("seed", 1), ("batch_size", 4), ("dropout", 0.5),
        ("classifier_lr", 0.5), ("other_lr", 0.5), ("patience", 5),
        ("max_epochs", 3), ("drift_hidden", 8), ("weight_decay", 0.5),
    ])
    def test_lanes_differing_in_a_shared_train_field_refused(
            self, rng, field, value):
        _, catalog, splits, store = _toy_setup(rng)
        base = TrainConfig(max_epochs=2)
        with pytest.raises(ConfigError, match=rf"TrainConfig\.{field};"):
            train_with_history(splits, store, catalog, (RETR, RETR),
                               (base, dataclasses.replace(
                                   base, **{field: value})))

    def test_lanes_differing_in_retrieval_val_size_refused(self, rng):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=2)
        with pytest.raises(ConfigError, match=r"RetrievalConfig\.val_size"):
            train_with_history(
                splits, store, catalog,
                (RETR, dataclasses.replace(RETR, val_size=7)), (cfg, cfg))

    @pytest.mark.parametrize("n_retr,n_train", [(2, 3), (3, 2), (0, 0)])
    def test_lane_tuples_of_unequal_length_refused(self, rng, n_retr,
                                                   n_train):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=2)
        with pytest.raises(ConfigError, match=f"{n_retr} retrieval configs "
                                              f"for {n_train} train configs"):
            train_with_history(splits, store, catalog, (RETR,) * n_retr,
                               (cfg,) * n_train)


class TestCandidatePolicy:
    def test_training_evidence_is_training_split_only(self, rng):
        """The strictly-earlier mask is the training policy: a training
        query's evidence equals the pool capped at n_train, and the
        trainer fuses exactly that evidence."""
        corpus, catalog, splits, store = _toy_setup(rng)
        labels = corpus.label_matrix(catalog).astype(np.float64)
        n_train = splits.n_train
        ranks = list(splits.train_ranks)
        params = init_model_params(store.dim, len(catalog), TrainConfig(),
                                   (0, n_train - 1))
        _, e_ev, _ = _precompute_inputs(ranks, store, labels, RETR, params)
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
    params, _ = _train_one(splits, store, catalog, RETR, cfg)
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
        corpus, _, splits, store, params, labels = trained
        a, _ = infer(params, splits.test_ranks, store, labels, RETR)
        b, _ = infer(params, splits.test_ranks, store, labels, RETR)
        assert a.probabilities.tobytes() == b.probabilities.tobytes()

    def test_one_row_call_matches_its_infer_row(self, trained):
        corpus, _, _, store, params, labels = trained
        ranks = list(range(len(corpus)))
        batch, evidence = infer(params, ranks, store, labels, RETR)
        for rank in (0, 1, 50, 79, 80, 119):
            pred, ev = predict_with_evidence(corpus.cases[rank], rank,
                                             params, store, labels, RETR)
            for got, want in ((pred.y_orig, batch.y_orig),
                              (pred.drift, batch.drift),
                              (pred.probabilities, batch.probabilities)):
                np.testing.assert_allclose(got, want[rank], rtol=0,
                                           atol=1e-12)
            np.testing.assert_array_equal(pred.decisions,
                                          batch.decisions[rank])
            assert [(e.case_id, e.rank, e.score, e.labels.tobytes())
                    for e in ev] \
                == [(e.case_id, e.rank, e.score, e.labels.tobytes())
                    for e in evidence[rank]]

    def test_one_row_call_is_a_one_row_infer(self, trained):
        """``forward`` decides one case bit for bit as ``infer`` decides
        a one-row batch."""
        corpus, _, _, store, params, labels = trained
        for rank in (0, 50, 119):
            pred, _ = predict_with_evidence(corpus.cases[rank], rank,
                                            params, store, labels, RETR)
            want, _ = infer(params, [rank], store, labels, RETR)
            for name in ("y_orig", "drift", "y_final", "probabilities",
                         "decisions"):
                assert getattr(pred, name).tobytes() \
                    == getattr(want, name)[0].tobytes()

    def test_encoder_path_for_a_case_outside_the_store(self, drift_setup):
        """A case missing from the store is embedded by the encoder and
        scored like the same case inside the store."""
        corpus, catalog = drift_setup["corpus"], drift_setup["catalog"]
        store = drift_setup["store"]
        labels = corpus.label_matrix(catalog).astype(float)
        last = len(corpus) - 1
        head = EmbeddingStore(store.case_ids[:last], store.matrix[:last])
        params = _random_params(np.random.default_rng(3), store.dim,
                                len(catalog), rank_range=(0, 159))
        with pytest.raises(ConfigError):
            predict_with_evidence(corpus[last], last, params, head,
                                  labels[:last], RETR)
        pred, ev = predict_with_evidence(corpus[last], last, params, head,
                                         labels[:last], RETR,
                                         encoder=drift_setup["enc"])
        want, want_ev = infer(params, [last], store, labels, RETR)
        np.testing.assert_allclose(pred.probabilities,
                                   want.probabilities[0], atol=1e-12)
        assert [e.case_id for e in ev] == [e.case_id for e in want_ev[0]]

    def test_non_finite_encoding_is_reported(self, drift_setup):
        """Finite but huge encoder weights overflow to a NaN vector;
        retrieval reports it instead of scoring it."""
        corpus, catalog = drift_setup["corpus"], drift_setup["catalog"]
        store, enc = drift_setup["store"], drift_setup["enc"]
        labels = corpus.label_matrix(catalog).astype(float)
        last = len(corpus) - 1
        head = EmbeddingStore(store.case_ids[:last], store.matrix[:last])
        params = _random_params(np.random.default_rng(3), store.dim,
                                len(catalog), rank_range=(0, 159))
        huge = dataclasses.replace(enc, w1=enc.w1 * 1e300,
                                   w2=enc.w2 * 1e300)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match=f"rank {last}"):
            predict_with_evidence(corpus[last], last, params, head,
                                  labels[:last], RETR, encoder=huge)

    def test_prediction_record_shape(self, trained):
        corpus, catalog, _, store, params, labels = trained
        pred, ev = predict_with_evidence(corpus.cases[30], 30, params,
                                         store, labels, RETR)
        rec = prediction_record(corpus.cases[30].case_id, pred, catalog, ev)
        assert rec["case_id"] == corpus.cases[30].case_id
        for key in ("probabilities", "y_orig", "drift"):
            assert len(rec[key]) == len(catalog)
        np.testing.assert_allclose(
            np.add(rec["y_orig"], rec["drift"]), pred.y_final, atol=0)
        assert all(name in catalog.names for name in rec["decisions"])
        assert all(set(e) == {"case_id", "score"} for e in rec["evidence"])


class TestCheckpoint:
    def test_round_trip(self, rng, tmp_path):
        _, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=2, seed=8)
        params, _ = _train_one(splits, store, catalog, RETR, cfg)
        path = tmp_path / "model.npz"
        save_model(params, path)
        loaded = load_model(path)
        for key, arr in params.all_arrays().items():
            np.testing.assert_array_equal(arr, loaded.all_arrays()[key])
        assert loaded.train_rank_range == params.train_rank_range
        assert (loaded.val_size, loaded.test_size) \
            == (splits.n_val, splits.n_test)
        assert loaded.retrieval_on == params.retrieval_on
        assert loaded.drift_on == params.drift_on

    def test_drift_input_is_one_scalar_in_format_3(self, rng, tmp_path):
        """A second drift input row is damage; a version-1 model (which
        could carry one) and a version-2 model (which records no split
        sizes) are other formats, to be retrained."""
        params = _random_params(rng, 4, 3)
        path = tmp_path / "model.npz"
        save_model(dataclasses.replace(
            params, drift_w1=np.vstack([params.drift_w1] * 2)), path)
        with pytest.raises(IoFailureError, match="'drift_w1' has 2 rows"):
            load_model(path)
        for version in (1, 2):
            save_npz(path, "model", version, params.all_arrays(), {})
            with pytest.raises(ConfigError, match="version 3"):
                load_model(path)

    def test_loaded_model_predicts_identically(self, rng, tmp_path):
        corpus, catalog, splits, store = _toy_setup(rng)
        cfg = TrainConfig(max_epochs=2, seed=8)
        params, _ = _train_one(splits, store, catalog, RETR, cfg)
        labels = corpus.label_matrix(catalog).astype(float)
        path = tmp_path / "model.npz"
        save_model(params, path)
        loaded = load_model(path)
        a, _ = infer(params, splits.test_ranks, store, labels, RETR)
        b, _ = infer(loaded, splits.test_ranks, store, labels, RETR)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
