"""No future leak, in process: a case is judged from earlier cases only.

Redrawing every store row and label row at or above a cut, and
flipping the labels of the case just below it, leaves ``infer`` on the
ranks below the cut bit-identical.  Redrawing the test cases' store
rows and labels leaves every trained lane and the training history
bit-identical."""
from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline.corpus import Corpus, LabelCatalog, chronological_split
from caseline.model import (
    TrainConfig,
    infer,
    init_model_params,
    train_with_history,
)
from caseline.retrieval import RetrievalConfig
from caseline.store import EmbeddingStore
from case_factory import make_case

N, DIM, L, N_VAL = 40, 6, 3, 8
IDS = [f"c{i:02d}" for i in range(N)]
CATALOG = LabelCatalog(tuple(f"L{j}" for j in range(L)))
RETR = RetrievalConfig(k=4, alpha=1.0, val_size=N_VAL)


def _unit_rows(rng, n):
    mat = rng.standard_normal((n, DIM))
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def _data(seed=0):
    """A unit-row store matrix and 0/1 label rows, one per rank."""
    rng = np.random.default_rng(seed)
    return _unit_rows(rng, N), rng.integers(0, 2, (N, L)).astype(float)


def _redrawn_from(cut, seed, matrix, labels):
    """Copies of ``matrix`` and ``labels`` whose rows at and above
    ``cut`` are drawn anew."""
    rng = np.random.default_rng(seed)
    matrix, labels = matrix.copy(), labels.copy()
    matrix[cut:] = _unit_rows(rng, N - cut)
    labels[cut:] = rng.integers(0, 2, (N - cut, L))
    return matrix, labels


def _evidence_key(evidence):
    return [[(e.case_id, e.rank, e.score, e.labels.tobytes()) for e in ev]
            for ev in evidence]


@settings(max_examples=25, deadline=None)
@given(cut=st.integers(1, N - 1), seed=st.integers(0, 2 ** 32 - 1))
def test_infer_below_a_cut_ignores_the_rows_from_it_on(cut, seed):
    matrix, labels = _data()
    params = init_model_params(DIM, L, TrainConfig(), (0, N // 2))
    rng = np.random.default_rng(1)
    for arr in params.all_arrays().values():
        arr[...] = rng.standard_normal(arr.shape) * 0.3
    future, future_labels = _redrawn_from(cut, seed, matrix, labels)
    future_labels[cut - 1] = 1.0 - future_labels[cut - 1]  # its own labels
    runs = [infer(params, range(cut), EmbeddingStore(IDS, m), lab, RETR)
            for m, lab in ((matrix, labels), (future, future_labels))]
    (want, want_ev), (got, got_ev) = runs
    for name in ("y_orig", "drift", "y_final", "probabilities", "decisions"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert _evidence_key(got_ev) == _evidence_key(want_ev)


def _train(matrix, labels, n_test):
    """Two lanes, the full model and the plain classifier, trained on
    the corpus and store that ``matrix`` and ``labels`` give."""
    corpus = Corpus([make_case(IDS[i], i, {name for name, bit in zip(
        CATALOG.names, labels[i]) if bit}, f"text {i}") for i in range(N)])
    splits = chronological_split(corpus, N - N_VAL - n_test, N_VAL, n_test)
    base = TrainConfig(max_epochs=3, patience=2, classifier_lr=0.05,
                       other_lr=1e-3, drift_hidden=4, seed=3)
    cfgs = (base, dataclasses.replace(base, retrieval_on=False,
                                      drift_on=False))
    return train_with_history(splits, EmbeddingStore(IDS, matrix), CATALOG,
                              (RETR, RETR), cfgs)


@settings(max_examples=10, deadline=None)
@given(n_test=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_training_ignores_the_test_cases(n_test, seed):
    matrix, labels = _data()
    want, want_history = _train(matrix, labels, n_test)
    got, history = _train(*_redrawn_from(N - n_test, seed, matrix, labels),
                          n_test)
    assert history == want_history
    for lane_got, lane_want in zip(got, want):
        for key, arr in lane_want.all_arrays().items():
            assert lane_got.all_arrays()[key].tobytes() == arr.tobytes(), key
