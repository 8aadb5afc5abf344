"""No future leak, in process: a case is judged from earlier cases only.

Redrawing every store row and label row at or above a cut, and
flipping the labels of the case just below it, leaves ``infer`` on the
ranks below the cut bit-identical.  Redrawing the test cases' store
rows and labels leaves every trained lane and the training history
bit-identical.

No future leak, through the command line: a second pipeline run, whose
corpus rewrites the labels of one case and the text and labels of
every later case, writes the same encoder and model and the same
predictions up to and including that case."""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
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


# --------------------------------------------------------------------
# The command-line pipeline, run twice in fresh processes.

CLI_N, CLI_VAL, CLI_TEST = 300, 40, 40
CLI_SETS = [
    "--set", f"split.val_size={CLI_VAL}",
    "--set", f"split.test_size={CLI_TEST}",
    "--set", "encoder.hash_dim=1024",
    "--set", "encoder.hidden_dim=32",
    "--set", "encoder.out_dim=32",
    "--set", "encoder.epochs=1",
    "--set", "train.max_epochs=5",
]
STAGES = ("ingest", "train-encoder", "embed", "index", "train", "predict")


def _cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "caseline.cli", *argv, *CLI_SETS],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def generated(tmp_path_factory) -> Path:
    """One generated corpus and its label file."""
    d = tmp_path_factory.mktemp("leak_cli")
    _cli("gen-drift", "--output", str(d / "raw.jsonl"),
         "--labels-output", str(d / "labels.txt"),
         "--n", str(CLI_N), "--vocab-size", "600")
    return d


def _rewrite(generated: Path, cut: int, out: Path) -> Path:
    """The generated corpus with the labels of rank ``cut`` and the
    text and labels of every later rank rewritten, ids and dates
    kept."""
    cases = [json.loads(line)
             for line in (generated / "raw.jsonl").read_text().splitlines()]
    dates = [case["date"] for case in cases]
    assert dates == sorted(set(dates))  # file order is rank order
    names = (generated / "labels.txt").read_text().split()
    words = sorted({w for case in cases for w in case["text"].split()})
    rng = np.random.default_rng(cut)
    for case in cases[cut:]:
        case["articles"] = [n for n in names
                            if n not in case["articles"]] or names[:1]
    for case in cases[cut + 1:]:
        case["text"] = " ".join(
            rng.choice(words, len(case["text"].split())))
    out.mkdir()
    raw = out / "raw.jsonl"
    raw.write_text("".join(json.dumps(case) + "\n" for case in cases))
    return raw


def _pipeline(generated: Path, raw: Path, d: Path, stages) -> None:
    """Run ``stages`` of the pipeline on ``raw``, writing into ``d``."""
    d.mkdir(exist_ok=True)
    labels = ["--labels-file", str(generated / "labels.txt")]
    corpus = ["--corpus", str(d / "cases.jsonl")]
    argv = {
        "ingest": ["--input", str(raw), "--output", str(d / "cases.jsonl"),
                   *labels],
        "train-encoder": [*corpus, "--output", str(d / "encoder.npz"),
                          *labels],
        "embed": [*corpus, "--encoder", str(d / "encoder.npz"),
                  "--output", str(d / "embeddings.npz"), *labels],
        "index": [*corpus, "--embeddings", str(d / "embeddings.npz"),
                  "--output", str(d / "index.npz"), *labels],
        "train": [*corpus, "--index", str(d / "index.npz"),
                  "--output", str(d / "model.npz")],
        "predict": [*corpus, "--index", str(d / "index.npz"),
                    "--model", str(d / "model.npz"),
                    "--output", str(d / "predictions.jsonl"),
                    "--split", "test"],
    }
    for stage in stages:
        _cli(stage, *argv[stage])


@pytest.fixture(scope="module")
def original(generated) -> Path:
    """The pipeline through predict on the generated corpus."""
    _pipeline(generated, generated / "raw.jsonl", generated / "a", STAGES)
    return generated / "a"


def test_cli_rewrite_from_a_test_case_keeps_what_precedes_it(
        generated, original, tmp_path):
    first_test = CLI_N - CLI_TEST
    cut = first_test + 12
    b = tmp_path / "b"
    _pipeline(generated, _rewrite(generated, cut, b), b, STAGES)
    for name in ("encoder.npz", "model.npz"):
        assert (b / name).read_bytes() == (original / name).read_bytes(), name
    want = (original / "predictions.jsonl").read_text().splitlines()
    got = (b / "predictions.jsonl").read_text().splitlines()
    kept = 1 + cut - first_test + 1  # the meta line, then rank order
    assert json.loads(got[kept - 1])["case_id"] == f"D{cut:05d}"
    assert got[:kept] == want[:kept]
    assert got[kept:] != want[kept:]  # the rewrite reached the pipeline


def test_cli_rewrite_from_a_validation_case_keeps_the_encoder(
        generated, original, tmp_path):
    cut = CLI_N - CLI_TEST - CLI_VAL + 5
    b = tmp_path / "b"
    _pipeline(generated, _rewrite(generated, cut, b), b,
              ("ingest", "train-encoder", "embed"))
    assert (b / "encoder.npz").read_bytes() \
        == (original / "encoder.npz").read_bytes()
    assert (b / "embeddings.npz").read_bytes() \
        != (original / "embeddings.npz").read_bytes()
