"""Acceptance criteria for the pipeline, one test per criterion.

Each test prints a single ``[C<n>] PASS/FAIL`` line with the measured
quantities (run with ``-s`` to see them on a green run) and then
asserts.  Tolerances and runtime budgets are pinned here as constants.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from caseline.ablation import (
    AblationSpec,
    drift_gap_experiment,
    run_ablation,
    synthetic_experiment,
)
from caseline.encoder import ContrastiveConfig, embed_corpus, \
    info_nce_loss, train_encoder
from caseline.metrics import (
    ConfusionCounts,
    micro_confusion,
    micro_f1,
    micro_jaccard,
    micro_pr_auc,
    micro_roc_auc,
)
from caseline.model import TrainConfig, _batch_backward, _batch_forward, \
    init_model_params
from caseline.retrieval import (
    RetrievalConfig,
    decayed_similarity,
    retrieve_precedents,
)
from caseline.store import EmbeddingStore
from caseline.synthetic import DriftCorpusConfig, generate_cluster_corpus

GRAD_RTOL = 1e-4          # criterion 2
GRAD_BUDGET_S = 30.0
RETRIEVAL_ATOL = 1e-12    # criterion 3
RETRIEVAL_BUDGET_S = 10.0
HALVING_ATOL = 1e-12      # criterion 4
METRIC_ATOL = 1e-10       # criterion 5
METRIC_BUDGET_S = 30.0
DRIFT_GAP_MIN = 0.05      # criterion 6
DRIFT_GAP_FLAT_MAX = 0.02
DRIFT_BUDGET_S = 300.0
ABLATION_SINGLE_MARGIN = 0.01   # criterion 7
ABLATION_DOUBLE_MARGIN = 0.02
ABLATION_BUDGET_S = 900.0
CLUSTER_PRECISION_MIN = 0.8     # criterion 8
CLUSTER_BUDGET_S = 120.0
PIPELINE_RUN_BUDGET_S = 60.0    # criterion 9 (per full run)


def _emit(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------
# C1: published large-corpus results are declared out of scope.

def test_c1_scope_statement_present():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    lowered = readme.lower()
    ok = ("not reproducible" in lowered
          and "scope and limitations" in lowered
          and "synthetic" in lowered)
    _emit("C1", ok,
          "README states that published large-corpus benchmark scores "
          "are not reproducible here (corpus and pretrained encoder "
          "unavailable) and that synthetic-corpus property tests stand "
          "in for them")
    assert ok


# --------------------------------------------------------------------
# C2: analytic gradients of both training objectives match central
# finite differences.

def _fd_infonce_check(v0, v1, tau) -> float:
    """Gradient-norm relative error of the analytic contrastive-loss
    gradients against Richardson-extrapolated central differences
    (O(h^4) truncation, so the sharp small-temperature surface stays
    within oracle accuracy)."""
    _, g0, g1 = info_nce_loss(v0, v1, tau)
    h = 1e-4
    worst = 0.0
    for views, grad in ((v0, g0), (v1, g1)):
        flat = views.ravel()
        numeric = np.empty_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            diffs = []
            for step in (h, h / 2):
                flat[j] = orig + step
                lp, _, _ = info_nce_loss(v0, v1, tau)
                flat[j] = orig - step
                lm, _, _ = info_nce_loss(v0, v1, tau)
                diffs.append((lp - lm) / (2 * step))
            flat[j] = orig
            numeric[j] = (4 * diffs[1] - diffs[0]) / 3
        err = np.linalg.norm(numeric - grad.ravel())
        scale = max(np.linalg.norm(numeric),
                    np.linalg.norm(grad.ravel()), 1e-12)
        worst = max(worst, err / scale)
    return worst


def _fd_infonce_instance(rng) -> float:
    n = int(rng.integers(2, 6))
    d = int(rng.integers(2, 8))
    tau = float(rng.uniform(0.2, 2.0))
    v0 = rng.standard_normal((n, d))
    v1 = rng.standard_normal((n, d))
    return _fd_infonce_check(v0, v1, tau)


def _fd_infonce_sharp_instance(rng) -> float:
    """Default-temperature (0.05) instance, rejection-sampled so the
    softmax is not fully saturated: where every gradient entry is
    exponentially small, any double-precision difference quotient is
    pure cancellation noise and certifies nothing, so the oracle keeps
    only instances whose gradient is informative."""
    tau = 0.05
    for _ in range(200):
        n = int(rng.integers(3, 6))
        d = int(rng.integers(4, 8))
        v0 = rng.standard_normal((n, d))
        v1 = rng.standard_normal((n, d))
        _, g0, _ = info_nce_loss(v0, v1, tau)
        if np.abs(g0).max() >= 1e-2:
            return _fd_infonce_check(v0, v1, tau)
    raise AssertionError("no informative sharp instance found")


def _fd_composite_instance(rng) -> float:
    d = int(rng.integers(2, 7))
    n_labels = int(rng.integers(2, 5))
    bsz = int(rng.integers(1, 5))
    lam = float(rng.uniform(0.0, 1.0))
    params = init_model_params(d, n_labels, TrainConfig(), (0, 9))
    for arr in params.all_arrays().values():
        arr[...] = rng.standard_normal(arr.shape) * 0.3
    e_case = rng.standard_normal((bsz, d))
    e_ev = rng.random((bsz, n_labels))
    t = rng.uniform(0.0, 1.3, size=(bsz, 1))
    y = rng.integers(0, 2, size=(bsz, n_labels)).astype(np.float64)

    arrays = params.all_arrays()

    def objective() -> float:
        y_orig, drift, y_final, _ = _batch_forward(e_case, e_ev, t,
                                                   arrays)
        bce = (np.maximum(y_final, 0) - y_final * y
               + np.log1p(np.exp(-np.abs(y_final)))).mean(axis=1)
        pen = (drift * drift).sum(axis=1)
        return float(((1 - lam) * bce + lam * pen).mean())

    y_orig, drift, y_final, cache = _batch_forward(e_case, e_ev, t,
                                                   arrays)
    sig = np.where(y_final >= 0, 1.0 / (1.0 + np.exp(-np.abs(y_final))),
                   np.exp(-np.abs(y_final))
                   / (1.0 + np.exp(-np.abs(y_final))))
    d_y_final = (1 - lam) * (sig - y) / (n_labels * bsz)
    d_drift = 2 * lam * drift / bsz
    grads = _batch_backward(d_y_final, d_drift, cache, arrays)

    worst = 0.0
    eps = 1e-5
    for name, arr in arrays.items():
        flat = arr.ravel()
        probes = rng.choice(flat.size, size=min(4, flat.size),
                            replace=False)
        for j in probes:
            orig = flat[j]
            flat[j] = orig + eps
            lp = objective()
            flat[j] = orig - eps
            lm = objective()
            flat[j] = orig
            num = (lp - lm) / (2 * eps)
            got = grads[name].ravel()[j]
            denom = max(abs(num), abs(got), 1e-8)
            worst = max(worst, abs(num - got) / denom)
    return worst


def test_c2_gradient_oracle():
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    worst_con = 0.0
    worst_comp = 0.0
    n_instances = 0
    for _ in range(40):
        worst_con = max(worst_con, _fd_infonce_instance(rng))
        n_instances += 1
    for _ in range(20):
        worst_con = max(worst_con, _fd_infonce_sharp_instance(rng))
        n_instances += 1
    for _ in range(60):
        worst_comp = max(worst_comp, _fd_composite_instance(rng))
        n_instances += 1
    elapsed = time.perf_counter() - start
    ok = (worst_con < GRAD_RTOL and worst_comp < GRAD_RTOL
          and n_instances >= 100 and elapsed < GRAD_BUDGET_S)
    _emit("C2", ok,
          f"{n_instances} central finite-difference instances: "
          f"contrastive loss max gradient-norm relative error "
          f"{worst_con:.2e}, composite loss max per-entry relative "
          f"error {worst_comp:.2e} (both < {GRAD_RTOL}); "
          f"{elapsed:.1f}s (< {GRAD_BUDGET_S:.0f}s)")
    assert ok


# --------------------------------------------------------------------
# C3: retrieval equals a brute-force scan and never surfaces the
# future.

def _brute_force(query_rank, query_vec, store, labels, cfg):
    scored = []
    for rank in range(min(query_rank, len(store.case_ids))):
        cand = store.matrix[rank]
        cos = float(query_vec @ cand)
        gap = query_rank - rank
        score = cos / (1.0 + gap / (cfg.alpha * cfg.val_size))
        scored.append((-score, gap, store.case_ids[rank], rank))
    scored.sort()
    return [(cid, rank, -neg) for neg, gap, cid, rank in scored[:cfg.k]]


def test_c3_retrieval_oracle():
    rng = np.random.default_rng(30)
    n = 1000
    mat = rng.standard_normal((n, 32))
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    store = EmbeddingStore([f"R{i:04d}" for i in range(n)], mat)
    labels = rng.integers(0, 2, size=(n, 8)).astype(np.float64)
    cfg = RetrievalConfig(k=5, alpha=2.0, val_size=150)

    start = time.perf_counter()
    queries = sorted(rng.choice(np.arange(1, n), size=200,
                                replace=False))
    worst = 0.0
    mask_violations = 0
    mismatches = 0
    for q in queries:
        got = retrieve_precedents(int(q), mat[q], store, labels, cfg)
        want = _brute_force(int(q), mat[q], store, labels, cfg)
        if [e.case_id for e in got] != [cid for cid, _, _ in want]:
            mismatches += 1
            continue
        for ev, (_, _, score) in zip(got, want):
            worst = max(worst, abs(ev.score - score))
            if ev.rank >= q:
                mask_violations += 1
    elapsed = time.perf_counter() - start
    ok = (mismatches == 0 and worst < RETRIEVAL_ATOL
          and mask_violations == 0 and elapsed < RETRIEVAL_BUDGET_S)
    _emit("C3", ok,
          f"200 queries over a 1000-case store: {mismatches} id "
          f"mismatches, max |score delta| {worst:.2e} "
          f"(< {RETRIEVAL_ATOL}), {mask_violations} future-mask "
          f"violations, {elapsed:.1f}s (< {RETRIEVAL_BUDGET_S:.0f}s)")
    assert ok


# --------------------------------------------------------------------
# C4: a rank gap of alpha * val_size halves the cosine, exactly.

def test_c4_decay_halving():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(1000):
        c = float(rng.uniform(-1.0, 1.0))
        alpha = float(rng.uniform(0.1, 100.0))
        val_size = int(rng.integers(1, 10_000))
        cfg = RetrievalConfig(k=5, alpha=alpha, val_size=val_size)
        got = decayed_similarity(c, alpha * val_size, cfg)
        worst = max(worst, abs(got - c / 2.0))
    ok = worst < HALVING_ATOL
    _emit("C4", ok,
          f"1000 random (cosine, alpha, val_size) triples: max "
          f"|decayed - cosine/2| = {worst:.2e} (< {HALVING_ATOL})")
    assert ok


# --------------------------------------------------------------------
# C5: ranking metrics match quadratic reference implementations and
# the thresholded metrics match hand-tallied grids.

def _pairwise_roc(scores, truth):
    pos = [s for s, t in zip(scores, truth) if t]
    neg = [s for s, t in zip(scores, truth) if not t]
    wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
               for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def _sweep_pr(scores, truth):
    n_pos = sum(truth)
    ap, prev_recall = 0.0, 0.0
    for tau in sorted(set(scores), reverse=True):
        kept = [t for s, t in zip(scores, truth) if s >= tau]
        tp = sum(kept)
        ap += (tp / n_pos - prev_recall) * (tp / len(kept))
        prev_recall = tp / n_pos
    return ap


def test_c5_metric_oracles():
    rng = np.random.default_rng(50)
    start = time.perf_counter()
    worst_roc = worst_pr = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 50))
        if i % 2:
            scores = list(np.round(rng.random(n), 1))  # heavy ties
        else:
            scores = list(rng.random(n))
        truth = list(rng.integers(0, 2, size=n))
        if sum(truth) == 0:
            truth[0] = 1
        if sum(truth) == n:
            truth[-1] = 0
        worst_roc = max(worst_roc, abs(
            micro_roc_auc(scores, truth) - _pairwise_roc(scores, truth)))
        worst_pr = max(worst_pr, abs(
            micro_pr_auc(scores, truth) - _sweep_pr(scores, truth)))

    grid_ok = True
    hand_grids = [
        # (decisions, truth, expected counts, f1, jaccard)
        ([[1, 1, 0, 0], [0, 1, 1, 0]], [[1, 0, 1, 0], [0, 1, 0, 0]],
         ConfusionCounts(2, 2, 1, 3), 4 / 7, 2 / 5),
        ([[1, 0, 1]], [[1, 0, 0]],
         ConfusionCounts(1, 1, 0, 1), 2 / 3, 1 / 2),
        ([[0, 0]], [[0, 0]], ConfusionCounts(0, 0, 0, 2), 0.0, 0.0),
    ]
    for decisions, truth, want, f1, jac in hand_grids:
        counts = micro_confusion(decisions, truth)
        grid_ok &= counts == want
        grid_ok &= math.isclose(micro_f1(counts), f1, abs_tol=1e-15)
        grid_ok &= math.isclose(micro_jaccard(counts), jac,
                                abs_tol=1e-15)
    elapsed = time.perf_counter() - start
    ok = (worst_roc < METRIC_ATOL and worst_pr < METRIC_ATOL
          and grid_ok and elapsed < METRIC_BUDGET_S)
    _emit("C5", ok,
          f"1000 random instances: max ROC-AUC delta vs pair counting "
          f"{worst_roc:.2e}, max PR-AUC delta vs threshold sweep "
          f"{worst_pr:.2e} (both < {METRIC_ATOL}); hand confusion "
          f"grids {'match' if grid_ok else 'MISMATCH'}; "
          f"{elapsed:.1f}s (< {METRIC_BUDGET_S:.0f}s)")
    assert ok


# --------------------------------------------------------------------
# C6: concept drift manifests as a chronological-vs-random split gap
# for a time-blind classifier, and vanishes when rotation is off.

def test_c6_drift_manifestation():
    start = time.perf_counter()
    drifting = drift_gap_experiment(
        DriftCorpusConfig(n_cases=2000, rotation_rate=1.5, seed=0),
        n_seeds=5)
    stationary = drift_gap_experiment(
        DriftCorpusConfig(n_cases=2000, rotation_rate=0.0, seed=0),
        n_seeds=5)
    elapsed = time.perf_counter() - start
    ok = (drifting["gap"] >= DRIFT_GAP_MIN
          and stationary["gap"] < DRIFT_GAP_FLAT_MAX
          and elapsed < DRIFT_BUDGET_S)
    _emit("C6", ok,
          f"rotation on: chronological {drifting['chronological_mean']:.4f} "
          f"vs random {drifting['random_mean']:.4f}, gap "
          f"{drifting['gap'] * 100:.1f}pt (>= {DRIFT_GAP_MIN * 100:.0f}pt); "
          f"rotation off: gap {stationary['gap'] * 100:.1f}pt "
          f"(< {DRIFT_GAP_FLAT_MAX * 100:.0f}pt); 5 seeds each, "
          f"{elapsed:.0f}s (< {DRIFT_BUDGET_S:.0f}s)")
    assert ok


# --------------------------------------------------------------------
# C7: the full pipeline beats each single ablation and the double
# ablation on the drifting corpus.

def test_c7_ablation_directions():
    start = time.perf_counter()
    setup = synthetic_experiment(n_cases=2000, rotation_rate=1.5,
                                 seed=0)
    result = run_ablation(AblationSpec.flag_matrix(), setup.splits,
                          setup.catalog, [0, 1, 2, 3, 4],
                          setup.enc_cfg, setup.retr_cfg,
                          setup.train_cfg)
    elapsed = time.perf_counter() - start
    full = result.mean_f1("full")
    no_retr = result.mean_f1("no-retrieval")
    no_drift = result.mean_f1("no-drift")
    plain = result.mean_f1("plain")
    ok = (full - no_retr >= ABLATION_SINGLE_MARGIN
          and full - no_drift >= ABLATION_SINGLE_MARGIN
          and full - plain >= ABLATION_DOUBLE_MARGIN
          and elapsed < ABLATION_BUDGET_S)
    _emit("C7", ok,
          f"mean test micro-F1 over 5 seeds: full {full:.4f}, "
          f"no-retrieval {no_retr:.4f} (margin "
          f"{(full - no_retr) * 100:.1f}pt), no-drift {no_drift:.4f} "
          f"(margin {(full - no_drift) * 100:.1f}pt), plain "
          f"{plain:.4f} (margin {(full - plain) * 100:.1f}pt); "
          f"need >= {ABLATION_SINGLE_MARGIN * 100:.0f}/"
          f"{ABLATION_SINGLE_MARGIN * 100:.0f}/"
          f"{ABLATION_DOUBLE_MARGIN * 100:.0f}pt; {elapsed:.0f}s "
          f"(< {ABLATION_BUDGET_S:.0f}s)")
    assert ok


# --------------------------------------------------------------------
# C8: the contrastive encoder clusters topically, measured as
# same-cluster retrieval precision@5.

def test_c8_contrastive_sanity():
    start = time.perf_counter()
    per_seed = []
    for seed in (0, 1, 2):
        corpus, assignments = generate_cluster_corpus(400, seed=seed)
        cfg = ContrastiveConfig(hash_dim=4096, hidden_dim=1024,
                                out_dim=512, epochs=3,
                                learning_rate=1e-4, seed=seed)
        enc = train_encoder(corpus.cases, cfg)
        store = embed_corpus(corpus, enc)
        sims = store.matrix @ store.matrix.T
        np.fill_diagonal(sims, -np.inf)
        top5 = np.argpartition(-sims, 5, axis=1)[:, :5]
        hits = (assignments[top5] == assignments[:, None]).mean()
        per_seed.append(float(hits))
    mean_precision = sum(per_seed) / len(per_seed)
    elapsed = time.perf_counter() - start
    ok = (mean_precision >= CLUSTER_PRECISION_MIN
          and elapsed < CLUSTER_BUDGET_S)
    _emit("C8", ok,
          f"same-cluster precision@5 per seed "
          f"{[f'{p:.3f}' for p in per_seed]}, mean "
          f"{mean_precision:.3f} (>= {CLUSTER_PRECISION_MIN}); "
          f"{elapsed:.0f}s (< {CLUSTER_BUDGET_S:.0f}s)")
    assert ok


# --------------------------------------------------------------------
# C9: the whole pipeline is deterministic - two independent runs give
# byte-identical metric reports.

_SETS = [
    "--set", "split.val_size=40",
    "--set", "split.test_size=40",
    "--set", "encoder.hash_dim=1024",
    "--set", "encoder.hidden_dim=32",
    "--set", "encoder.out_dim=32",
    "--set", "encoder.epochs=1",
    "--set", "train.max_epochs=5",
]


def _full_pipeline_run(d: Path) -> tuple[bytes, float]:
    d.mkdir(parents=True, exist_ok=True)

    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "caseline.cli", *argv],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc

    start = time.perf_counter()
    cli("gen-drift", "--output", str(d / "corpus.jsonl"),
        "--labels-output", str(d / "labels.txt"),
        "--n", "300", "--vocab-size", "600", *_SETS)
    cli("ingest", "--input", str(d / "corpus.jsonl"),
        "--output", str(d / "cases.jsonl"),
        "--labels-file", str(d / "labels.txt"), *_SETS)
    cli("train-encoder", "--corpus", str(d / "cases.jsonl"),
        "--output", str(d / "encoder.npz"),
        "--labels-file", str(d / "labels.txt"), *_SETS)
    cli("embed", "--corpus", str(d / "cases.jsonl"),
        "--encoder", str(d / "encoder.npz"),
        "--output", str(d / "embeddings.npz"),
        "--labels-file", str(d / "labels.txt"), *_SETS)
    cli("index", "--corpus", str(d / "cases.jsonl"),
        "--embeddings", str(d / "embeddings.npz"),
        "--output", str(d / "index.npz"),
        "--labels-file", str(d / "labels.txt"), *_SETS)
    cli("train", "--corpus", str(d / "cases.jsonl"),
        "--index", str(d / "index.npz"),
        "--output", str(d / "model.npz"), *_SETS)
    cli("evaluate", "--corpus", str(d / "cases.jsonl"),
        "--index", str(d / "index.npz"),
        "--model", str(d / "model.npz"),
        "--output", str(d / "report.json"), "--split", "test", *_SETS)
    elapsed = time.perf_counter() - start
    return (d / "report.json").read_bytes(), elapsed


def test_c9_determinism(tmp_path):
    report_a, time_a = _full_pipeline_run(tmp_path / "run_a")
    report_b, time_b = _full_pipeline_run(tmp_path / "run_b")
    identical = report_a == report_b
    f1 = json.loads(report_a)["report"]["micro_f1"]
    ok = (identical and time_a < PIPELINE_RUN_BUDGET_S
          and time_b < PIPELINE_RUN_BUDGET_S)
    _emit("C9", ok,
          f"two independent 300-case pipeline runs (separate "
          f"processes, separate directories): reports "
          f"{'byte-identical' if identical else 'DIFFER'} "
          f"(micro-F1 {f1:.4f}); {time_a:.0f}s and {time_b:.0f}s "
          f"per run (< {PIPELINE_RUN_BUDGET_S:.0f}s)")
    assert ok
