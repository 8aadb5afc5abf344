"""Experiment harness: ablations, sweeps, and the drift-gap check.

Three layers:

* a deliberately plain bag-of-words logistic classifier used as the
  drift-sensing instrument (its chronological-vs-random split gap is
  the corpus-level evidence of concept drift);
* ``run_ablation``, which trains the full pipeline per (cell, seed)
  over a matrix of on/off flags or hyperparameter grid cells and
  collects per-seed metric reports plus mean/std summaries;
* canned experiment setups on the synthetic drift corpus.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import canonical_json
from .corpus import LabelCatalog, SplitCorpus, chronological_split
from .encoder import ContrastiveConfig, train_encoder, embed_corpus
from .errors import ConfigError
from .features import featurize
from .metrics import (
    MetricsReport,
    format_report_table,
    micro_confusion,
    micro_f1,
)
from .model import TrainConfig, _sigmoid, evaluate_split, train
from .optim import AdamW
from .retrieval import RetrievalConfig
from .synthetic import DriftCorpusConfig, generate_drift_corpus, \
    synthetic_catalog

log = logging.getLogger(__name__)

__all__ = [
    "AblationCell",
    "AblationSpec",
    "AblationResult",
    "run_ablation",
    "train_plain_classifier",
    "plain_probabilities",
    "drift_gap_experiment",
    "synthetic_experiment",
    "SyntheticExperimentSetup",
]


@dataclass(frozen=True)
class AblationCell:
    """One configuration under test: flag overrides and optional
    hyperparameter overrides on top of the base configs."""

    name: str
    retrieval_on: bool = True
    drift_on: bool = True
    k: int | None = None
    alpha: float | None = None
    lam: float | None = None


K_GRID: tuple[int, ...] = (3, 5, 7)
ALPHA_GRID: tuple[float, ...] = (1.0, 2.0, 10.0, 1e10)
LAM_GRID: tuple[float, ...] = (0.0, 0.05, 0.10, 0.25, 0.5)


@dataclass(frozen=True)
class AblationSpec:
    """The experiment matrix: the cells to run."""

    cells: tuple[AblationCell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigError("AblationSpec needs at least one cell")

    @classmethod
    def flag_matrix(cls) -> "AblationSpec":
        """The four on/off combinations of retrieval and drift."""
        return cls(cells=(
            AblationCell("full"),
            AblationCell("no-retrieval", retrieval_on=False),
            AblationCell("no-drift", drift_on=False),
            AblationCell("plain", retrieval_on=False, drift_on=False),
        ))

    @classmethod
    def k_sweep(cls, grid: tuple[int, ...] = K_GRID) -> "AblationSpec":
        return cls(cells=tuple(
            AblationCell(f"k={k}", k=k) for k in grid))

    @classmethod
    def alpha_sweep(cls, grid: tuple[float, ...] = ALPHA_GRID
                    ) -> "AblationSpec":
        return cls(cells=tuple(
            AblationCell(f"alpha={a:g}", alpha=a) for a in grid))

    @classmethod
    def lam_sweep(cls, grid: tuple[float, ...] = LAM_GRID
                  ) -> "AblationSpec":
        return cls(cells=tuple(
            AblationCell(f"lambda={v:g}", lam=v) for v in grid))


@dataclass(frozen=True)
class AblationResult:
    """Per-(cell, seed) reports, retained so every summary statistic
    can be recomputed from the rows."""

    rows: tuple[tuple[str, int, MetricsReport], ...]

    def cell_names(self) -> list[str]:
        seen: list[str] = []
        for name, _, _ in self.rows:
            if name not in seen:
                seen.append(name)
        return seen

    def reports_for(self, cell: str) -> list[MetricsReport]:
        return [r for name, _, r in self.rows if name == cell]

    def mean_f1(self, cell: str) -> float:
        reports = self.reports_for(cell)
        return sum(r.micro_f1 for r in reports) / len(reports)

    def summary(self) -> list[dict]:
        out = []
        for cell in self.cell_names():
            reports = self.reports_for(cell)
            entry: dict = {"cell": cell, "runs": len(reports)}
            for attr in ("micro_f1", "micro_jaccard", "micro_pr_auc",
                         "micro_roc_auc"):
                vals = [getattr(r, attr) for r in reports]
                if any(v is None for v in vals):
                    entry[f"{attr}_mean"] = None
                    entry[f"{attr}_std"] = None
                    continue
                mean = sum(vals) / len(vals)
                std = math.sqrt(sum((v - mean) ** 2 for v in vals)
                                / (len(vals) - 1)) if len(vals) > 1 \
                    else 0.0
                entry[f"{attr}_mean"] = mean
                entry[f"{attr}_std"] = std
            out.append(entry)
        return out

    def to_json(self) -> str:
        payload = {
            "rows": [{"cell": name, "seed": seed,
                      "report": json.loads(report.to_json())}
                     for name, seed, report in self.rows],
            "summary": self.summary(),
        }
        return canonical_json(payload)

    def to_text(self) -> str:
        return format_report_table(
            [(cell, self.reports_for(cell))
             for cell in self.cell_names()])

    def to_csv(self) -> str:
        lines = ["cell,seed,micro_f1,micro_jaccard,micro_pr_auc,"
                 "micro_roc_auc,tp,fp,fn,tn"]
        for name, seed, r in self.rows:
            roc = "" if r.micro_roc_auc is None \
                else repr(r.micro_roc_auc)
            lines.append(f"{name},{seed},{r.micro_f1!r},"
                         f"{r.micro_jaccard!r},{r.micro_pr_auc!r},"
                         f"{roc},{r.tp},{r.fp},{r.fn},{r.tn}")
        return "\n".join(lines) + "\n"


def run_ablation(spec: AblationSpec, splits: SplitCorpus,
                 catalog: LabelCatalog, seeds: list[int],
                 enc_cfg: ContrastiveConfig,
                 retr_cfg: RetrievalConfig,
                 train_cfg: TrainConfig) -> AblationResult:
    """Train and evaluate every (cell, seed) combination.

    The contrastive encoder depends only on the seed, so its
    embeddings are built once per seed and shared across cells.
    Reported metrics are test-split metrics.
    """
    rows = []
    for seed in seeds:
        enc = train_encoder(splits.train, replace(enc_cfg, seed=seed))
        store = embed_corpus(splits.corpus, enc)
        for cell in spec.cells:
            retr = replace(
                retr_cfg,
                k=cell.k if cell.k is not None else retr_cfg.k,
                alpha=cell.alpha if cell.alpha is not None
                else retr_cfg.alpha)
            tcfg = replace(
                train_cfg, seed=seed,
                retrieval_on=cell.retrieval_on,
                drift_on=cell.drift_on,
                lam=cell.lam if cell.lam is not None
                else train_cfg.lam)
            params = train(splits, store, catalog, retr, tcfg)
            report = evaluate_split(params, splits, store, catalog,
                                    retr, "test", seed=seed)
            log.info("cell %s seed %d: test micro-F1 %.4f",
                     cell.name, seed, report.micro_f1)
            rows.append((cell.name, seed, report))
    return AblationResult(rows=tuple(rows))


def train_plain_classifier(x: np.ndarray, y: np.ndarray,
                           lr: float = 0.1,
                           epochs: int = 150) -> tuple[np.ndarray,
                                                       np.ndarray]:
    """Full-batch logistic regression on dense features.

    Zero-initialized (the objective is convex, so no randomness is
    involved), optimized with AdamW.  This is the deliberately
    time-blind reference model for drift experiments.
    """
    n, d = x.shape
    n_labels = y.shape[1]
    w = np.zeros((d, n_labels))
    b = np.zeros(n_labels)
    opt = AdamW({"w": w, "b": b}, lr=lr)
    yf = y.astype(np.float64)
    for _ in range(epochs):
        g = (_sigmoid(x @ w + b) - yf) / (n * n_labels)
        opt.step({"w": x.T @ g, "b": g.sum(axis=0)})
    return w, b


def plain_probabilities(x: np.ndarray, w: np.ndarray,
                        b: np.ndarray) -> np.ndarray:
    return _sigmoid(x @ w + b)


def _dense_features(corpus, hash_dim: int) -> np.ndarray:
    x = np.zeros((len(corpus), hash_dim))
    for i, f in enumerate(featurize([case.text for case in corpus],
                                    hash_dim)):
        x[i, f.indices] = f.weights
    return x


def drift_gap_experiment(base_cfg: DriftCorpusConfig,
                         n_seeds: int = 5, hash_dim: int = 4096,
                         train_frac: float = 0.8, lr: float = 0.1,
                         epochs: int = 150) -> dict:
    """Chronological-vs-random split gap of a plain classifier.

    For each seed a fresh corpus is generated; the same feature
    matrix is split once chronologically and once at random (same
    sizes), a plain classifier is trained on each training half, and
    test micro-F1 is recorded.  A drifting corpus shows the
    chronological split scoring well below the random split; a
    stationary one shows no material gap.
    """
    chrono_f1s, random_f1s = [], []
    for i in range(n_seeds):
        cfg = replace(base_cfg, seed=base_cfg.seed + 997 * i)
        corpus = generate_drift_corpus(cfg)
        catalog = synthetic_catalog(cfg.n_labels)
        x = _dense_features(corpus, hash_dim)
        y = corpus.label_matrix(catalog)
        n = len(corpus)
        k = int(n * train_frac)
        perm = np.random.default_rng(10_000 + i).permutation(n)
        for name, tr, te, bucket in (
                ("chronological", np.arange(k), np.arange(k, n),
                 chrono_f1s),
                ("random", perm[:k], perm[k:], random_f1s)):
            w, b = train_plain_classifier(x[tr], y[tr], lr=lr,
                                          epochs=epochs)
            probs = plain_probabilities(x[te], w, b)
            f1 = micro_f1(micro_confusion(
                (probs >= 0.5).astype(np.uint8), y[te]))
            log.info("seed %d %s-split test micro-F1 %.4f",
                     i, name, f1)
            bucket.append(f1)
    chrono_mean = sum(chrono_f1s) / n_seeds
    random_mean = sum(random_f1s) / n_seeds
    return {
        "chronological": chrono_f1s,
        "random": random_f1s,
        "chronological_mean": chrono_mean,
        "random_mean": random_mean,
        "gap": random_mean - chrono_mean,
    }


@dataclass(frozen=True)
class SyntheticExperimentSetup:
    """Everything needed to run the pipeline on the drift corpus."""

    corpus_cfg: DriftCorpusConfig
    catalog: LabelCatalog
    splits: SplitCorpus
    enc_cfg: ContrastiveConfig
    retr_cfg: RetrievalConfig
    train_cfg: TrainConfig


def synthetic_experiment(n_cases: int = 2000,
                         rotation_rate: float = 1.5,
                         seed: int = 0) -> SyntheticExperimentSetup:
    """Canned setup for pipeline experiments on the drift corpus:
    70/15/15 chronological split and desk-scale hyperparameters."""
    corpus_cfg = DriftCorpusConfig(n_cases=n_cases,
                                   rotation_rate=rotation_rate,
                                   seed=seed)
    corpus = generate_drift_corpus(corpus_cfg)
    catalog = synthetic_catalog(corpus_cfg.n_labels)
    n_val = max(1, int(n_cases * 0.15))
    n_test = max(1, int(n_cases * 0.15))
    splits = chronological_split(corpus, n_cases - n_val - n_test,
                                 n_val, n_test)
    enc_cfg = ContrastiveConfig(hash_dim=4096, hidden_dim=256,
                                out_dim=256, epochs=3,
                                learning_rate=1e-4, seed=seed)
    retr_cfg = RetrievalConfig(k=5, alpha=2.0, val_size=n_val)
    train_cfg = TrainConfig(max_epochs=60, seed=seed)
    return SyntheticExperimentSetup(corpus_cfg, catalog, splits,
                                    enc_cfg, retr_cfg, train_cfg)
