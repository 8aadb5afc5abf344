"""Evidence-fused classifier with a time-drift correction head.

The classifier consumes the concatenation of a case embedding and an
evidence embedding (the similarity-softmax-weighted average of the
retrieved precedents' label vectors, a length-L soft prior).  A small
two-layer MLP maps a normalized chronological-rank coordinate to a
per-label logit correction that is added to the classifier output, so
slow shifts in label prevalence can be tracked — and extrapolated
past the training range — without retraining the classifier.

Training minimizes ``(1 - lam) * BCE(sigmoid(y_final), labels)
+ lam * ||drift||^2``: the served logits ``y_final = y_orig + drift``
carry the classification loss while the quadratic penalty keeps the
correction anchored to the plain prediction.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import load_npz, save_npz
from .corpus import CaseRecord, LabelCatalog, SplitCorpus
from .encoder import EncoderParams, _dropout_mask, encode
from .errors import (
    ConfigError,
    DegenerateRangeError,
    DimensionMismatchError,
    IoFailureError,
    LabelLengthMismatchError,
    NonFiniteError,
)
from .features import featurize
from .metrics import MetricsReport, compute_report, micro_confusion, micro_f1
from .optim import AdamW
from .retrieval import (
    EvidenceSet,
    RetrievalConfig,
    retrieve_precedents,
)
from .store import EmbeddingStore

log = logging.getLogger(__name__)

__all__ = [
    "TrainConfig",
    "ModelParams",
    "Prediction",
    "fuse_evidence",
    "drift_input",
    "drift_features",
    "init_model_params",
    "forward",
    "infer",
    "train",
    "train_with_history",
    "evaluate_split",
    "predict_with_evidence",
    "prediction_record",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class TrainConfig:
    """Supervised-stage hyperparameters.

    ``lam`` balances classification against the drift penalty; the
    classifier gets its own (larger) learning rate while the drift
    head and any encoder adapter train at ``other_lr``.  Early
    stopping watches validation micro-F1 with the given patience.
    ``drift_frequencies`` > 0 augments the scalar drift input with
    that many sinusoid pairs for non-smooth drift shapes.
    """

    lam: float = 0.10
    classifier_lr: float = 1e-3
    other_lr: float = 1e-5
    batch_size: int = 8
    dropout: float = 0.2
    patience: int = 2
    max_epochs: int = 20
    seed: int = 0
    drift_hidden: int = 64
    drift_frequencies: int = 0
    retrieval_on: bool = True
    drift_on: bool = True
    finetune_encoder: bool = False
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0,1], got {self.lam}")
        for name in ("classifier_lr", "other_lr"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(
                f"dropout must be in [0,1), got {self.dropout}")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be >= 0")
        if self.drift_hidden < 1:
            raise ConfigError("drift_hidden must be >= 1")
        if self.drift_frequencies < 0:
            raise ConfigError("drift_frequencies must be >= 0")


@dataclass
class ModelParams:
    """Both parameter groups plus the metadata inference needs.

    ``w``/``b`` form the linear classifier over the concatenated
    [case embedding, evidence embedding] input; ``drift_*`` form the
    two-layer ReLU MLP from the drift-input features to one logit
    correction per label.  ``adapter``, when present, is a square
    matrix applied to the case embedding before concatenation (the
    trainable stand-in for encoder fine-tuning).  ``train_rank_range``
    is the (min, max) chronological rank of the training split, the
    normalization frame for the drift input.
    """

    w: np.ndarray
    b: np.ndarray
    drift_w1: np.ndarray
    drift_b1: np.ndarray
    drift_w2: np.ndarray
    drift_b2: np.ndarray
    train_rank_range: tuple[int, int]
    drift_frequencies: int = 0
    retrieval_on: bool = True
    drift_on: bool = True
    adapter: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_labels(self) -> int:
        return self.w.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.w.shape[0] - self.n_labels

    @property
    def drift_in_dim(self) -> int:
        return self.drift_w1.shape[0]

    def other_arrays(self) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        if self.drift_on:
            arrays.update({"drift_w1": self.drift_w1,
                           "drift_b1": self.drift_b1,
                           "drift_w2": self.drift_w2,
                           "drift_b2": self.drift_b2})
        if self.adapter is not None:
            arrays["adapter"] = self.adapter
        return arrays

    def all_arrays(self) -> dict[str, np.ndarray]:
        arrays = {"w": self.w, "b": self.b,
                  "drift_w1": self.drift_w1, "drift_b1": self.drift_b1,
                  "drift_w2": self.drift_w2, "drift_b2": self.drift_b2}
        if self.adapter is not None:
            arrays["adapter"] = self.adapter
        return arrays


@dataclass(frozen=True)
class Prediction:
    """Model outputs, one row per case: pre-correction logits, the
    drift correction, served logits, probabilities, and 0.5-threshold
    decisions.  ``row(i)`` gives case i alone, as 1-D arrays."""

    y_orig: np.ndarray
    drift: np.ndarray
    y_final: np.ndarray
    probabilities: np.ndarray
    decisions: np.ndarray

    def row(self, i: int) -> "Prediction":
        return Prediction(self.y_orig[i], self.drift[i], self.y_final[i],
                          self.probabilities[i], self.decisions[i])


def fuse_evidence(evidence: EvidenceSet, n_labels: int) -> np.ndarray:
    """Similarity-softmax-weighted average of evidence label vectors.

    Empty evidence yields the zero vector: absence of precedent is
    itself a signal, and zero keeps the no-retrieval configuration
    identical to a plain classifier.
    """
    if len(evidence) == 0:
        return np.zeros(n_labels)
    rows = []
    for ev in evidence:
        lab = np.asarray(ev.labels, dtype=np.float64).reshape(-1)
        if lab.shape[0] != n_labels:
            raise LabelLengthMismatchError(
                f"evidence {ev.case_id} has {lab.shape[0]} labels, "
                f"expected {n_labels}")
        rows.append(lab)
    scores = np.array([ev.score for ev in evidence])
    scores = scores - scores.max()
    weights = np.exp(scores)
    weights /= weights.sum()
    return weights @ np.stack(rows)


def drift_input(rank: int, train_rank_range: tuple[int, int]) -> float:
    """Rank mapped affinely so the training split spans [0, 1].

    Values above 1 are the extrapolation region for post-training
    cases; that is intended, not clipped.
    """
    lo, hi = train_rank_range
    if hi == lo:
        raise DegenerateRangeError(
            f"degenerate train rank range ({lo}, {hi})")
    return (rank - lo) / (hi - lo)


def drift_features(x: float, n_frequencies: int = 0) -> np.ndarray:
    """Feature vector for the drift head: the scalar itself, plus
    optional sin/cos pairs at doubling frequencies."""
    feats = [x]
    for j in range(n_frequencies):
        feats.append(math.sin((2.0 ** j) * math.pi * x))
        feats.append(math.cos((2.0 ** j) * math.pi * x))
    return np.array(feats)


def init_model_params(embed_dim: int, n_labels: int, cfg: TrainConfig,
                      train_rank_range: tuple[int, int]) -> ModelParams:
    """Seeded initialization.

    The classifier and the drift MLP's first layer get Xavier-uniform
    weights; the drift MLP's output layer starts at zero so the model
    begins with drift identically zero (``y_final = y_orig``) while
    keeping a nonzero gradient path into every drift parameter.  With
    ``drift_on`` False the whole head is zero and stays frozen.
    """
    rng = np.random.default_rng(cfg.seed)
    in_dim = embed_dim + n_labels
    drift_in = 1 + 2 * cfg.drift_frequencies

    def xavier(n_in: int, n_out: int) -> np.ndarray:
        bound = math.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-bound, bound, size=(n_in, n_out))

    w = xavier(in_dim, n_labels)
    drift_w1 = xavier(drift_in, cfg.drift_hidden)
    if not cfg.drift_on:
        drift_w1 = np.zeros_like(drift_w1)
    adapter = np.eye(embed_dim) if cfg.finetune_encoder else None
    return ModelParams(
        w=w, b=np.zeros(n_labels),
        drift_w1=drift_w1,
        drift_b1=np.zeros(cfg.drift_hidden),
        drift_w2=np.zeros((cfg.drift_hidden, n_labels)),
        drift_b2=np.zeros(n_labels),
        train_rank_range=train_rank_range,
        drift_frequencies=cfg.drift_frequencies,
        retrieval_on=cfg.retrieval_on,
        drift_on=cfg.drift_on,
        adapter=adapter)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _batch_forward(e_case: np.ndarray, e_ev: np.ndarray, t: np.ndarray,
                   params: ModelParams,
                   mask: np.ndarray | None = None):
    """Vectorized forward over a batch; returns arrays plus the cache
    needed by _batch_backward."""
    if e_case.shape[1] != params.embed_dim:
        raise DimensionMismatchError(
            f"case embedding dim {e_case.shape[1]} != "
            f"{params.embed_dim}")
    if e_ev.shape[1] != params.n_labels:
        raise DimensionMismatchError(
            f"evidence dim {e_ev.shape[1]} != {params.n_labels}")
    if t.shape[1] != params.drift_in_dim:
        raise DimensionMismatchError(
            f"drift input dim {t.shape[1]} != {params.drift_in_dim}")
    adapted = e_case @ params.adapter if params.adapter is not None \
        else e_case
    x = np.concatenate([adapted, e_ev], axis=1)
    xd = x * mask if mask is not None else x
    y_orig = xd @ params.w + params.b
    z1 = t @ params.drift_w1 + params.drift_b1
    h = np.maximum(z1, 0.0)
    drift = h @ params.drift_w2 + params.drift_b2
    y_final = y_orig + drift
    cache = (e_case, xd, t, z1, h, mask)
    return y_orig, drift, y_final, cache


def _batch_backward(d_y_final: np.ndarray, d_drift: np.ndarray, cache,
                    params: ModelParams,
                    grads: dict[str, np.ndarray]) -> None:
    """Accumulate parameter gradients for the batch.

    ``d_y_final`` is the loss gradient at the served logits and
    ``d_drift`` the extra gradient applied directly to the drift
    output (the anchoring penalty); the drift head receives both
    since y_final = y_orig + drift.
    """
    e_case, xd, t, z1, h, mask = cache
    grads["w"] += xd.T @ d_y_final
    grads["b"] += d_y_final.sum(axis=0)
    dd = d_y_final + d_drift
    grads["drift_w2"] += h.T @ dd
    grads["drift_b2"] += dd.sum(axis=0)
    dh = dd @ params.drift_w2.T
    dh[z1 <= 0] = 0.0
    grads["drift_w1"] += t.T @ dh
    grads["drift_b1"] += dh.sum(axis=0)
    if params.adapter is not None:
        dx = d_y_final @ params.w.T
        if mask is not None:
            dx = dx * mask
        grads["adapter"] += e_case.T @ dx[:, :params.embed_dim]


def _decide(params: ModelParams, e_case: np.ndarray, e_ev: np.ndarray,
            t: np.ndarray) -> Prediction:
    """Forward without dropout, sigmoid, and the 0.5 threshold: the one
    decision rule of inference and of the trainer's validation pass."""
    y_orig, drift, y_final, _ = _batch_forward(e_case, e_ev, t, params)
    probs = _sigmoid(y_final)
    return Prediction(y_orig, drift, y_final, probs,
                      (probs >= 0.5).astype(np.uint8))


def forward(case_embedding: np.ndarray, evidence_embedding: np.ndarray,
            drift_in: np.ndarray, params: ModelParams) -> Prediction:
    """One case through ``infer``'s decision rule, as a one-row batch."""
    return _decide(params, *(np.reshape(a, (1, -1)) for a in (
        case_embedding, evidence_embedding, drift_in))).row(0)


def _batch_loss(y_final: np.ndarray, drift: np.ndarray, y: np.ndarray,
                lam: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Composite batch loss and its exact gradients.

    Returns ``(value, d_y_final, d_drift)`` where the value is the
    batch mean of ``(1 - lam) * mean-BCE(sigmoid(y_final), labels)
    + lam * ||drift||^2`` per case.  ``d_drift`` is only the direct
    penalty gradient; the BCE part reaches the drift head through
    ``d_y_final``.  The BCE is computed in the overflow-safe logit form.
    """
    bsz, n_labels = y.shape
    bce = (np.maximum(y_final, 0.0) - y_final * y
           + np.log1p(np.exp(-np.abs(y_final)))).mean(axis=1)
    penalty = (drift * drift).sum(axis=1)
    value = float(((1.0 - lam) * bce + lam * penalty).mean())
    d_y_final = (1.0 - lam) * (_sigmoid(y_final) - y) / (n_labels * bsz)
    d_drift = 2.0 * lam * drift / bsz
    return value, d_y_final, d_drift


def _precompute_inputs(ranks, store: EmbeddingStore,
                       labels_all: np.ndarray, retr_cfg: RetrievalConfig,
                       params: ModelParams,
                       queries: tuple[list[str], np.ndarray] | None = None,
                       evidence: list[EvidenceSet] | None = None):
    """Case, fused-evidence and drift inputs for the given ranks.  The
    cases are the store rows at ``ranks`` unless ``queries``, a
    ``(case_ids, vectors)`` pair, gives cases outside the store.  Each
    EvidenceSet is appended to ``evidence`` if a list is given, else
    only the fused rows are kept.

    Evidence comes from the strictly-earlier cases, so a training query
    (rank < n_train) sees training-split precedents only.
    """
    case_ids, e_case = queries if queries is not None \
        else ([store.case_ids[r] for r in ranks], store.matrix[ranks])
    n_labels = labels_all.shape[1]
    e_ev = np.zeros((len(ranks), n_labels))
    for i, r in enumerate(ranks):
        ev = retrieve_precedents(
            r, e_case[i], store, labels_all, retr_cfg,
            query_case_id=case_ids[i]) if params.retrieval_on \
            else EvidenceSet(case_ids[i], ())
        e_ev[i] = fuse_evidence(ev, n_labels)
        if evidence is not None:
            evidence.append(ev)
    t = np.stack([
        drift_features(drift_input(r, params.train_rank_range),
                       params.drift_frequencies)
        for r in ranks])
    return e_case, e_ev, t


def infer(params: ModelParams, ranks, store: EmbeddingStore,
          labels: np.ndarray, retr_cfg: RetrievalConfig
          ) -> tuple[Prediction, list[EvidenceSet]]:
    """The one inference path: retrieve and fuse evidence for the store
    rows at ``ranks``, build the drift features, and run one batched
    forward with the sigmoid and the 0.5 threshold.  Returns one
    prediction row and one EvidenceSet per rank; ``labels`` has one row
    per store row."""
    evidence: list[EvidenceSet] = []
    e_case, e_ev, t = _precompute_inputs(ranks, store, labels, retr_cfg,
                                         params, evidence=evidence)
    return _decide(params, e_case, e_ev, t), evidence


def train_with_history(splits: SplitCorpus, store: EmbeddingStore,
                       catalog: LabelCatalog, retr_cfg: RetrievalConfig,
                       cfg: TrainConfig
                       ) -> tuple[ModelParams, dict[str, list[float]]]:
    """Supervised training loop; returns the best-on-validation
    checkpoint plus per-epoch mean loss and validation micro-F1.

    Two AdamW groups (classifier fast, drift head and adapter slow);
    evidence for training queries is restricted to training-split
    precedents; early stop after ``patience`` epochs without a strict
    validation micro-F1 improvement.  ``max_epochs`` 0 returns the
    initialization.
    """
    corpus = splits.corpus
    store.check_alignment(corpus)
    labels_all = corpus.label_matrix(catalog).astype(np.float64)
    n_labels = len(catalog)
    train_ranks = list(splits.train_ranks)
    val_ranks = list(splits.val_ranks)
    if len(train_ranks) < 2:
        raise ConfigError("need at least 2 training cases")
    params = init_model_params(store.dim, n_labels, cfg,
                               (train_ranks[0], train_ranks[-1]))
    e_case_train, e_ev_train, t_train = _precompute_inputs(
        train_ranks, store, labels_all, retr_cfg, params)
    e_case_val, e_ev_val, t_val = _precompute_inputs(
        val_ranks, store, labels_all, retr_cfg, params)
    y_train, y_val = labels_all[train_ranks], labels_all[val_ranks]

    opt_classifier = AdamW({"w": params.w, "b": params.b},
                           lr=cfg.classifier_lr,
                           weight_decay=cfg.weight_decay)
    other = params.other_arrays()
    opt_other = AdamW(other, lr=cfg.other_lr,
                      weight_decay=cfg.weight_decay) if other else None
    grads = {k: np.zeros_like(v) for k, v in params.all_arrays().items()}
    lam = cfg.lam if cfg.drift_on else 0.0

    def val_f1(p: ModelParams) -> float:
        decisions = _decide(p, e_case_val, e_ev_val, t_val).decisions
        return micro_f1(micro_confusion(decisions, y_val))

    best = copy.deepcopy(params)
    best_f1 = -1.0
    stale = 0
    history: dict[str, list[float]] = {"train_loss": [], "val_f1": []}
    order_rng = np.random.default_rng(cfg.seed + 1)
    n = len(train_ranks)

    for epoch in range(cfg.max_epochs):
        perm = order_rng.permutation(n)
        total, batches = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            bsz = len(idx)
            mask = _dropout_mask(
                (bsz, store.dim + n_labels), cfg.dropout,
                (cfg.seed * 1000003 + epoch * 9973 + start) * 131 + 7)
            _, drift, y_final, cache = _batch_forward(
                e_case_train[idx], e_ev_train[idx], t_train[idx],
                params, mask)
            value, d_y_final, d_drift = _batch_loss(
                y_final, drift, y_train[idx], lam)
            if not math.isfinite(value):
                raise NonFiniteError(
                    f"supervised training: non-finite loss at epoch "
                    f"{epoch} batch {batches}")
            total += value
            batches += 1
            for g in grads.values():
                g.fill(0.0)
            _batch_backward(d_y_final, d_drift, cache, params, grads)
            opt_classifier.step({k: grads[k] for k in ("w", "b")})
            if opt_other is not None:
                opt_other.step({k: grads[k] for k in other})
        f1 = val_f1(params)
        history["train_loss"].append(total / max(batches, 1))
        history["val_f1"].append(f1)
        log.info("epoch %d: train loss %.6f, val micro-F1 %.4f",
                 epoch, history["train_loss"][-1], f1)
        if f1 > best_f1:
            best_f1 = f1
            best = copy.deepcopy(params)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                log.info("early stop after epoch %d (best %.4f)",
                         epoch, best_f1)
                break
    return best, history


def train(splits: SplitCorpus, store: EmbeddingStore,
          catalog: LabelCatalog, retr_cfg: RetrievalConfig,
          cfg: TrainConfig) -> ModelParams:
    """Fit the classifier and drift head; see train_with_history."""
    params, _ = train_with_history(splits, store, catalog, retr_cfg, cfg)
    return params


def evaluate_split(params: ModelParams, splits: SplitCorpus,
                   store: EmbeddingStore, catalog: LabelCatalog,
                   retr_cfg: RetrievalConfig, which: str = "test",
                   seed: int = 0) -> MetricsReport:
    """Deterministic metrics for one split, with evidence from all
    strictly-earlier cases."""
    corpus = splits.corpus
    store.check_alignment(corpus)
    labels_all = corpus.label_matrix(catalog).astype(np.float64)
    ranks = list(splits.ranks(which))
    pred, _ = infer(params, ranks, store, labels_all, retr_cfg)
    return compute_report(pred.probabilities, pred.decisions,
                          labels_all[ranks], seed=seed)


def predict_with_evidence(case: CaseRecord, rank: int,
                          params: ModelParams, store: EmbeddingStore,
                          labels: np.ndarray, retr_cfg: RetrievalConfig,
                          encoder: EncoderParams | None = None
                          ) -> tuple[Prediction, EvidenceSet]:
    """Full pipeline for one case: embed (or look up), then build its
    inputs and decide as ``infer`` does for a one-row batch at
    ``rank``."""
    if case.case_id in store:
        vec = store.vector(case.case_id)
    elif encoder is not None:
        vec = encode(featurize(case.text, encoder.hash_dim), encoder)
    else:
        raise ConfigError(
            f"case {case.case_id} not in the embedding store and no "
            "encoder given to embed it")
    evidence: list[EvidenceSet] = []
    e_case, e_ev, t = _precompute_inputs(
        [rank], store, labels, retr_cfg, params,
        ([case.case_id], vec.reshape(1, -1)), evidence)
    return forward(e_case, e_ev, t, params), evidence[0]


def prediction_record(case_id: str, pred: Prediction,
                      catalog: LabelCatalog,
                      evidence: EvidenceSet) -> dict:
    """JSON-serializable record for one case: probabilities, decided
    label names, the split of the served logits into classifier output
    and drift correction, and the evidence list as the
    interpretability surface."""
    return {
        "case_id": case_id,
        "probabilities": [float(p) for p in pred.probabilities],
        "decisions": [name for name, bit
                      in zip(catalog.names, pred.decisions) if bit],
        "y_orig": [float(v) for v in pred.y_orig],
        "drift": [float(v) for v in pred.drift],
        "evidence": [{"case_id": ev.case_id, "score": ev.score}
                     for ev in evidence],
    }


_MODEL_FORMAT_VERSION = 1
_MODEL_SCHEMA = {
    "w": ("float", ("I", "L")), "b": ("float", ("L",)),
    "drift_w1": ("float", ("T", "K")), "drift_b1": ("float", ("K",)),
    "drift_w2": ("float", ("K", "L")), "drift_b2": ("float", ("L",)),
    "adapter?": ("float", ("E", "E")),
}
_MODEL_META_SCHEMA = {"train_rank_range": list, "drift_frequencies": int,
                      "retrieval_on": bool, "drift_on": bool,
                      "has_adapter": bool, "config": dict}


def save_model(params: ModelParams, path: str | Path) -> None:
    """Versioned checkpoint with both parameter groups, the flags, and
    the training-split rank range needed at inference."""
    save_npz(path, "model", _MODEL_FORMAT_VERSION, params.all_arrays(), {
        "train_rank_range": list(params.train_rank_range),
        "drift_frequencies": params.drift_frequencies,
        "retrieval_on": params.retrieval_on,
        "drift_on": params.drift_on,
        "has_adapter": params.adapter is not None,
        "config": params.meta,
    })


def load_model(path: str | Path) -> ModelParams:
    arrays, meta = load_npz(path, "model", _MODEL_FORMAT_VERSION,
                            _MODEL_SCHEMA, _MODEL_META_SCHEMA)
    if meta["has_adapter"] != ("adapter" in arrays):
        raise IoFailureError(f"model checkpoint {path}: has_adapter is "
                             f"{meta['has_adapter']} but the arrays differ")
    rank_range = meta["train_rank_range"]
    if not (len(rank_range) == 2
            and all(type(r) is int for r in rank_range)
            and rank_range[0] < rank_range[1]):
        raise IoFailureError(
            f"model checkpoint {path}: train_rank_range {rank_range!r} "
            "is not two integers lo < hi")
    params = ModelParams(
        **arrays, train_rank_range=tuple(rank_range),
        drift_frequencies=meta["drift_frequencies"],
        retrieval_on=meta["retrieval_on"], drift_on=meta["drift_on"],
        meta=meta["config"])
    if params.adapter is not None \
            and params.adapter.shape[0] != params.embed_dim:
        raise IoFailureError(
            f"model checkpoint {path}: adapter is "
            f"{params.adapter.shape[0]}x{params.adapter.shape[1]} but the "
            f"classifier takes {params.embed_dim}-dim embeddings")
    return params
