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
correction anchored to the plain prediction.  A model checkpoint
(format 3) holds the classifier and the drift head, whose input is
that one scalar coordinate, plus the split sizes it was trained under.

The trainer runs one or more lanes: models that share the data, the
batch order, every dropout mask and every hyperparameter except
``retrieval_on``, ``drift_on``, ``lam``, ``k`` and ``alpha``.  It packs
each lane's six arrays into one row of a ``(lanes, size)`` float64
buffer with one learning rate per element, so a batch is one stacked
forward and backward pass and one ``AdamW`` step for all lanes, and
every lane gets the bits a run of its own would give.
A lane that stops early stays in the stack and is stepped with the
others until the last lane stops, but it is no longer validated.

Evidence for a case is the tuple of ``retrieval.Evidence`` that
``retrieve_precedents`` returns, scored through
``retrieval.decayed_similarity``; it is empty when retrieval is off.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import load_npz, save_npz
from .corpus import CaseRecord, LabelCatalog, SplitCorpus
from .encoder import EncoderParams, _dropout_mask, _xavier, encode
from .errors import (
    ConfigError,
    DegenerateRangeError,
    DimensionMismatchError,
    IoFailureError,
    LabelLengthMismatchError,
    NonFiniteError,
    StoreMisalignedError,
)
from .features import featurize
from .metrics import MetricsReport, compute_report, micro_confusion, micro_f1
from .optim import AdamW
from .retrieval import Evidence, RetrievalConfig, retrieve_precedents
from .store import EmbeddingStore

log = logging.getLogger(__name__)

__all__ = [
    "TrainConfig",
    "ModelParams",
    "Prediction",
    "fuse_evidence",
    "drift_input",
    "init_model_params",
    "forward",
    "infer",
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
    head trains at ``other_lr``.  Early stopping watches validation
    micro-F1 with the given patience.
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
    retrieval_on: bool = True
    drift_on: bool = True
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ModelParams:
    """The six parameter arrays plus the metadata inference needs.

    ``w``/``b`` form the linear classifier over the concatenated
    [case embedding, evidence embedding] input; ``drift_*`` form the
    two-layer ReLU MLP from the scalar drift input to one logit
    correction per label.  ``train_rank_range`` is the (min, max)
    chronological rank of the training split, the normalization frame
    for the drift input.  ``val_size`` and ``test_size`` are those of
    the split it was trained on (0, which no run configures, before
    training); only a run with that split may evaluate it.
    """

    w: np.ndarray
    b: np.ndarray
    drift_w1: np.ndarray
    drift_b1: np.ndarray
    drift_w2: np.ndarray
    drift_b2: np.ndarray
    train_rank_range: tuple[int, int]
    retrieval_on: bool = True
    drift_on: bool = True
    val_size: int = 0
    test_size: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def n_labels(self) -> int:
        return self.w.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.w.shape[0] - self.n_labels

    def all_arrays(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "b": self.b,
                "drift_w1": self.drift_w1, "drift_b1": self.drift_b1,
                "drift_w2": self.drift_w2, "drift_b2": self.drift_b2}


def _views(flat: np.ndarray, like: dict[str, np.ndarray]
           ) -> dict[str, np.ndarray]:
    """Per array of ``like``, in order, the next elements of ``flat``'s
    last axis as a view shaped like it, behind the leading (lane) axes."""
    views, at = {}, 0
    for name, arr in like.items():
        views[name] = flat[..., at:at + arr.size].reshape(
            flat.shape[:-1] + arr.shape)
        at += arr.size
    return views


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


def fuse_evidence(evidence: Sequence[Evidence],
                  n_labels: int) -> np.ndarray:
    """Similarity-softmax-weighted average of evidence label vectors.

    Empty evidence yields the zero vector: absence of precedent is
    itself a signal, and zero keeps the no-retrieval configuration
    identical to a plain classifier.
    """
    if len(evidence) == 0:
        return np.zeros(n_labels)
    try:
        rows = np.array([ev.labels for ev in evidence], dtype=np.float64
                        ).reshape(len(evidence), n_labels)
    except ValueError:
        for ev in evidence:
            if np.size(ev.labels) != n_labels:
                raise LabelLengthMismatchError(
                    f"evidence {ev.case_id} has {np.size(ev.labels)} "
                    f"labels, expected {n_labels}") from None
        raise
    scores = np.array([ev.score for ev in evidence])
    scores = scores - scores.max()
    weights = np.exp(scores)
    weights /= weights.sum()
    return weights @ rows


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
    w = _xavier(rng, embed_dim + n_labels, n_labels)
    drift_w1 = _xavier(rng, 1, cfg.drift_hidden)
    if not cfg.drift_on:
        drift_w1 = np.zeros_like(drift_w1)
    return ModelParams(
        w=w, b=np.zeros(n_labels),
        drift_w1=drift_w1,
        drift_b1=np.zeros(cfg.drift_hidden),
        drift_w2=np.zeros((cfg.drift_hidden, n_labels)),
        drift_b2=np.zeros(n_labels),
        train_rank_range=train_rank_range,
        retrieval_on=cfg.retrieval_on,
        drift_on=cfg.drift_on)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e) for z >= 0 and
    e/(1+e) below, where e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _batch_forward(e_case: np.ndarray, e_ev: np.ndarray, t: np.ndarray,
                   params: dict[str, np.ndarray],
                   mask: np.ndarray | None = None):
    """Vectorized forward over a batch; returns arrays plus the cache
    needed by _batch_backward.

    ``params`` holds the arrays keyed like ``ModelParams.all_arrays``.
    For a stack of lanes each has a leading lane axis and ``e_ev`` is
    ``(lanes, B, L)``; the case rows ``e_case``, drift inputs ``t`` and
    ``mask`` serve every lane, and each output has the lane axis.
    """
    w = params["w"]
    dim, n_labels = e_case.shape[-1], w.shape[-1]
    embed_dim = w.shape[-2] - n_labels
    if dim != embed_dim:
        raise DimensionMismatchError(
            f"case embedding dim {dim} != {embed_dim}")
    if e_ev.shape[-1] != n_labels:
        raise DimensionMismatchError(
            f"evidence dim {e_ev.shape[-1]} != {n_labels}")
    x = np.empty(e_ev.shape[:-1] + (dim + n_labels,))
    x[..., :dim] = e_case
    x[..., dim:] = e_ev
    xd = x * mask if mask is not None else x
    y_orig = xd @ w + params["b"][..., None, :]
    z1 = t @ params["drift_w1"] + params["drift_b1"][..., None, :]
    h = np.maximum(z1, 0.0)
    drift = h @ params["drift_w2"] + params["drift_b2"][..., None, :]
    y_final = y_orig + drift
    cache = (xd, t, z1, h)
    return y_orig, drift, y_final, cache


def _batch_backward(d_y_final: np.ndarray, d_drift: np.ndarray, cache,
                    params: dict[str, np.ndarray],
                    grads: dict[str, np.ndarray] | None = None
                    ) -> dict[str, np.ndarray]:
    """Parameter gradients for the batch, keyed like ``params``.

    ``d_y_final`` is the loss gradient at the served logits and
    ``d_drift`` the extra gradient applied directly to the drift
    output (the anchoring penalty); the drift head receives both
    since y_final = y_orig + drift.  The gradients are written into
    ``grads`` (arrays shaped like the parameters, such as the views of
    the trainer's gradient buffer) when given, else into new
    arrays, and returned.  A lane stack gives each lane its own
    gradients.
    """
    if grads is None:
        grads = {k: np.empty_like(v) for k, v in params.items()}
    xd, t, z1, h = cache
    dd = d_y_final + d_drift
    dh = dd @ np.swapaxes(params["drift_w2"], -1, -2)
    dh[z1 <= 0] = 0.0
    np.matmul(np.swapaxes(xd, -1, -2), d_y_final, out=grads["w"])
    np.add.reduce(d_y_final, axis=-2, out=grads["b"])
    np.matmul(t.T, dh, out=grads["drift_w1"])
    np.add.reduce(dh, axis=-2, out=grads["drift_b1"])
    np.matmul(np.swapaxes(h, -1, -2), dd, out=grads["drift_w2"])
    np.add.reduce(dd, axis=-2, out=grads["drift_b2"])
    return grads


def _decide(params: dict[str, np.ndarray], e_case: np.ndarray,
            e_ev: np.ndarray, t: np.ndarray) -> Prediction:
    """Forward without dropout, sigmoid, and the 0.5 threshold: the one
    decision rule of inference and of the trainer's validation pass."""
    y_orig, drift, y_final, _ = _batch_forward(e_case, e_ev, t, params)
    probs = _sigmoid(y_final)
    return Prediction(y_orig, drift, y_final, probs,
                      (probs >= 0.5).astype(np.uint8))


def forward(case_embedding: np.ndarray, evidence_embedding: np.ndarray,
            drift_in: np.ndarray, params: ModelParams) -> Prediction:
    """One case through ``infer``'s decision rule, as a one-row batch."""
    return _decide(params.all_arrays(), *(np.reshape(a, (1, -1)) for a in (
        case_embedding, evidence_embedding, drift_in))).row(0)


def _batch_loss(y_final: np.ndarray, drift: np.ndarray, y: np.ndarray,
                lam: float | np.ndarray
                ) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Composite batch loss and its exact gradients.

    Returns ``(value, d_y_final, d_drift)`` where the value is the
    batch mean of ``(1 - lam) * mean-BCE(sigmoid(y_final), labels)
    + lam * ||drift||^2`` per case.  ``d_drift`` is only the direct
    penalty gradient; the BCE part reaches the drift head through
    ``d_y_final``.  The BCE is computed in the overflow-safe logit
    form.  Each mean is a sum divided by the count, the same bits as
    ``ndarray.mean``.  For a lane stack, ``lam`` holds one value per
    lane, ``y_final`` and ``drift`` lead with the lane axis, and so do
    the results.
    """
    bsz, n_labels = y.shape
    lam = np.asarray(lam, dtype=np.float64)[..., None]
    bce = np.add.reduce(np.maximum(y_final, 0.0) - y_final * y
                        + np.log1p(np.exp(-np.abs(y_final))),
                        axis=-1) / n_labels
    penalty = (drift * drift).sum(axis=-1)
    value = np.add.reduce((1.0 - lam) * bce + lam * penalty, axis=-1) / bsz
    lam = lam[..., None]
    d_y_final = (1.0 - lam) * (_sigmoid(y_final) - y) / (n_labels * bsz)
    d_drift = 2.0 * lam * drift / bsz
    return value, d_y_final, d_drift


def _precompute_inputs(ranks, store: EmbeddingStore,
                       labels_all: np.ndarray, retr_cfg: RetrievalConfig,
                       params: ModelParams,
                       queries: np.ndarray | None = None,
                       evidence: list[tuple[Evidence, ...]] | None = None):
    """Case, fused-evidence and drift inputs for the given ranks.  The
    cases are the store rows at ``ranks`` unless ``queries`` gives one
    vector per rank (a case outside the store, or the rows already
    gathered).  Each case's
    evidence is appended to ``evidence`` if a list is given, else only
    the fused rows are kept.

    Evidence comes from the strictly-earlier cases, so a training query
    (rank < n_train) sees training-split precedents only.
    """
    e_case = store.matrix[ranks] if queries is None else queries
    n_labels = labels_all.shape[1]
    e_ev = np.zeros((len(ranks), n_labels))
    for i, r in enumerate(ranks):
        ev = retrieve_precedents(r, e_case[i], store, labels_all,
                                 retr_cfg) if params.retrieval_on else ()
        e_ev[i] = fuse_evidence(ev, n_labels)
        if evidence is not None:
            evidence.append(ev)
    t = np.array([drift_input(r, params.train_rank_range)
                  for r in ranks]).reshape(-1, 1)
    return e_case, e_ev, t


def infer(params: ModelParams, ranks, store: EmbeddingStore,
          labels: np.ndarray, retr_cfg: RetrievalConfig
          ) -> tuple[Prediction, list[tuple[Evidence, ...]]]:
    """The one inference path: retrieve and fuse evidence for the store
    rows at ``ranks``, build the drift input, and run one batched
    forward with the sigmoid and the 0.5 threshold.  Returns one
    prediction row and one evidence tuple per rank; ``labels`` has one
    row per store row."""
    evidence: list[tuple[Evidence, ...]] = []
    e_case, e_ev, t = _precompute_inputs(ranks, store, labels, retr_cfg,
                                         params, evidence=evidence)
    return _decide(params.all_arrays(), e_case, e_ev, t), evidence


# The fields in which the lanes of one training run may differ.
_LANE_TRAIN_FIELDS = ("retrieval_on", "drift_on", "lam")
_LANE_RETRIEVAL_FIELDS = ("k", "alpha")
_LANE_FIELDS = ", ".join(_LANE_TRAIN_FIELDS + _LANE_RETRIEVAL_FIELDS)


def _check_lanes(retr_cfgs: tuple, cfgs: tuple) -> None:
    """Refuse lane configs that cannot share one stack: a count of
    retrieval configs other than the count of train configs, no lane,
    or two lanes that differ in a field outside the lane fields."""
    if len(retr_cfgs) != len(cfgs) or not cfgs:
        raise ConfigError(
            f"lanes: {len(retr_cfgs)} retrieval configs for {len(cfgs)} "
            "train configs; give one of each per lane, at least one lane")
    for configs, free in ((cfgs, _LANE_TRAIN_FIELDS),
                          (retr_cfgs, _LANE_RETRIEVAL_FIELDS)):
        for f in fields(configs[0]):
            if f.name not in free and any(
                    getattr(c, f.name) != getattr(configs[0], f.name)
                    for c in configs):
                raise ConfigError(
                    f"lanes differ in {type(configs[0]).__name__}."
                    f"{f.name}; lanes may differ only in {_LANE_FIELDS}")


def train_with_history(splits: SplitCorpus, store: EmbeddingStore,
                       catalog: LabelCatalog,
                       retr_cfgs: Sequence[RetrievalConfig],
                       cfgs: Sequence[TrainConfig]
                       ) -> tuple[tuple[ModelParams, ...], dict[str, list]]:
    """Supervised training loop; returns every lane's best-on-validation
    checkpoint plus per-epoch mean loss and validation micro-F1.

    ``retr_cfgs`` and ``cfgs`` hold one entry per lane; one model is
    the one-lane case.  Lanes may differ only in ``retrieval_on``,
    ``drift_on``, ``lam``, ``k`` and ``alpha`` (else ConfigError).
    Returns a tuple of ModelParams and a history whose lists run over
    the epochs the stack trained: entry ``e`` is the tuple of every
    lane's value, None once that lane has stopped.  Each lane gets the
    bits its one-lane run gives.  ``max_epochs`` 0 returns the
    initialization.

    One ``(lanes, size)`` parameter buffer, with a gradient buffer and
    a learning-rate array of the same layout (classifier fast, drift
    head slow), stepped by one AdamW call per batch with one dropout
    mask for every lane.  Training and validation evidence is
    retrieved and fused once per distinct retrieval config (zeros for
    lanes with retrieval off); a training query sees training-split
    precedents only.  A drift-off lane's head starts at zero; its one
    nonzero gradient, ``drift_b2``'s, is zeroed, and AdamW maps a zero
    parameter with zero moments and a zero gradient to zero, so the
    head stays zero.  A lane stops after ``patience`` epochs without a
    strict validation micro-F1 improvement.  It stays in the stack,
    stepped with the others, until the last lane stops, but is no longer
    validated, checkpointed, logged or checked for a non-finite loss;
    its best checkpoint is a copy of its six arrays in its ModelParams.
    """
    retr_cfgs, cfgs = tuple(retr_cfgs), tuple(cfgs)
    _check_lanes(retr_cfgs, cfgs)
    corpus = splits.corpus
    store.check_alignment(corpus)
    labels_all = corpus.label_matrix(catalog).astype(np.float64)
    n_labels = len(catalog)
    train_ranks = list(splits.train_ranks)
    val_ranks = list(splits.val_ranks)
    if len(train_ranks) < 2:
        raise ConfigError("need at least 2 training cases")
    cfg = cfgs[0]  # for every field the lanes share
    lanes = []
    for c in cfgs:
        p = init_model_params(store.dim, n_labels, c,
                              (train_ranks[0], train_ranks[-1]))
        p.val_size, p.test_size = splits.n_val, splits.n_test
        lanes.append(p)

    # fused evidence per source, a retrieval config or None for the
    # lanes with retrieval off; ``source`` maps lanes to sources
    e_case_train = store.matrix[train_ranks]
    e_case_val = store.matrix[val_ranks]
    evidence: dict[RetrievalConfig | None, list] = {}
    source = []
    for p, r in zip(lanes, retr_cfgs):
        key = r if p.retrieval_on else None
        if key not in evidence:
            (_, ev, t_train), (_, ev_val, t_val) = (
                _precompute_inputs(ranks, store, labels_all, r, p, queries)
                for ranks, queries in ((train_ranks, e_case_train),
                                       (val_ranks, e_case_val)))
            evidence[key] = [ev, ev_val]
        source.append(list(evidence).index(key))
    source = np.array(source)
    ev_train, ev_val = (np.stack(ev) for ev in zip(*evidence.values()))
    del evidence
    y_train, y_val = labels_all[train_ranks], labels_all[val_ranks]

    like = lanes[0].all_arrays()
    theta = np.stack([np.concatenate(list(p.all_arrays().values()), axis=None)
                      for p in lanes])
    lr = np.full_like(theta, cfg.other_lr)
    lr[:, :like["w"].size + like["b"].size] = cfg.classifier_lr
    opt = AdamW({"theta": theta}, lr=lr, weight_decay=cfg.weight_decay)
    lam = np.array([c.lam if c.drift_on else 0.0 for c in cfgs])
    drift_off = np.array([not c.drift_on for c in cfgs])
    grad = np.empty_like(theta)
    params, grads = _views(theta, like), _views(grad, like)
    best_f1 = [-1.0] * len(lanes)
    stale = [0] * len(lanes)
    history: dict[str, list] = {"train_loss": [], "val_f1": []}
    order_rng = np.random.default_rng(cfg.seed + 1)
    n = len(train_ranks)

    for epoch in range(cfg.max_epochs):
        perm = order_rng.permutation(n)
        total, batches = np.zeros(len(lanes)), 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            bsz = len(idx)
            mask = _dropout_mask(
                (bsz, store.dim + n_labels), cfg.dropout,
                (cfg.seed * 1000003 + epoch * 9973 + start) * 131 + 7)
            _, drift, y_final, cache = _batch_forward(
                e_case_train[idx], ev_train[source[:, None], idx],
                t_train[idx], params, mask)
            value, d_y_final, d_drift = _batch_loss(
                y_final, drift, y_train[idx], lam)
            if not np.isfinite(value).all():
                bad = [lane for lane in np.flatnonzero(~np.isfinite(value))
                       if stale[lane] < cfg.patience]
                if bad:
                    raise NonFiniteError(
                        f"supervised training: non-finite loss at epoch "
                        f"{epoch} batch {batches} (lane {bad[0]})")
            total += value
            batches += 1
            _batch_backward(d_y_final, d_drift, cache, params, grads)
            grads["drift_b2"][drift_off] = 0.0
            opt.step({"theta": grad})
        losses, f1s = [None] * len(lanes), [None] * len(lanes)
        for lane in [i for i, s in enumerate(stale) if s < cfg.patience]:
            # lane by lane: a stacked (lanes, n_val, dim) input block
            # would raise the peak memory of the run
            views = _views(theta[lane], like)
            decisions = _decide(views, e_case_val, ev_val[source[lane]],
                                t_val).decisions
            losses[lane] = float(total[lane] / max(batches, 1))
            f1s[lane] = micro_f1(micro_confusion(decisions, y_val))
            log.info("lane %d epoch %d: train loss %.6f, val micro-F1 %.4f",
                     lane, epoch, losses[lane], f1s[lane])
            if f1s[lane] > best_f1[lane]:
                best_f1[lane] = f1s[lane]
                for name, arr in lanes[lane].all_arrays().items():
                    np.copyto(arr, views[name])
                stale[lane] = 0
            else:
                stale[lane] += 1
                if stale[lane] >= cfg.patience:
                    log.info("lane %d: early stop after epoch %d "
                             "(best %.4f)", lane, epoch, best_f1[lane])
        history["train_loss"].append(tuple(losses))
        history["val_f1"].append(tuple(f1s))
        if min(stale) >= cfg.patience:
            break
    return tuple(lanes), history


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
                          ) -> tuple[Prediction, tuple[Evidence, ...]]:
    """Full pipeline for one case: embed (or look up), then build its
    inputs and decide as ``infer`` does for a one-row batch at
    ``rank``.  A case in the store must be asked for at its store rank
    (else StoreMisalignedError): at a later rank its own row and the
    rows after it would pass as its precedents."""
    if case.case_id in store:
        if store.rank_of(case.case_id) != rank:
            raise StoreMisalignedError(
                f"case {case.case_id} is at store rank "
                f"{store.rank_of(case.case_id)}, asked for at rank {rank}")
        vec = store.matrix[rank]
    elif encoder is not None:
        vec = encode(featurize(case.text, encoder.hash_dim), encoder)[0]
    else:
        raise ConfigError(
            f"case {case.case_id} not in the embedding store and no "
            "encoder given to embed it")
    evidence: list[tuple[Evidence, ...]] = []
    e_case, e_ev, t = _precompute_inputs(
        [rank], store, labels, retr_cfg, params, vec.reshape(1, -1),
        evidence)
    return forward(e_case, e_ev, t, params), evidence[0]


def prediction_record(case_id: str, pred: Prediction,
                      catalog: LabelCatalog,
                      evidence: Sequence[Evidence]) -> dict:
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


_MODEL_FORMAT_VERSION = 3
_MODEL_SCHEMA = {
    "w": ("float", ("I", "L")), "b": ("float", ("L",)),
    "drift_w1": ("float", ("T", "K")), "drift_b1": ("float", ("K",)),
    "drift_w2": ("float", ("K", "L")), "drift_b2": ("float", ("L",)),
}
_MODEL_META_SCHEMA = {"train_rank_range": list, "retrieval_on": bool,
                      "drift_on": bool, "val_size": int, "test_size": int,
                      "config": dict}


def save_model(params: ModelParams, path: str | Path) -> None:
    """Versioned checkpoint with the six parameter arrays, the flags, the
    training-split rank range needed at inference, and the split sizes
    it was trained under."""
    save_npz(path, "model", _MODEL_FORMAT_VERSION, params.all_arrays(), {
        "train_rank_range": list(params.train_rank_range),
        "retrieval_on": params.retrieval_on,
        "drift_on": params.drift_on,
        "val_size": params.val_size, "test_size": params.test_size,
        "config": params.meta,
    })


def load_model(path: str | Path) -> ModelParams:
    arrays, meta = load_npz(path, "model", _MODEL_FORMAT_VERSION,
                            _MODEL_SCHEMA, _MODEL_META_SCHEMA)
    if arrays["drift_w1"].shape[0] != 1:
        raise IoFailureError(
            f"model checkpoint {path}: array 'drift_w1' has "
            f"{arrays['drift_w1'].shape[0]} rows, expected 1 (the drift "
            "input is one scalar)")
    rank_range = meta["train_rank_range"]
    if not (len(rank_range) == 2
            and all(type(r) is int for r in rank_range)
            and rank_range[0] < rank_range[1]):
        raise IoFailureError(
            f"model checkpoint {path}: train_rank_range {rank_range!r} "
            "is not two integers lo < hi")
    return ModelParams(
        **arrays, train_rank_range=tuple(rank_range),
        retrieval_on=meta["retrieval_on"], drift_on=meta["drift_on"],
        val_size=meta["val_size"], test_size=meta["test_size"],
        meta=meta["config"])
