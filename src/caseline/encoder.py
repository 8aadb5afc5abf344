"""Case text encoder and its contrastive training loop.

A two-layer feedforward network over hashed text features (ReLU hidden
layer with inverted dropout) produces dense case embeddings.  Training
is unsupervised: each document is encoded twice with independent
dropout masks and the two views form the positive pair of a
temperature-scaled softmax contrastive objective over in-batch
negatives (cosine similarities).  Inference disables dropout and
unit-normalizes the output.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .artifacts import load_npz, save_npz
from .corpus import CaseRecord, Corpus
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
    NonPositiveTemperatureError,
)
from .features import DEFAULT_HASH_DIM, SparseFeatures, featurize
from .optim import AdamW
from .store import EmbeddingStore

log = logging.getLogger(__name__)


@dataclass
class EncoderParams:
    """Weights of the two-layer encoder: hash_dim -> hidden -> out."""

    w1: np.ndarray  # (hash_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, out)
    b2: np.ndarray  # (out,)
    dropout: float

    @property
    def hash_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w2.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


@dataclass(frozen=True)
class ContrastiveConfig:
    """Contrastive training settings plus the encoder architecture."""

    temperature: float = 0.05
    batch_size: int = 8
    epochs: int = 3
    learning_rate: float = 1e-5
    seed: int = 0
    hash_dim: int = DEFAULT_HASH_DIM
    hidden_dim: int = 64
    out_dim: int = 256
    dropout: float = 0.2
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.temperature <= 0:
            raise NonPositiveTemperatureError(
                f"temperature must be > 0, got {self.temperature}")
        if self.batch_size < 2:
            raise ConfigError(
                f"batch_size must be >= 2 for in-batch negatives, got "
                f"{self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(
                f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 0 or not self.learning_rate > 0:
            raise ConfigError("epochs must be >= 0 and learning_rate > 0")
        for name in ("hash_dim", "hidden_dim", "out_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")


def init_encoder_params(cfg: ContrastiveConfig) -> EncoderParams:
    """Xavier-uniform weights, zero biases, seeded by cfg.seed."""
    rng = np.random.default_rng(cfg.seed)

    def xavier(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return EncoderParams(
        w1=xavier(cfg.hash_dim, cfg.hidden_dim),
        b1=np.zeros(cfg.hidden_dim),
        w2=xavier(cfg.hidden_dim, cfg.out_dim),
        b2=np.zeros(cfg.out_dim),
        dropout=cfg.dropout,
    )


def _dropout_mask(shape: int | tuple[int, ...], rate: float,
                  seed: int) -> np.ndarray | None:
    """Inverted-dropout mask drawn from the seed: each entry is kept
    with probability 1 - rate and scaled by 1 / (1 - rate).  None at
    rate 0, meaning no mask."""
    if rate <= 0.0:
        return None
    rng = np.random.default_rng(seed)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def _forward(feats: SparseFeatures, params: EncoderParams,
             mask: np.ndarray | None):
    """Raw output vector plus the cache needed for the backward pass."""
    if feats.hash_dim != params.hash_dim:
        raise DimensionMismatchError(
            f"features hashed to {feats.hash_dim} buckets but encoder "
            f"expects {params.hash_dim}")
    rows = params.w1[feats.indices]
    z1 = feats.weights @ rows + params.b1
    h = np.maximum(z1, 0.0)
    hd = h if mask is None else h * mask
    z2 = hd @ params.w2 + params.b2
    return z2, (feats, z1, hd, mask)


def _backward(dz2: np.ndarray, cache, params: EncoderParams,
              grads: dict[str, np.ndarray], w1_rows: np.ndarray,
              positions: np.ndarray) -> None:
    """Accumulate parameter gradients for one example into grads.

    The w1 gradient is row-sparse: w1_rows holds the rows of the batch's
    union of feature buckets, and positions maps this example's buckets
    into it.  Adding onto zeros in example order gives the same bits as
    the dense accumulation.
    """
    feats, z1, hd, mask = cache
    grads["b2"] += dz2
    grads["w2"] += np.outer(hd, dz2)
    dhd = params.w2 @ dz2
    dh = dhd if mask is None else dhd * mask
    dz1 = np.where(z1 > 0.0, dh, 0.0)
    grads["b1"] += dz1
    kernels.add_outer(w1_rows, positions, feats.weights, dz1)


def encode(feats: SparseFeatures, params: EncoderParams) -> np.ndarray:
    """Unit-normalized embedding of hashed features, dropout off."""
    z2, _ = _forward(feats, params, None)
    norm = np.linalg.norm(z2)
    if norm == 0.0:
        raise DimensionMismatchError("encoder produced a zero vector")
    return z2 / norm


def info_nce_loss(view0: np.ndarray, view1: np.ndarray, temperature: float):
    """Temperature-scaled softmax contrastive loss over in-batch negatives.

    view0 and view1 are (N, d) batches; row i of each is one stochastic
    encoding of document i.  Per row, the positive is the matching row
    of the other view and the negatives are the remaining rows; scores
    are cosine similarities divided by the temperature, and the loss is
    the mean negative log-softmax of the positive.  Returns
    (loss, grad_view0, grad_view1) with exact analytic gradients.
    """
    if temperature <= 0:
        raise NonPositiveTemperatureError(
            f"temperature must be > 0, got {temperature}")
    v0 = np.atleast_2d(np.asarray(view0, dtype=np.float64))
    v1 = np.atleast_2d(np.asarray(view1, dtype=np.float64))
    if v0.shape != v1.shape:
        raise DimensionMismatchError(
            f"view shapes differ: {v0.shape} vs {v1.shape}")
    if not (np.all(np.isfinite(v0)) and np.all(np.isfinite(v1))):
        raise DimensionMismatchError("non-finite values in views")
    n0 = np.linalg.norm(v0, axis=1, keepdims=True)
    n1 = np.linalg.norm(v1, axis=1, keepdims=True)
    if np.any(n0 == 0.0) or np.any(n1 == 0.0):
        raise DimensionMismatchError("zero-norm row in views")
    u = v0 / n0
    w = v1 / n1
    scores = (u @ w.T) / temperature
    n = scores.shape[0]
    # stabilized log-softmax per row
    row_max = scores.max(axis=1, keepdims=True)
    shifted = scores - row_max
    lse = np.log(np.exp(shifted).sum(axis=1)) + row_max[:, 0]
    loss = float(np.mean(lse - np.diagonal(scores)))

    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    dscores = probs.copy()
    dscores[np.diag_indices(n)] -= 1.0
    dscores /= n * temperature
    du = dscores @ w
    dw = dscores.T @ u
    # through the row normalization: project out the radial component
    dv0 = (du - (du * u).sum(axis=1, keepdims=True) * u) / n0
    dv1 = (dw - (dw * w).sum(axis=1, keepdims=True) * w) / n1
    return loss, dv0, dv1


def _fit(feats: list[SparseFeatures],
         cfg: ContrastiveConfig) -> tuple[EncoderParams, list[float]]:
    """Seeded mini-batch contrastive training; returns params and the
    mean loss of each epoch."""
    params = init_encoder_params(cfg)
    opt = AdamW(params.arrays(), lr=cfg.learning_rate,
                weight_decay=cfg.weight_decay)
    grads = {k: np.zeros_like(v) for k, v in params.arrays().items()
             if k != "w1"}
    order_rng = np.random.default_rng(cfg.seed + 1)
    n = len(feats)
    epoch_losses = []

    for epoch in range(cfg.epochs):
        order = order_rng.permutation(n)
        total, count = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            caches0, caches1 = [], []
            e0 = np.empty((len(batch), cfg.out_dim))
            e1 = np.empty((len(batch), cfg.out_dim))
            for j, i in enumerate(batch):
                base = ((cfg.seed * 1000003 + epoch * 9973 + start) * 131
                        + int(i)) * 2
                e0[j], c0 = _forward(feats[i], params, _dropout_mask(
                    params.hidden_dim, params.dropout, base))
                e1[j], c1 = _forward(feats[i], params, _dropout_mask(
                    params.hidden_dim, params.dropout, base + 1))
                caches0.append(c0)
                caches1.append(c1)
            where = f"epoch {epoch} batch {start // cfg.batch_size}"
            if not (np.isfinite(e0).all() and np.isfinite(e1).all()):
                raise NonFiniteError(
                    f"contrastive training: non-finite views at {where}")
            loss, d0, d1 = info_nce_loss(e0, e1, cfg.temperature)
            if not math.isfinite(loss):
                raise NonFiniteError(
                    f"contrastive training: non-finite loss at {where}")
            for g in grads.values():
                g.fill(0.0)
            # the batch's union of w1 rows; plain np.unique would import
            # numpy.ma, about 3 MB resident
            rows = np.sort(np.concatenate([feats[i].indices for i in batch]))
            rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
            w1_rows = np.zeros((len(rows), cfg.hidden_dim))
            for j, i in enumerate(batch):
                positions = np.searchsorted(rows, feats[i].indices)
                _backward(d0[j], caches0[j], params, grads, w1_rows,
                          positions)
                _backward(d1[j], caches1[j], params, grads, w1_rows,
                          positions)
            opt.step({**grads, "w1": w1_rows}, rows={"w1": rows})
            total += loss
            count += 1
            log.debug("contrastive epoch %d batch %d loss %.6f",
                      epoch, count - 1, loss)
        epoch_losses.append(total / max(count, 1))
        log.info("contrastive epoch %d mean loss %.6f", epoch, epoch_losses[-1])
    return params, epoch_losses


def train_encoder(train_cases: Sequence[CaseRecord],
                  cfg: ContrastiveConfig) -> EncoderParams:
    """Fit the encoder on training-split documents only.

    Each document in a batch is encoded twice with independent dropout
    masks and the contrastive objective pulls the twin encodings
    together against the rest of the batch.  Deterministic for fixed
    data and config; epochs=0 returns the initialization unchanged.
    """
    if not train_cases:
        raise ValueError("train_cases must be non-empty")
    feats = featurize([c.text for c in train_cases], cfg.hash_dim)
    params, _ = _fit(feats, cfg)
    return params


def contrastive_epoch_losses(train_cases: Sequence[CaseRecord],
                             cfg: ContrastiveConfig) -> list[float]:
    """Mean training loss per epoch, for loss-trend diagnostics."""
    if not train_cases:
        raise ValueError("train_cases must be non-empty")
    feats = featurize([c.text for c in train_cases], cfg.hash_dim)
    _, losses = _fit(feats, cfg)
    return losses


# Texts featurized per call in embed_corpus; bounds the features held
# at once on large corpora.  16 embedded 3,000 paper-default texts as
# fast as 64 did, and 64 left the heap about 0.3 MB larger.
_EMBED_CHUNK = 16


def embed_corpus(corpus: Corpus, params: EncoderParams) -> EmbeddingStore:
    """One embedding per case, unit rows, in rank order."""
    matrix = np.empty((len(corpus), params.out_dim))
    texts = [case.text for case in corpus]
    for start in range(0, len(texts), _EMBED_CHUNK):
        chunk = featurize(texts[start:start + _EMBED_CHUNK],
                          params.hash_dim)
        for rank, feats in enumerate(chunk, start=start):
            matrix[rank] = encode(feats, params)
    return EmbeddingStore(corpus.case_ids(), matrix)


# -- checkpointing --

_ENCODER_FORMAT = 1
_ENCODER_SCHEMA = {"w1": ("float", ("V", "H")), "b1": ("float", ("H",)),
                   "w2": ("float", ("H", "O")), "b2": ("float", ("O",))}


def save_encoder(params: EncoderParams, path: str | Path,
                 config_echo: dict | None = None) -> None:
    """Versioned checkpoint: all matrices plus a config echo."""
    save_npz(path, "encoder", _ENCODER_FORMAT, params.arrays(),
             {"dropout": params.dropout, "config": config_echo or {}})


def load_encoder(path: str | Path) -> tuple[EncoderParams, dict]:
    arrays, meta = load_npz(path, "encoder", _ENCODER_FORMAT,
                            _ENCODER_SCHEMA, {"dropout": (int, float),
                                              "config": dict})
    return EncoderParams(**arrays, dropout=float(meta["dropout"])), \
        meta["config"]
