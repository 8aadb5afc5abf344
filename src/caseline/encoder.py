"""Case text encoder and its contrastive training loop.

A two-layer feedforward network over hashed text features (ReLU hidden
layer with inverted dropout) produces dense case embeddings.  Training
is unsupervised: each document is encoded twice with independent
dropout masks and the two views form the positive pair of a
temperature-scaled softmax contrastive objective over in-batch
negatives (cosine similarities).  Inference disables dropout and
unit-normalizes the output.

Both run a batch at a time: a batch's rows of a features.SparseBatch
become one dense block over the union of their buckets, so the
forward and backward passes are matrix products over that block and
the gathered w1 rows, and the w1 gradient covers those rows only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import load_npz, save_npz
from .corpus import CaseRecord, Corpus
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteError,
    NonPositiveTemperatureError,
)
from .features import DEFAULT_HASH_DIM, SparseBatch, featurize
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("hash_dim", "hidden_dim", "out_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")


def _xavier(rng: np.random.Generator, fan_in: int,
            fan_out: int) -> np.ndarray:
    """Xavier-uniform (fan_in, fan_out) weights drawn from rng."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_encoder_params(cfg: ContrastiveConfig) -> EncoderParams:
    """Xavier-uniform weights, zero biases, seeded by cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    return EncoderParams(
        w1=_xavier(rng, cfg.hash_dim, cfg.hidden_dim),
        b1=np.zeros(cfg.hidden_dim),
        w2=_xavier(rng, cfg.hidden_dim, cfg.out_dim),
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


def _forward(x: np.ndarray, rows: np.ndarray, params: EncoderParams,
             masks: np.ndarray | None):
    """Raw outputs of a block x (B, U) of features over the w1 rows
    ``rows``, plus the cache for _backward.  masks (V, B, H) gives V
    dropout views and outputs (V, B, out); None means no dropout and
    outputs (B, out)."""
    z1 = x @ params.w1[rows] + params.b1
    h = np.maximum(z1, 0.0)
    hd = h if masks is None else h * masks
    z2 = hd @ params.w2 + params.b2
    return z2, (x, z1, hd, masks)


def _backward(dz2: np.ndarray, cache,
              params: EncoderParams) -> dict[str, np.ndarray]:
    """Parameter gradients from dz2 (V, B, out), the gradient of
    _forward's outputs under masks.  The w1 gradient holds one row per
    row of the block's union."""
    x, z1, hd, masks = cache
    d = dz2.reshape(-1, params.out_dim)
    dh = (dz2 @ params.w2.T) * masks
    # summed over the views, which share z1
    dz1 = np.where(z1 > 0.0, dh, 0.0).sum(axis=0)
    return {"w1": x.T @ dz1, "b1": dz1.sum(axis=0),
            "w2": hd.reshape(-1, params.hidden_dim).T @ d,
            "b2": d.sum(axis=0)}


def encode(feats: SparseBatch, params: EncoderParams) -> np.ndarray:
    """Unit-normalized embeddings of a batch of hashed features, one
    row each, dropout off."""
    if feats.hash_dim != params.hash_dim:
        raise DimensionMismatchError(
            f"features hashed to {feats.hash_dim} buckets but encoder "
            f"expects {params.hash_dim}")
    rows, x = feats.block(np.arange(len(feats)))
    z2, _ = _forward(x, rows, params, None)
    norms = np.linalg.norm(z2, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DimensionMismatchError("encoder produced a zero vector")
    return z2 / norms


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
        raise NonFiniteError("non-finite values in views")
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


def _fit(feats: SparseBatch,
         cfg: ContrastiveConfig) -> tuple[EncoderParams, list[float]]:
    """Seeded mini-batch contrastive training; returns params and the
    mean loss of each epoch."""
    params = init_encoder_params(cfg)
    opt = AdamW(params.arrays(), lr=cfg.learning_rate,
                weight_decay=cfg.weight_decay)
    order_rng = np.random.default_rng(cfg.seed + 1)
    n = len(feats)
    epoch_losses = []

    for epoch in range(cfg.epochs):
        order = order_rng.permutation(n)
        total, count = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            # view v of example i draws its mask from seed 2 * (s + i) + v
            s = (cfg.seed * 1000003 + epoch * 9973 + start) * 131
            masks = np.ones((2, len(batch), params.hidden_dim))
            if params.dropout > 0.0:
                masks[:] = [[_dropout_mask(params.hidden_dim, params.dropout,
                                           2 * (s + i) + view)
                             for i in batch.tolist()] for view in (0, 1)]
            rows, x = feats.block(batch)
            views, cache = _forward(x, rows, params, masks)
            where = f"epoch {epoch} batch {start // cfg.batch_size}"
            if not np.isfinite(views).all():
                raise NonFiniteError(
                    f"contrastive training: non-finite views at {where}")
            loss, d0, d1 = info_nce_loss(views[0], views[1],
                                         cfg.temperature)
            if not math.isfinite(loss):
                raise NonFiniteError(
                    f"contrastive training: non-finite loss at {where}")
            opt.step(_backward(np.stack((d0, d1)), cache, params),
                     rows={"w1": rows})
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
    return _fit(featurize([c.text for c in train_cases], cfg.hash_dim),
                cfg)[0]


# Texts featurized and encoded per call in embed_corpus; bounds the
# features and the dense block held at once on large corpora.
_EMBED_CHUNK = 16


def embed_corpus(corpus: Corpus, params: EncoderParams) -> EmbeddingStore:
    """One embedding per case, unit rows, in rank order."""
    matrix = np.empty((len(corpus), params.out_dim))
    texts = [case.text for case in corpus]
    for start in range(0, len(texts), _EMBED_CHUNK):
        matrix[start:start + _EMBED_CHUNK] = encode(
            featurize(texts[start:start + _EMBED_CHUNK], params.hash_dim),
            params)
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
