"""Temporal-constrained precedent retrieval.

Candidates are the strictly-earlier cases in chronological rank order
(later cases are excluded from the pool outright, which is equivalent
to scoring them at -1 but can never surface one).  Earlier cases are
scored by cosine similarity damped by the rank distance between query
and candidate, and the best k are returned together with their known
label vectors as evidence for the classifier.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    NegativeGapError,
    NonFiniteError,
    RankOutOfRangeError,
    StoreMisalignedError,
)
from .store import EmbeddingStore

__all__ = [
    "RetrievalConfig",
    "Evidence",
    "EvidenceSet",
    "decayed_similarity",
    "retrieve_precedents",
    "debug_table",
]


@dataclass(frozen=True)
class RetrievalConfig:
    """Knobs for precedent search.

    ``k`` is the number of evidence entries returned per query,
    ``alpha`` scales how slowly similarity decays with rank distance,
    and ``val_size`` is the validation-split size used as the unit of
    that distance (a gap of ``alpha * val_size`` halves the score).
    """

    k: int = 5
    alpha: float = 2.0
    val_size: int = 3000

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.val_size < 1:
            raise ConfigError(f"val_size must be >= 1, got {self.val_size}")


@dataclass(frozen=True)
class Evidence:
    """One retrieved precedent: its decayed score and known labels."""

    case_id: str
    rank: int
    score: float
    labels: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EvidenceSet:
    """Up to k Evidence entries for one query, best score first."""

    query_case_id: str
    entries: tuple[Evidence, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def decayed_similarity(cosine: float, rank_gap: float,
                       cfg: RetrievalConfig) -> float:
    """Damp a cosine similarity by chronological distance.

    Returns ``cosine / (1 + rank_gap / (alpha * val_size))``: a gap of
    zero leaves the cosine untouched and a gap of ``alpha * val_size``
    halves it.  The gap is the query rank minus the candidate rank and
    must be non-negative; a negative gap means a future case leaked
    past the mask, which is reported rather than scored.
    """
    if rank_gap < 0:
        raise NegativeGapError(
            f"rank_gap must be non-negative, got {rank_gap} "
            "(future case leaked into the candidate pool)")
    return cosine / (1.0 + rank_gap / (cfg.alpha * cfg.val_size))


def _scored_pool(query_rank: int, query_embedding: np.ndarray,
                 store: EmbeddingStore, cfg: RetrievalConfig,
                 candidate_limit: int | None):
    """Cosines, decayed scores and gaps for every allowed candidate.

    Returns ``(pool_end, cosines, gaps, scores)`` where the arrays
    cover ranks ``0 .. pool_end-1``.
    """
    n = len(store.case_ids)
    if not 0 <= query_rank <= n:
        raise RankOutOfRangeError(
            f"query_rank {query_rank} outside store of {n} rows")
    pool_end = query_rank if candidate_limit is None \
        else min(query_rank, candidate_limit)
    q = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
    if q.shape[0] != store.dim:
        raise StoreMisalignedError(
            f"query dim {q.shape[0]} != store dim {store.dim}")
    if not np.isfinite(q).all():
        raise NonFiniteError(
            f"query at rank {query_rank} has a non-finite embedding")
    cosines = store.matrix[:pool_end] @ q
    gaps = np.arange(pool_end, 0, -1, dtype=np.float64) \
        if pool_end else np.empty(0)
    # Same expression as decayed_similarity, vectorized.
    scores = cosines / (1.0 + gaps / (cfg.alpha * cfg.val_size))
    return pool_end, cosines, gaps, scores


def _top_k(scores: np.ndarray, gaps: np.ndarray, k: int) -> np.ndarray:
    """Positions of the best ``k`` candidates, best first, in the exact
    order of descending score, then ascending gap.  Every candidate of
    one query has a distinct gap, so the order is total.

    A partial partition finds the k-th best score, and only the
    candidates scoring at least that much are sorted.  Ties at the k-th
    score are all kept, so the result equals the first k of a full sort.
    """
    if k < 1:
        return np.empty(0, dtype=np.intp)
    if k < len(scores):
        kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
        keep = np.flatnonzero(scores >= kth)
    else:
        keep = np.arange(len(scores))
    # lexsort sorts by the last key first.
    order = np.lexsort((gaps[keep], -scores[keep]))
    return keep[order[:k]]


def retrieve_precedents(query_rank: int, query_embedding: np.ndarray,
                        store: EmbeddingStore,
                        labels: np.ndarray | Sequence[np.ndarray],
                        cfg: RetrievalConfig,
                        query_case_id: str = "",
                        candidate_limit: int | None = None) -> EvidenceSet:
    """Top-k strictly-earlier cases by decayed similarity.

    ``labels`` holds one label vector per store row, aligned by rank.
    ``candidate_limit``, when given, additionally caps the pool at
    ranks below that bound.  Ties on score prefer the smaller rank
    gap.  A non-finite query embedding is a NonFiniteError.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != len(store.case_ids):
        raise StoreMisalignedError(
            f"{labels.shape[0]} label rows for {len(store.case_ids)} "
            "store rows")
    _, _, gaps, scores = _scored_pool(
        query_rank, query_embedding, store, cfg, candidate_limit)
    entries = tuple(
        Evidence(case_id=store.case_ids[i], rank=int(i),
                 score=float(scores[i]), labels=labels[i])
        for i in _top_k(scores, gaps, cfg.k))
    return EvidenceSet(query_case_id, entries)


def debug_table(query_rank: int, query_embedding: np.ndarray,
                store: EmbeddingStore, labels: np.ndarray,
                cfg: RetrievalConfig,
                label_names: Sequence[str] | None = None,
                top: int = 10, include_future: int = 0) -> str:
    """Human-readable scoring table for one query.

    Lists the ``top`` best-scoring precedents with raw cosine, rank
    gap, decayed score and labels.  ``include_future`` appends that
    many immediately-following cases with their masked sentinel score
    of -1, to make the mask itself visible in the dump.
    """
    labels = np.asarray(labels)
    pool_end, cosines, gaps, scores = _scored_pool(
        query_rank, query_embedding, store, cfg, None)

    def label_text(row: np.ndarray) -> str:
        if label_names is not None:
            return ",".join(n for n, bit in zip(label_names, row) if bit)
        return "".join(str(int(b)) for b in row)

    out = io.StringIO()
    out.write(f"query rank {query_rank}: {pool_end} candidate(s)\n")
    out.write(f"{'case_id':<24}{'cosine':>10}{'gap':>8}"
              f"{'score':>10}  labels\n")
    for i in _top_k(scores, gaps, top):
        out.write(f"{store.case_ids[i]:<24}{cosines[i]:>10.4f}"
                  f"{int(gaps[i]):>8}{scores[i]:>10.4f}"
                  f"  {label_text(labels[i])}\n")
    n = len(store.case_ids)
    q = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
    for i in range(query_rank, min(query_rank + include_future, n)):
        cos = float(store.matrix[i] @ q)
        out.write(f"{store.case_ids[i]:<24}{cos:>10.4f}"
                  f"{query_rank - i:>8}{-1.0:>10.4f}"
                  f"  {label_text(labels[i])} (masked)\n")
    return out.getvalue()
