"""Temporal-constrained precedent retrieval.

Candidates are the strictly-earlier cases in chronological rank order
(later cases are excluded from the pool outright, which is equivalent
to scoring them at -1 but can never surface one).  Earlier cases are
scored by cosine similarity damped by the rank distance between query
and candidate, all of them by the one decay law of decayed_similarity,
and the best k are returned, with their known label vectors, as a
tuple of Evidence for the classifier.

The pool is scanned newest first, one product per window: the first
window holds about a quarter of ``alpha * val_size`` rows, the next
reaches back to where the bound below falls under the k-th best score
so far.  No candidate older than gap g scores above ``|q| *
store.max_norm / (1 + g / (alpha * val_size))``, raised by a 1e-6
margin for the rounding of the products.  Once that bound is strictly
below the k-th best score so far, no older candidate can enter the top
k or tie with it, and the window is ranked as the whole pool would be.
Windows start at multiples of 64 rows and the newest holds at least
two (OpenBLAS groups a product's rows by four from its first row, and
takes another path for one row), so at one BLAS thread each cosine has
the bits of one product over the whole pool.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import lru_cache
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
    "decayed_similarity",
    "retrieve_precedents",
    "debug_table",
]
_ALIGN = 64  # every window of the scan starts at a multiple of this


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


def decayed_similarity(cosine: float | np.ndarray,
                       rank_gap: float | np.ndarray,
                       cfg: RetrievalConfig) -> float | np.ndarray:
    """Damp a cosine similarity by chronological distance.

    Returns ``cosine / (1 + rank_gap / (alpha * val_size))``: a gap of
    zero leaves the cosine untouched and a gap of ``alpha * val_size``
    halves it.  Scalars give a scalar; arrays are scored elementwise.
    The gap is the query rank minus the candidate rank and must be
    non-negative; a negative gap means a future case leaked past the
    mask, which is reported rather than scored.
    """
    least = np.min(rank_gap, initial=0)
    if least < 0:
        raise NegativeGapError(
            f"rank_gap must be non-negative, got {least} "
            "(future case leaked into the candidate pool)")
    return cosine / _damping(rank_gap, cfg.alpha, cfg.val_size)


def _damping(rank_gap, alpha: float, val_size: int):
    return 1.0 + rank_gap / (alpha * val_size)


@lru_cache(maxsize=8)
def _damping_row(n: int, alpha: float, val_size: int) -> np.ndarray:
    """Damping of gaps n .. 1; a pool of p rows takes the last p."""
    row = _damping(np.arange(n, 0, -1, dtype=np.float64), alpha, val_size)
    row.flags.writeable = False
    return row


def _scored_pool(query_rank: int, query_embedding: np.ndarray,
                 store: EmbeddingStore, cfg: RetrievalConfig,
                 candidate_limit: int | None, k: int):
    """Cosines, decayed scores and gaps of ranks ``lo .. pool_end-1``,
    the newest candidates, down to where no older one can reach the top
    ``k``: ``(pool_end, lo, cosines, gaps, scores, kth)``, where ``kth``
    is their k-th best score (-inf if they are fewer than ``k``)."""
    n = len(store.case_ids)
    if not 0 <= query_rank <= n:
        raise RankOutOfRangeError(
            f"query_rank {query_rank} outside store of {n} rows")
    if candidate_limit is not None and candidate_limit < 0:
        raise RankOutOfRangeError(
            f"candidate_limit {candidate_limit} is negative")
    pool_end = query_rank if candidate_limit is None \
        else min(query_rank, candidate_limit)
    q = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
    if q.shape[0] != store.dim:
        raise StoreMisalignedError(
            f"query dim {q.shape[0]} != store dim {store.dim}")
    norm = math.sqrt(q @ q)  # inf or nan if an entry is not finite
    if not math.isfinite(norm) and not np.isfinite(q).all():
        raise NonFiniteError(
            f"query at rank {query_rank} has a non-finite embedding")
    damping = _damping_row(n, cfg.alpha, cfg.val_size)[n - pool_end:]
    # Below 1e-150 squares may underflow and the norms undercount.
    reach = norm * store.max_norm * (1 + 1e-6) \
        if min(norm, store.max_norm) > 1e-150 else np.inf
    cosines, scores = np.empty(pool_end), np.empty(pool_end)
    unit = cfg.alpha * cfg.val_size
    lo, start, kth = pool_end, pool_end - max(2.0, unit / 4), -math.inf
    while lo > 0:
        hi, lo = lo, int(max(0, min(start, lo - 1))) // _ALIGN * _ALIGN
        cosines[lo:hi] = store.matrix[lo:hi] @ q
        scores[lo:hi] = cosines[lo:hi] / damping[lo:hi]
        start = 2 * lo - pool_end  # until k are scored, double the scan
        if 0 < k <= pool_end - lo:
            kth = float(np.partition(scores[lo:], pool_end - lo - k)[
                pool_end - lo - k])
            if not lo or reach / damping[lo - 1] < kth:
                break
            # next window: down to where the bound falls below kth
            start = pool_end - (reach / kth - 1) * unit if kth > 0 else 0
    gaps = np.arange(pool_end - lo, 0, -1, dtype=np.float64)
    return pool_end, lo, cosines[lo:], gaps, scores[lo:], kth


def _top_k(scores: np.ndarray, gaps: np.ndarray, k: int,
           kth: float) -> np.ndarray:
    """Positions of the best ``k`` candidates, best first, in the exact
    order of descending score, then ascending gap.  Every candidate of
    one query has a distinct gap, so the order is total.

    ``kth`` is the k-th best score (``np.partition``), and only the
    candidates scoring at least that much are sorted.  Ties at the k-th
    score are all kept, so the result equals the first k of a full sort.
    """
    keep = np.flatnonzero(scores >= kth)
    # lexsort sorts by the last key first.
    order = np.lexsort((gaps[keep], -scores[keep]))
    return keep[order[:max(k, 0)]]


def retrieve_precedents(query_rank: int, query_embedding: np.ndarray,
                        store: EmbeddingStore,
                        labels: np.ndarray | Sequence[np.ndarray],
                        cfg: RetrievalConfig,
                        candidate_limit: int | None = None
                        ) -> tuple[Evidence, ...]:
    """Top-k strictly-earlier cases by decayed similarity, best first.

    ``labels`` holds one label vector per store row, aligned by rank.
    ``candidate_limit``, when given, additionally caps the pool at
    ranks below that bound; a negative one is a RankOutOfRangeError.
    Ties on score prefer the smaller rank gap.  A non-finite query
    embedding is a NonFiniteError.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != len(store.case_ids):
        raise StoreMisalignedError(
            f"{labels.shape[0]} label rows for {len(store.case_ids)} "
            "store rows")
    _, lo, _, gaps, scores, kth = _scored_pool(
        query_rank, query_embedding, store, cfg, candidate_limit, cfg.k)
    best = _top_k(scores, gaps, cfg.k, kth)
    return tuple(
        Evidence(case_id=store.case_ids[r], rank=r, score=s,
                 labels=labels[r])
        for r, s in zip((best + lo).tolist(), scores[best].tolist()))


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
    pool_end, lo, cosines, gaps, scores, kth = _scored_pool(
        query_rank, query_embedding, store, cfg, None, top)

    def label_text(row: np.ndarray) -> str:
        if label_names is not None:
            return ",".join(n for n, bit in zip(label_names, row) if bit)
        return "".join(str(int(b)) for b in row)

    out = io.StringIO()
    out.write(f"query rank {query_rank}: {pool_end} candidate(s)\n")
    out.write(f"{'case_id':<24}{'cosine':>10}{'gap':>8}"
              f"{'score':>10}  labels\n")
    for i in _top_k(scores, gaps, top, kth):
        out.write(f"{store.case_ids[lo + i]:<24}{cosines[i]:>10.4f}"
                  f"{int(gaps[i]):>8}{scores[i]:>10.4f}"
                  f"  {label_text(labels[lo + i])}\n")
    n = len(store.case_ids)
    q = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
    for i in range(query_rank, min(query_rank + include_future, n)):
        cos = float(store.matrix[i] @ q)
        out.write(f"{store.case_ids[i]:<24}{cos:>10.4f}"
                  f"{query_rank - i:>8}{-1.0:>10.4f}"
                  f"  {label_text(labels[i])} (masked)\n")
    return out.getvalue()
