"""Precedent scoring as one product over the whole candidate pool and
one full sort, written for clarity, not speed.  ``caseline.retrieval``
scans the pool in windows and stops early; at one BLAS thread (or any
store that OpenBLAS does not split across threads) it must return
these ranks, in this order, with these score bits."""
from __future__ import annotations

import numpy as np

from caseline.retrieval import RetrievalConfig, decayed_similarity
from caseline.store import EmbeddingStore


def reference_pool(query_rank: int, query: np.ndarray,
                   store: EmbeddingStore, cfg: RetrievalConfig,
                   candidate_limit: int | None = None):
    """``(cosines, gaps, scores)`` of every candidate, ranks ``0 ..
    pool_end-1``; gaps are measured from the pool end."""
    pool_end = query_rank if candidate_limit is None \
        else min(query_rank, candidate_limit)
    cosines = store.matrix[:pool_end] @ np.asarray(query, dtype=np.float64)
    gaps = np.arange(pool_end, 0, -1, dtype=np.float64)
    return cosines, gaps, decayed_similarity(cosines, gaps, cfg)


def reference_top(query_rank: int, query: np.ndarray,
                  store: EmbeddingStore, cfg: RetrievalConfig, k: int,
                  candidate_limit: int | None = None
                  ) -> list[tuple[int, float, float, float]]:
    """``(rank, cosine, gap, score)`` of the best ``k`` candidates, by
    descending score, then ascending gap."""
    cosines, gaps, scores = reference_pool(query_rank, query, store, cfg,
                                           candidate_limit)
    order = np.lexsort((gaps, -scores))[:max(k, 0)]
    return [(int(i), float(cosines[i]), float(gaps[i]), float(scores[i]))
            for i in order]
