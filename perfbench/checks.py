"""Independent correctness oracles for the benchmark's outputs.

None of these call caseline: the top-k oracle rescans every allowed
candidate in a Python loop, so a faster retrieval path is checked
against a scan that shares no code with it.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_NORM_TOLERANCE = 1e-9
SCORE_TOLERANCE = 1e-9


class Ops:
    """Attempted and failed operation counts, with the failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


def brute_force_topk(matrix: np.ndarray, case_ids: list[str],
                     query_rank: int, query: np.ndarray, pool_end: int,
                     k: int, alpha: float, val_size: int
                     ) -> list[tuple[int, float]]:
    """(rank, score) of the best k candidates among ranks < pool_end.

    Score is the cosine damped by ``1 + gap / (alpha * val_size)``
    with ``gap = query_rank - rank``; ties go to the smaller gap, then
    the smaller case_id.
    """
    scored = []
    for j in range(pool_end):
        cosine = float(np.dot(matrix[j], query))
        gap = query_rank - j
        score = cosine / (1.0 + gap / (alpha * val_size))
        scored.append((-score, gap, case_ids[j], j))
    scored.sort()
    return [(j, -neg) for neg, _, _, j in scored[:k]]


def same_topk(got: list[tuple[int, float]],
              want: list[tuple[int, float]]) -> bool:
    """Same ranks in the same order, scores equal to rounding."""
    return ([r for r, _ in got] == [r for r, _ in want]
            and all(math.isclose(a, b, rel_tol=SCORE_TOLERANCE,
                                 abs_tol=SCORE_TOLERANCE)
                    for (_, a), (_, b) in zip(got, want)))


def unit_rows(matrix: np.ndarray) -> bool:
    """Every row finite with L2 norm 1."""
    if not np.all(np.isfinite(matrix)):
        return False
    norms = np.linalg.norm(matrix, axis=1)
    return bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOLERANCE))


def sample_ranks(rng: np.random.Generator, ranks: range,
                 n: int) -> list[int]:
    """Up to n distinct ranks drawn from the range, ascending."""
    n = min(n, len(ranks))
    picked = rng.choice(len(ranks), size=n, replace=False)
    return sorted(ranks[int(i)] for i in picked)
