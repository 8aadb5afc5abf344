"""Micro-averaged multi-label metrics.

All metrics pool every (case, label) pair into a single binary
problem before computing anything ("micro" averaging): one confusion
table for the thresholded decisions, one flat score/bit list for the
ranking metrics.  ROC-AUC uses the rank-statistic form with average
ranks over ties; PR-AUC is average precision with tied scores grouped
at a single threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .artifacts import canonical_json
from .errors import (
    LengthMismatchError,
    NonFiniteError,
    NoPositivesError,
    SingleClassError,
)

__all__ = [
    "ConfusionCounts",
    "micro_confusion",
    "micro_f1",
    "micro_jaccard",
    "micro_roc_auc",
    "micro_pr_auc",
    "MetricsReport",
    "compute_report",
    "mean_std",
    "format_report_table",
]


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    fn: int
    tn: int


def _as_bit_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise LengthMismatchError(f"{name} must be 2-D (cases x labels)")
    return arr.astype(np.int64)


def micro_confusion(decisions, truth) -> ConfusionCounts:
    """Pooled confusion counts over all (case, label) pairs."""
    d = _as_bit_matrix(decisions, "decisions")
    t = _as_bit_matrix(truth, "truth")
    if d.shape != t.shape:
        raise LengthMismatchError(
            f"decisions shape {d.shape} != truth shape {t.shape}")
    tp = int(np.sum((d == 1) & (t == 1)))
    fp = int(np.sum((d == 1) & (t == 0)))
    fn = int(np.sum((d == 0) & (t == 1)))
    tn = int(np.sum((d == 0) & (t == 0)))
    return ConfusionCounts(tp, fp, fn, tn)


def micro_f1(counts: ConfusionCounts) -> float:
    """2TP / (2TP + FP + FN); 0 when the denominator is 0."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    return 2 * counts.tp / denom if denom else 0.0


def micro_jaccard(counts: ConfusionCounts) -> float:
    """TP / (TP + FP + FN); 0 when the denominator is 0."""
    denom = counts.tp + counts.fp + counts.fn
    return counts.tp / denom if denom else 0.0


def _flatten_scores(scores, truth) -> tuple[np.ndarray, np.ndarray]:
    """Flat float scores and int truth bits; a NaN or infinite score
    has no place in a ranking and is a NonFiniteError."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    t = np.asarray(truth).reshape(-1).astype(np.int64)
    if s.shape[0] != t.shape[0]:
        raise LengthMismatchError(
            f"{s.shape[0]} scores for {t.shape[0]} truth bits")
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise NonFiniteError(
            f"score at flat index {bad[0]} is {s[bad[0]]}, not finite")
    return s, t


def _runs(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Size and positive count of each run of equal scores, in
    ascending score order (-0.0 and 0.0 are one run)."""
    order = np.argsort(s, kind="stable")
    s = s[order]
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]) + 1, s.shape[0])
    pos_seen = np.cumsum(t[order])[ends - 1]
    return np.diff(ends, prepend=0), np.diff(pos_seen, prepend=0)


def micro_roc_auc(scores, truth) -> float:
    """P(score of a positive > score of a negative) + half the ties.

    Computed from the rank-sum statistic over the pooled pairs, which
    equals pairwise comparison counting with ties worth one half.
    """
    s, t = _flatten_scores(scores, truth)
    n_pos = int(t.sum())
    n_neg = t.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"ROC-AUC undefined with {n_pos} positives and {n_neg} "
            "negatives")
    sizes, pos = _runs(s, t)
    end = np.cumsum(sizes)
    start = end - sizes
    # A run's members share the average of its 1-based ranks.  Every
    # term is a half-integer, so the sum is exact in any order.
    rank_sum_pos = float(((start + end - 1) / 2.0 + 1.0) @ pos)
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def micro_pr_auc(scores, truth) -> float:
    """Average precision: sum of precision x recall-increment over the
    distinct score thresholds, descending, with tied scores entering
    together."""
    s, t = _flatten_scores(scores, truth)
    n_pos = int(t.sum())
    if n_pos == 0:
        raise NoPositivesError("PR-AUC undefined without positives")
    sizes, pos = (a[::-1] for a in _runs(s, t))
    terms = (pos / n_pos) * (np.cumsum(pos) / np.cumsum(sizes))
    # Added strictly left to right: np.sum adds pairwise, which can
    # change the last bits of the reported value.
    return float(np.add.accumulate(terms)[-1])


@dataclass(frozen=True)
class MetricsReport:
    """Metric bundle for one evaluation run.

    micro_roc_auc is None when the pooled truth contains a single
    class (the metric is reported as absent, never as 0).
    """

    micro_f1: float
    micro_jaccard: float
    micro_pr_auc: float
    micro_roc_auc: float | None
    tp: int
    fp: int
    fn: int
    tn: int
    n_cases: int
    seed: int

    def counts(self) -> ConfusionCounts:
        return ConfusionCounts(self.tp, self.fp, self.fn, self.tn)

    def to_json(self) -> str:
        """Canonical single-line JSON (stable key order, no spaces)."""
        return canonical_json({k: getattr(self, k) for k in (
            "micro_f1", "micro_jaccard", "micro_pr_auc", "micro_roc_auc",
            "tp", "fp", "fn", "tn", "n_cases", "seed")})


def compute_report(probabilities, decisions, truth,
                   seed: int = 0) -> MetricsReport:
    """All four micro metrics from per-case probability and decision
    matrices against the truth matrix."""
    counts = micro_confusion(decisions, truth)
    try:
        roc = micro_roc_auc(probabilities, truth)
    except SingleClassError:
        roc = None
    return MetricsReport(
        micro_f1=micro_f1(counts),
        micro_jaccard=micro_jaccard(counts),
        micro_pr_auc=micro_pr_auc(probabilities, truth),
        micro_roc_auc=roc,
        tp=counts.tp, fp=counts.fp, fn=counts.fn, tn=counts.tn,
        n_cases=_as_bit_matrix(truth, "truth").shape[0],
        seed=seed)


# The metrics a summary over several reports covers, in table order.
SUMMARY_METRICS = ("micro_f1", "micro_jaccard", "micro_pr_auc",
                   "micro_roc_auc")


def mean_std(reports: Sequence[MetricsReport], attr: str
             ) -> tuple[float, float] | None:
    """Mean and sample (n - 1) std of one metric over ``reports``, the
    std 0 for a single report; None if any report lacks the metric."""
    vals = [getattr(r, attr) for r in reports]
    if any(v is None for v in vals):
        return None
    mean = sum(vals) / len(vals)
    if len(vals) < 2:
        return mean, 0.0
    return mean, math.sqrt(sum((v - mean) ** 2 for v in vals)
                           / (len(vals) - 1))


def format_report_table(rows: Sequence[tuple[str, Sequence[MetricsReport]]]
                        ) -> str:
    """Aligned text table: one line per named configuration with
    mean +/- std over its reports for each metric."""
    headers = ["configuration", "micro-F1", "micro-Jaccard",
               "micro-PR-AUC", "micro-ROC-AUC", "runs"]
    lines = []
    for name, reports in rows:
        cells = [name]
        for attr in SUMMARY_METRICS:
            stats = mean_std(reports, attr)
            if stats is None:
                cells.append("absent")
            elif len(reports) > 1:
                cells.append(f"{stats[0]:.3f} +/- {stats[1]:.3f}")
            else:
                cells.append(f"{stats[0]:.3f}")
        cells.append(str(len(reports)))
        lines.append(cells)
    widths = [max(len(h), *(len(row[i]) for row in lines)) if lines
              else len(h) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in lines:
        out.append("  ".join(c.ljust(w)
                             for c, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"
