"""Micro-averaged metrics against hand grids and brute-force oracles."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline.errors import (
    LengthMismatchError,
    NonFiniteError,
    NoPositivesError,
    SingleClassError,
)
from caseline.metrics import (
    ConfusionCounts,
    MetricsReport,
    compute_report,
    format_report_table,
    micro_confusion,
    micro_f1,
    micro_jaccard,
    micro_pr_auc,
    micro_roc_auc,
)


def pairwise_roc(scores, truth):
    """P(positive outranks negative), ties half — by enumerating every
    (positive, negative) pair."""
    pos = [s for s, t in zip(scores, truth) if t]
    neg = [s for s, t in zip(scores, truth) if not t]
    wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
               for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def threshold_sweep_pr(scores, truth):
    """Average precision by cutting at each distinct score with >= and
    weighting precision by the recall gained at that cut."""
    scores = list(scores)
    truth = list(truth)
    n_pos = sum(truth)
    ap = 0.0
    prev_recall = 0.0
    for tau in sorted(set(scores), reverse=True):
        kept = [t for s, t in zip(scores, truth) if s >= tau]
        tp = sum(kept)
        precision = tp / len(kept)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestConfusion:
    def test_hand_grid(self):
        decisions = [[1, 1, 0, 0], [0, 1, 1, 0]]
        truth = [[1, 0, 1, 0], [0, 1, 0, 0]]
        counts = micro_confusion(decisions, truth)
        assert counts == ConfusionCounts(tp=2, fp=2, fn=1, tn=3)

    def test_pools_across_cases(self):
        a = micro_confusion([[1, 0], [0, 1]], [[1, 1], [0, 1]])
        b = micro_confusion([[1, 0, 0, 1]], [[1, 1, 0, 1]])
        assert a == b

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatchError):
            micro_confusion([[1, 0]], [[1, 0, 1]])

    def test_f1_and_jaccard_hand_values(self):
        counts = ConfusionCounts(tp=2, fp=1, fn=1, tn=5)
        assert math.isclose(micro_f1(counts), 2 / 3, abs_tol=1e-15)
        assert math.isclose(micro_jaccard(counts), 1 / 2, abs_tol=1e-15)

    def test_zero_denominator_convention(self):
        counts = ConfusionCounts(tp=0, fp=0, fn=0, tn=8)
        assert micro_f1(counts) == 0.0
        assert micro_jaccard(counts) == 0.0

    def test_perfect(self):
        counts = ConfusionCounts(tp=4, fp=0, fn=0, tn=4)
        assert micro_f1(counts) == 1.0
        assert micro_jaccard(counts) == 1.0

    @given(st.tuples(st.integers(0, 50), st.integers(0, 50),
                     st.integers(0, 50), st.integers(0, 50)))
    def test_f1_from_jaccard_identity(self, tpl):
        counts = ConfusionCounts(*tpl)
        f1, j = micro_f1(counts), micro_jaccard(counts)
        assert math.isclose(f1, 2 * j / (1 + j), abs_tol=1e-12)
        assert f1 >= j


class TestRocAuc:
    def test_perfect_separation(self):
        assert micro_roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_perfectly_wrong(self):
        assert micro_roc_auc([0.1, 0.9], [1, 0]) == 0.0

    def test_all_tied_is_half(self):
        assert micro_roc_auc([0.5, 0.5, 0.5], [1, 0, 1]) == 0.5

    def test_hand_value_with_tie(self):
        # pairs: (0.8>0.3)=1, (0.8>0.5)=1, (0.5==0.5)=0.5, (0.5>0.3)=1
        got = micro_roc_auc([0.8, 0.5, 0.5, 0.3], [1, 1, 0, 0])
        assert math.isclose(got, 3.5 / 4, abs_tol=1e-15)

    def test_single_class_raises(self):
        with pytest.raises(SingleClassError):
            micro_roc_auc([0.2, 0.8], [1, 1])
        with pytest.raises(SingleClassError):
            micro_roc_auc([0.2, 0.8], [0, 0])
        # a non-finite score is undefined too, named by its flat index
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteError, match="index 3"):
                micro_roc_auc([[0.9, 0.1], [0.6, bad]], [[1, 0], [0, 1]])

    def test_matrix_input_flattens(self):
        flat = micro_roc_auc([0.9, 0.1, 0.6, 0.4], [1, 0, 0, 1])
        mat = micro_roc_auc([[0.9, 0.1], [0.6, 0.4]], [[1, 0], [0, 1]])
        assert flat == mat

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_pairwise_oracle(self, data):
        n = data.draw(st.integers(2, 40))
        # coarse grid forces frequent ties; -0.0 must tie with 0.0
        scores = data.draw(st.lists(
            st.sampled_from([-0.0] + [round(x * 0.1, 1) for x in range(11)]),
            min_size=n, max_size=n))
        truth = data.draw(st.lists(st.integers(0, 1),
                                   min_size=n, max_size=n))
        if sum(truth) in (0, n):
            truth[0] = 1 - truth[0]
        got = micro_roc_auc(scores, truth)
        want = pairwise_roc(scores, truth)
        assert math.isclose(got, want, abs_tol=1e-12)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.random(60)
        truth = rng.integers(0, 2, size=60)
        truth[0], truth[1] = 0, 1
        a = micro_roc_auc(scores, truth)
        b = micro_roc_auc(np.exp(3.0 * scores) - 1.0, truth)
        assert math.isclose(a, b, abs_tol=1e-12)


class TestPrAuc:
    def test_perfect_ranking(self):
        assert micro_pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = [1.0 - 0.1 * i for i in range(n)]
        truth = [0] * (n - 1) + [1]
        assert math.isclose(micro_pr_auc(scores, truth), 1 / n,
                            abs_tol=1e-15)

    def test_hand_value(self):
        # descending: (0.9,pos) -> P=1 R=1/2; (0.7,neg); (0.6,pos) ->
        # P=2/3 R=1
        got = micro_pr_auc([0.9, 0.7, 0.6], [1, 0, 1])
        assert math.isclose(got, 0.5 * 1.0 + 0.5 * (2 / 3),
                            abs_tol=1e-15)

    def test_all_tied_equals_prevalence(self):
        got = micro_pr_auc([0.4, 0.4, 0.4, 0.4], [1, 0, 0, 1])
        assert math.isclose(got, 0.5, abs_tol=1e-15)

    def test_no_positives_raises(self):
        with pytest.raises(NoPositivesError):
            micro_pr_auc([0.2, 0.8], [0, 0])
        # a non-finite score is undefined too, named by its flat index
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteError, match="index 1"):
                micro_pr_auc([0.9, bad, 0.2, 0.5], [1, 1, 0, 0])
            with pytest.raises(NonFiniteError, match="index 1"):
                compute_report([[0.9, bad], [0.2, 0.5]], [[1, 1], [0, 0]],
                               [[1, 1], [0, 0]])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_threshold_sweep_oracle(self, data):
        n = data.draw(st.integers(1, 40))
        scores = data.draw(st.lists(
            st.sampled_from([-0.0] + [round(x * 0.1, 1) for x in range(11)]),
            min_size=n, max_size=n))
        truth = data.draw(st.lists(st.integers(0, 1),
                                   min_size=n, max_size=n))
        if sum(truth) == 0:
            truth[0] = 1
        got = micro_pr_auc(scores, truth)
        want = threshold_sweep_pr(scores, truth)
        assert math.isclose(got, want, abs_tol=1e-10)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.random(60)
        truth = rng.integers(0, 2, size=60)
        truth[0] = 1
        a = micro_pr_auc(scores, truth)
        b = micro_pr_auc(2.0 * scores + 5.0, truth)
        assert math.isclose(a, b, abs_tol=1e-12)


class TestReport:
    PROBS = [[0.9, 0.2], [0.3, 0.8]]
    DECS = [[1, 0], [0, 1]]
    TRUTH = [[1, 0], [0, 1]]

    def test_compute_report_fields(self):
        rep = compute_report(self.PROBS, self.DECS, self.TRUTH, seed=4)
        assert rep.micro_f1 == 1.0
        assert rep.micro_jaccard == 1.0
        assert rep.micro_roc_auc == 1.0
        assert rep.micro_pr_auc == 1.0
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (2, 0, 0, 2)
        assert rep.n_cases == 2
        assert rep.seed == 4
        assert rep.counts() == ConfusionCounts(2, 0, 0, 2)

    def test_single_class_reports_absent_roc(self):
        rep = compute_report([[0.9, 0.8]], [[1, 1]], [[1, 1]])
        assert rep.micro_roc_auc is None
        assert rep.micro_f1 == 1.0

    def test_json_round_trip(self):
        rep = compute_report(self.PROBS, self.DECS, self.TRUTH, seed=7)
        text = rep.to_json()
        assert "\n" not in text and " " not in text
        assert MetricsReport(**json.loads(text)) == rep
        # canonical form is byte-stable
        assert MetricsReport(**json.loads(text)).to_json() == text

    def test_json_round_trip_with_absent_roc(self):
        rep = compute_report([[0.9, 0.8]], [[1, 0]], [[1, 1]])
        again = MetricsReport(**json.loads(rep.to_json()))
        assert again.micro_roc_auc is None
        assert again == rep

    def test_json_keys_sorted(self):
        rep = compute_report(self.PROBS, self.DECS, self.TRUTH)
        keys = list(json.loads(rep.to_json()).keys())
        assert keys == sorted(keys)


class TestFormatTable:
    def _rep(self, f1):
        return MetricsReport(micro_f1=f1, micro_jaccard=f1 / 2,
                             micro_pr_auc=0.5, micro_roc_auc=0.75,
                             tp=1, fp=1, fn=1, tn=1, n_cases=2, seed=0)

    def test_single_run_row(self):
        table = format_report_table([("full", [self._rep(0.8)])])
        lines = table.strip().split("\n")
        assert lines[0].startswith("configuration")
        assert "micro-F1" in lines[0]
        assert "full" in lines[1]
        assert "0.800" in lines[1]
        assert lines[1].rstrip().endswith("1")

    def test_mean_and_std(self):
        table = format_report_table(
            [("cfg", [self._rep(0.6), self._rep(0.8)])])
        assert "0.700 +/- 0.141" in table

    def test_absent_column(self):
        rep = MetricsReport(micro_f1=0.5, micro_jaccard=0.3,
                            micro_pr_auc=0.4, micro_roc_auc=None,
                            tp=1, fp=1, fn=1, tn=1, n_cases=2, seed=0)
        assert "absent" in format_report_table([("solo", [rep])])

    def test_multiple_rows_aligned(self):
        table = format_report_table([("a", [self._rep(0.5)]),
                                     ("longer-name", [self._rep(0.9)])])
        lines = table.strip().split("\n")
        assert len(lines) == 3
        starts = [ln.index("0.") for ln in lines[1:]]
        assert starts[0] == starts[1]
