"""Synthetic drifting-corpus generator: determinism, label/word
structure, the two drift mechanisms, and byte equality with the
scalar-``Generator`` reference in ``synthetic_reference``."""
from __future__ import annotations

import hashlib
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caseline.errors import ConfigError
from caseline.synthetic import (
    DriftCorpusConfig,
    _ScalarDraws,
    generate_cluster_corpus,
    generate_drift_corpus,
    synthetic_catalog,
)
from synthetic_reference import (
    reference_cluster_corpus,
    reference_drift_corpus,
)

BASE = DriftCorpusConfig(n_cases=300, n_labels=6, vocab_size=600,
                         topic_words_per_label=30, seed=11,
                         policy_labels=2)


def _word_indices(text):
    return [int(w[1:]) for w in text.split()]


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(n_cases=0),
        dict(n_labels=1),
        dict(rotation_rate=-0.5),
        dict(noise_rate=1.0),
        dict(noise_rate=-0.1),
        dict(policy_labels=-1),
        dict(policy_labels=5),          # leaves < 2 topical labels
        dict(vocab_size=100),           # < 4 topical blocks of 30
        dict(words_per_case=0),
        dict(base_prevalence=0.0),
        dict(base_prevalence=1.0),
        dict(rotation_rate=float("nan")),
        dict(rotation_rate=float("inf")),
        dict(topic_words_per_label=0),
        # the 4 topical blocks fill the vocabulary, yet a noise word
        # can be drawn: by the noise rate, or for a policy-only case
        dict(vocab_size=120, noise_rate=0.0),
        dict(vocab_size=180, policy_labels=0),
        dict(seed=-3),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            replace(BASE, **kw)

    def test_policy_labels_zero_allowed(self):
        replace(BASE, policy_labels=0)

    def test_full_vocabulary_without_noise_draws_allowed(self):
        cfg = replace(BASE, vocab_size=180, policy_labels=0,
                      noise_rate=0.0, n_cases=50)
        corpus = generate_drift_corpus(cfg)
        assert max(i for case in corpus.cases
                   for i in _word_indices(case.text)) < 180


class TestDriftCorpus:
    def test_deterministic(self):
        a = generate_drift_corpus(BASE)
        b = generate_drift_corpus(BASE)
        for ca, cb in zip(a.cases, b.cases):
            assert ca.case_id == cb.case_id
            assert ca.text == cb.text
            assert ca.articles == cb.articles
            assert ca.decision_date == cb.decision_date

    def test_seed_changes_content(self):
        a = generate_drift_corpus(BASE)
        b = generate_drift_corpus(replace(BASE, seed=12))
        assert any(ca.text != cb.text for ca, cb in zip(a.cases, b.cases))

    def test_shape_ids_and_dates(self):
        corpus = generate_drift_corpus(BASE)
        assert len(corpus.cases) == BASE.n_cases
        assert corpus.cases[0].case_id == "D00000"
        assert corpus.cases[-1].case_id == f"D{BASE.n_cases - 1:05d}"
        for i, case in enumerate(corpus.cases[1:], start=1):
            assert (case.decision_date
                    - corpus.cases[i - 1].decision_date
                    == timedelta(days=1))

    def test_every_case_has_a_label(self):
        corpus = generate_drift_corpus(BASE)
        catalog = synthetic_catalog(BASE.n_labels)
        for case in corpus.cases:
            assert len(case.articles) >= 1
            assert case.articles <= set(catalog.names)

    def test_labels_fit_default_catalog(self):
        corpus = generate_drift_corpus(BASE)
        catalog = synthetic_catalog(BASE.n_labels)
        mat = corpus.label_matrix(catalog)
        assert mat.shape == (BASE.n_cases, BASE.n_labels)
        assert (mat.sum(axis=1) >= 1).all()

    def test_policy_labels_emit_no_topic_words(self):
        """With noise off, topic-block words appear iff the case has a
        topical positive; policy-only cases draw from the noise tail."""
        cfg = replace(BASE, noise_rate=0.0, n_cases=400)
        corpus = generate_drift_corpus(cfg)
        n_topical = cfg.n_labels - cfg.policy_labels
        n_topic_words = n_topical * cfg.topic_words_per_label
        topical_names = {f"T{i}" for i in range(n_topical)}
        policy_only = topical_with_blocks = 0
        for case in corpus.cases:
            idxs = _word_indices(case.text)
            if case.articles & topical_names:
                assert all(i < n_topic_words for i in idxs), case.case_id
                topical_with_blocks += 1
            else:
                assert all(i >= n_topic_words for i in idxs), case.case_id
                policy_only += 1
        assert topical_with_blocks > 0
        assert policy_only > 0

    def test_stationary_words_stay_in_own_block(self):
        """rotation 0 + no noise: every word of a case comes from the
        block of one of its topical labels, at any time."""
        cfg = replace(BASE, rotation_rate=0.0, noise_rate=0.0)
        corpus = generate_drift_corpus(cfg)
        n_topical = cfg.n_labels - cfg.policy_labels
        for case in corpus.cases:
            topical = {int(name[1:]) for name in case.articles
                       if int(name[1:]) < n_topical}
            if not topical:
                continue
            blocks = {i // cfg.topic_words_per_label
                      for i in _word_indices(case.text)}
            assert blocks <= topical, case.case_id

    def test_integer_rotation_shifts_blocks_exactly(self):
        """rotation 2 at the final case (t = 1) maps label ell's words
        to block (ell + 2) mod n_topical with no interpolation."""
        cfg = replace(BASE, rotation_rate=2.0, noise_rate=0.0)
        corpus = generate_drift_corpus(cfg)
        n_topical = cfg.n_labels - cfg.policy_labels
        last = corpus.cases[-1]
        topical = {int(name[1:]) for name in last.articles
                   if int(name[1:]) < n_topical}
        if topical:
            expect = {(lab + 2) % n_topical for lab in topical}
            blocks = {i // cfg.topic_words_per_label
                      for i in _word_indices(last.text)}
            assert blocks <= expect

    def test_prevalence_trend_direction(self):
        """rotation on: even-label rates rise with time, odd fall;
        rotation off: both stay flat."""
        cfg = replace(BASE, n_cases=3000, rotation_rate=1.5)
        corpus = generate_drift_corpus(cfg)
        catalog = synthetic_catalog(cfg.n_labels)
        mat = corpus.label_matrix(catalog)
        q = cfg.n_cases // 4
        early, late = mat[:q], mat[-q:]
        assert late[:, 0].mean() - early[:, 0].mean() > 0.25
        assert early[:, 1].mean() - late[:, 1].mean() > 0.25
        # and the policy labels trend too (4 even, 5 odd)
        assert late[:, 4].mean() - early[:, 4].mean() > 0.25
        assert early[:, 5].mean() - late[:, 5].mean() > 0.25

        flat = generate_drift_corpus(replace(cfg, rotation_rate=0.0))
        fmat = flat.label_matrix(catalog)
        for lab in range(cfg.n_labels):
            gap = abs(fmat[-q:, lab].mean() - fmat[:q, lab].mean())
            assert gap < 0.08, lab

    def test_single_case_corpus(self):
        corpus = generate_drift_corpus(replace(BASE, n_cases=1))
        assert len(corpus.cases) == 1
        assert corpus.cases[0].text

    def test_noise_words_come_from_tail(self):
        cfg = replace(BASE, noise_rate=0.9)
        corpus = generate_drift_corpus(cfg)
        n_topic_words = ((cfg.n_labels - cfg.policy_labels)
                         * cfg.topic_words_per_label)
        tail = sum(i >= n_topic_words
                   for case in corpus.cases
                   for i in _word_indices(case.text))
        total = sum(len(case.text.split()) for case in corpus.cases)
        assert tail / total > 0.8


class TestSyntheticCatalog:
    def test_names_and_order(self):
        catalog = synthetic_catalog(4)
        assert tuple(catalog.names) == ("T0", "T1", "T2", "T3")
        assert catalog.index("T2") == 2


class TestClusterCorpus:
    def test_deterministic(self):
        a, asg_a = generate_cluster_corpus(80, n_clusters=5, seed=3)
        b, asg_b = generate_cluster_corpus(80, n_clusters=5, seed=3)
        np.testing.assert_array_equal(asg_a, asg_b)
        assert all(ca.text == cb.text for ca, cb in zip(a.cases, b.cases))

    def test_assignments_shape_and_range(self):
        corpus, asg = generate_cluster_corpus(60, n_clusters=4, seed=1)
        assert asg.shape == (60,)
        assert set(np.unique(asg)) <= set(range(4))
        assert len(corpus.cases) == 60

    def test_words_tagged_by_cluster(self):
        corpus, asg = generate_cluster_corpus(50, n_clusters=6,
                                              noise_rate=0.0, seed=2)
        for case, cluster in zip(corpus.cases, asg):
            prefix = f"c{cluster:02d}t"
            assert all(w.startswith(prefix) for w in case.text.split())

    def test_noise_words_distinct_namespace(self):
        corpus, _ = generate_cluster_corpus(50, n_clusters=3,
                                            noise_rate=1.0 - 1e-12,
                                            seed=4)
        words = {w for case in corpus.cases for w in case.text.split()}
        assert all(w.startswith("n") for w in words)


# --------------------------------------------------------------------
# The replayed draw stream against numpy's scalar Generator.

def _cases(corpus):
    return [(c.case_id, c.title, c.decision_date, c.articles, c.text)
            for c in corpus.cases]


class TestPinnedBytes:
    """``save_jsonl`` bytes of three corpora, fixed when every draw was
    a scalar ``Generator`` call."""

    @pytest.mark.parametrize("cfg, sha256", [
        (BASE,
         "31a3eb30d4594769f1314c3330d140372f7e6cdb55e3114b2d2df5bc261fdf12"),
        (replace(BASE, rotation_rate=0.0),
         "527ba53872de751e8ac06e59c1a307c5b5350ec30996ce196638c00c0dfe4a21"),
        # the benchmark workloads' settings at n = 200
        (DriftCorpusConfig(n_cases=200, noise_rate=0.3, vocab_size=2000,
                           rotation_rate=1.5),
         "dd71b3349df78bba94e3099b87d9e2283acae485ba17c6766098d8cf477f3a6a"),
    ], ids=["base", "stationary", "workload"])
    def test_corpus_bytes(self, cfg, sha256, tmp_path):
        path = tmp_path / "corpus.jsonl"
        generate_drift_corpus(cfg).save_jsonl(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


# ``integers(0, high)`` bounds: no draw, small, a 25% rejection rate
# for Lemire's method, the largest rejecting bound, a plain 32-bit draw
HIGHS = (1, 11, 3 * 2 ** 30 + 1, 2 ** 32 - 1, 2 ** 32)


class TestScalarDraws:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64), chunk=st.integers(1, 5),
           calls=st.lists(st.sampled_from((None,) + HIGHS), max_size=300))
    def test_matches_a_twin_generator(self, seed, chunk, calls):
        """Any mix of doubles and bounded integers, across chunk
        boundaries, gives numpy's values in numpy's order."""
        draws = _ScalarDraws(seed, chunk=chunk)
        rng = np.random.default_rng(seed)
        for high in calls + [None]:
            if high is None:
                assert draws.random() == rng.random()
            else:
                assert draws.integers(high) == int(rng.integers(0, high))

    @pytest.mark.parametrize("high", [0, -1, 2 ** 32 + 1])
    def test_rejects_bounds_outside_32_bits(self, high):
        with pytest.raises(ValueError):
            _ScalarDraws(0).integers(high)


@st.composite
def _drift_configs(draw):
    n_labels = draw(st.integers(2, 7))
    policy = draw(st.integers(0, n_labels - 2))
    block = draw(st.integers(1, 12))
    cfg = dict(
        n_cases=draw(st.integers(1, 30)), n_labels=n_labels,
        vocab_size=(n_labels - policy) * block + draw(st.integers(0, 40)),
        rotation_rate=draw(st.floats(0.0, 4.0)),
        noise_rate=draw(st.sampled_from((0.0, 0.3))
                        | st.floats(0.0, 0.999)),
        seed=draw(st.integers(0, 2 ** 64)),
        words_per_case=draw(st.integers(1, 25)),
        topic_words_per_label=block,
        base_prevalence=draw(st.floats(0.01, 0.99)),
        policy_labels=policy)
    try:
        return DriftCorpusConfig(**cfg)
    except ConfigError:
        assume(False)


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(cfg=_drift_configs())
    def test_drift_corpus(self, cfg):
        assert _cases(generate_drift_corpus(cfg)) \
            == _cases(reference_drift_corpus(cfg))

    @settings(max_examples=60, deadline=None)
    @given(n_cases=st.integers(1, 25),
           n_clusters=st.integers(1, 12) | st.sampled_from(HIGHS),
           vocab_per_cluster=st.integers(1, 60) | st.sampled_from(HIGHS),
           words_per_case=st.integers(0, 20),
           noise_rate=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 64))
    def test_cluster_corpus(self, n_cases, n_clusters, vocab_per_cluster,
                            words_per_case, noise_rate, seed):
        args = (n_cases, n_clusters, vocab_per_cluster, words_per_case,
                noise_rate, seed)
        corpus, assignments = generate_cluster_corpus(*args)
        want, want_assignments = reference_cluster_corpus(*args)
        np.testing.assert_array_equal(assignments, want_assignments)
        assert _cases(corpus) == _cases(want)
