"""The scalar-``Generator`` generators that define every synthetic
corpus: one ``np.random.default_rng(seed)`` call per draw, written
for clarity, not speed.  ``caseline.synthetic`` replays the same draw
stream from raw output and must match these corpora byte for byte."""
from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np

from caseline.corpus import CaseRecord, Corpus
from caseline.synthetic import DriftCorpusConfig, _prevalence


def reference_drift_corpus(cfg: DriftCorpusConfig) -> Corpus:
    rng = np.random.default_rng(cfg.seed)
    n, labels_n = cfg.n_cases, cfg.n_labels
    n_topical = labels_n - cfg.policy_labels
    block = cfg.topic_words_per_label
    vocab = [f"w{i:05d}" for i in range(cfg.vocab_size)]
    n_topic_words = n_topical * block
    zipf_cum = np.cumsum(1.0 / np.arange(1, block + 1, dtype=np.float64))
    zipf_cum /= zipf_cum[-1]
    start_day = date(2000, 1, 1)
    cases = []

    for r in range(n):
        t = r / (n - 1) if n > 1 else 0.0
        probs = np.array([_prevalence(lab, t, cfg)
                          for lab in range(labels_n)])
        bits = (rng.random(labels_n) < probs).astype(np.uint8)
        if not bits.any():
            bits[int(np.argmax(probs))] = 1
        positives = np.flatnonzero(bits)
        topical = positives[positives < n_topical]

        shift = cfg.rotation_rate * t
        base_shift = math.floor(shift)
        frac = shift - base_shift

        n_words = cfg.words_per_case + int(rng.integers(0, 11))
        words = []
        for _ in range(n_words):
            if rng.random() < cfg.noise_rate or len(topical) == 0:
                words.append(vocab[n_topic_words
                                   + int(rng.integers(
                                       0, cfg.vocab_size
                                       - n_topic_words))])
                continue
            lab = int(topical[int(rng.integers(0, len(topical)))])
            slot = lab + base_shift + (1 if rng.random() < frac else 0)
            slot %= n_topical
            idx = int(np.searchsorted(zipf_cum, rng.random(), side="right"))
            words.append(vocab[slot * block + idx])

        cases.append(CaseRecord(
            case_id=f"D{r:05d}",
            title=f"Synthetic case {r}",
            decision_date=start_day + timedelta(days=r),
            articles=frozenset(f"T{int(lab)}" for lab in positives),
            text=" ".join(words)))
    return Corpus(cases)


def reference_cluster_corpus(n_cases: int, n_clusters: int = 10,
                             vocab_per_cluster: int = 50,
                             words_per_case: int = 30,
                             noise_rate: float = 0.2,
                             seed: int = 0) -> tuple[Corpus, np.ndarray]:
    rng = np.random.default_rng(seed)
    noise_vocab = [f"n{i:04d}" for i in range(500)]
    start_day = date(2000, 1, 1)
    cases = []
    assignments = np.empty(n_cases, dtype=np.int64)
    for r in range(n_cases):
        cluster = int(rng.integers(0, n_clusters))
        assignments[r] = cluster
        words = []
        for _ in range(words_per_case):
            if rng.random() < noise_rate:
                words.append(noise_vocab[int(rng.integers(0, 500))])
            else:
                words.append(f"c{cluster:02d}t"
                             f"{int(rng.integers(0, vocab_per_cluster)):03d}")
        cases.append(CaseRecord(
            case_id=f"K{r:05d}",
            title=f"Cluster sample {r}",
            decision_date=start_day + timedelta(days=r),
            articles=frozenset((f"T{cluster % 2}",)),
            text=" ".join(words)))
    return Corpus(cases), assignments
