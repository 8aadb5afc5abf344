"""Synthetic corpus with controllable temporal concept drift.

Desk-scale stand-in for a chronologically drifting legal corpus, used
by the evaluation harness to reproduce directional claims (a plain
classifier trained on the past degrades on the future; retrieval and
the drift head each claw part of that back).

Two drift mechanisms, both gated by ``rotation_rate``:

* **Association rotation** — each topical label owns a block of topic
  words, but which block signals which label rotates gradually with
  chronological position: by time ``t`` (in [0, 1]) the mapping has
  shifted ``rotation_rate * t`` block slots, interpolating between
  adjacent slots probabilistically.  A bag-of-words rule learned
  early is therefore partially wrong late.
* **Prevalence trend** — label base rates drift linearly in ``t``
  with alternating signs, amplitude tied to ``rotation_rate``, so the
  optimal per-label bias is time-dependent.

The last ``policy_labels`` labels are *policy outcomes*: they follow
the prevalence trend but emit no words, the way an outcome driven by
era-specific doctrine rather than case facts would.  Text can never
discriminate them case-by-case; only a model that consumes the time
coordinate can track their trend under drift.

``rotation_rate = 0`` disables both mechanisms and yields a
stationary corpus.  Generation is fully determined by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .corpus import CaseRecord, Corpus, LabelCatalog
from .errors import ConfigError

__all__ = [
    "DriftCorpusConfig",
    "synthetic_catalog",
    "generate_drift_corpus",
    "generate_cluster_corpus",
]


@dataclass(frozen=True)
class DriftCorpusConfig:
    """Generator knobs; rotation_rate 0 means fully stationary."""

    n_cases: int
    n_labels: int = 8
    vocab_size: int = 2000
    rotation_rate: float = 1.5
    noise_rate: float = 0.2
    seed: int = 0
    words_per_case: int = 40
    topic_words_per_label: int = 40
    base_prevalence: float = 0.25
    policy_labels: int = 2

    def __post_init__(self) -> None:
        if self.n_cases < 1:
            raise ConfigError("n_cases must be >= 1")
        if self.n_labels < 2:
            raise ConfigError("n_labels must be >= 2")
        if not 0 <= self.rotation_rate < math.inf:
            raise ConfigError("rotation_rate must be finite and >= 0, "
                              f"got {self.rotation_rate}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError("noise_rate must be in [0,1)")
        if not 0 <= self.policy_labels <= self.n_labels - 2:
            raise ConfigError(
                "policy_labels must leave at least two topical labels")
        n_topical = self.n_labels - self.policy_labels
        if self.vocab_size < n_topical * self.topic_words_per_label:
            raise ConfigError(
                "vocab_size too small for the label topic blocks")
        if self.words_per_case < 1:
            raise ConfigError("words_per_case must be >= 1")
        if not 0.0 < self.base_prevalence < 1.0:
            raise ConfigError("base_prevalence must be in (0,1)")


def synthetic_catalog(n_labels: int) -> LabelCatalog:
    """Label catalog T0..T{n-1} matching generated corpora."""
    return LabelCatalog(tuple(f"T{i}" for i in range(n_labels)))


def _prevalence(label: int, t: float, cfg: DriftCorpusConfig) -> float:
    """Label base rate at normalized time t: base_prevalence at
    mid-corpus with a linear trend of alternating sign, clipped away
    from 0 and 1."""
    amplitude = min(0.5, 0.35 * cfg.rotation_rate)
    sign = 1.0 if label % 2 == 0 else -1.0
    return min(0.95, max(0.03,
                         cfg.base_prevalence + sign * amplitude * (t - 0.5)))


def generate_drift_corpus(cfg: DriftCorpusConfig) -> Corpus:
    """Build the synthetic corpus; deterministic per config."""
    rng = np.random.default_rng(cfg.seed)
    n, labels_n = cfg.n_cases, cfg.n_labels
    n_topical = labels_n - cfg.policy_labels
    block = cfg.topic_words_per_label
    vocab = [f"w{i:05d}" for i in range(cfg.vocab_size)]
    n_topic_words = n_topical * block
    # Head-heavy word frequencies within each topic block so nearby
    # documents about the same topic share their most common words.
    zipf_cum = np.cumsum(1.0 / np.arange(1, block + 1, dtype=np.float64))
    zipf_cum /= zipf_cum[-1]
    start_day = date(2000, 1, 1)
    cases = []

    for r in range(n):
        t = r / (n - 1) if n > 1 else 0.0
        # labels from the time-dependent base rates, at least one set
        probs = np.array([_prevalence(lab, t, cfg)
                          for lab in range(labels_n)])
        bits = (rng.random(labels_n) < probs).astype(np.uint8)
        if not bits.any():
            bits[int(np.argmax(probs))] = 1
        positives = np.flatnonzero(bits)
        topical = positives[positives < n_topical]

        # rotation state at time t: integer slot shift plus the
        # probability of having advanced one more slot
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


def generate_cluster_corpus(n_cases: int, n_clusters: int = 10,
                            vocab_per_cluster: int = 50,
                            words_per_case: int = 30,
                            noise_rate: float = 0.2,
                            seed: int = 0) -> tuple[Corpus, np.ndarray]:
    """Stationary corpus of topically clustered documents.

    Returns the corpus and the cluster id per chronological rank;
    used to sanity-check that the contrastive encoder places
    same-cluster documents near each other.
    """
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
