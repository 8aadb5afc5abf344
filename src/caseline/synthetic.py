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
stationary corpus.  Generation is fully determined by the seed: a
corpus is defined by the scalar ``random()`` and ``integers(0, high)``
draws of ``np.random.default_rng(seed)``, one per decision, and
``_ScalarDraws`` replays that stream from chunks of raw generator
output, so no draw costs a numpy call.
"""

from __future__ import annotations

import bisect
import itertools
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
        if self.topic_words_per_label < 1:
            raise ConfigError("topic_words_per_label must be >= 1")
        n_topic_words = ((self.n_labels - self.policy_labels)
                         * self.topic_words_per_label)
        if self.vocab_size < n_topic_words:
            raise ConfigError(
                "vocab_size too small for the label topic blocks")
        # a noise draw, or a case with only policy labels, takes a
        # word from the vocabulary past the topic blocks
        if (self.vocab_size == n_topic_words
                and (self.noise_rate > 0 or self.policy_labels > 0)):
            raise ConfigError(
                "the topic blocks fill vocab_size, leaving no noise "
                "words for noise_rate > 0 or policy_labels > 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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


class _ScalarDraws:
    """The scalar ``random()`` and ``integers(0, high)`` draws of
    ``np.random.default_rng(seed)``, in the same order and with the
    same values, handed out from chunks of its raw 64-bit PCG64 output
    so that a Python loop makes no numpy call per draw.

    As in numpy, a double is the top 53 bits of a fresh raw word, and a
    32-bit draw is the buffered high half of an earlier word if there
    is one, else the low half of a fresh word, whose high half is then
    buffered (a double in between leaves the buffer alone).
    ``integers`` is Lemire's bounded method on 32-bit draws, as numpy
    uses it for ``high <= 2**32``.  Raw words are fetched ``chunk`` at
    a time, as they are used up.
    """

    def __init__(self, seed: int, chunk: int = 4096) -> None:
        bitgen = np.random.default_rng(seed).bit_generator
        self._next = itertools.chain.from_iterable(iter(
            lambda: bitgen.random_raw(chunk).tolist(), None)).__next__
        self._half: int | None = None

    def random(self) -> float:
        return (self._next() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._next()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, high: int) -> int:
        """One draw of ``integers(0, high)``, for 1 <= high <= 2**32."""
        if not 1 < high < 1 << 32:
            if high == 1:
                return 0    # numpy draws nothing for a one-value range
            if high == 1 << 32:
                return self._uint32()
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        m = self._uint32() * high
        if m & 0xFFFFFFFF < high:
            threshold = ((1 << 32) - high) % high
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * high
        return m >> 32


def generate_drift_corpus(cfg: DriftCorpusConfig) -> Corpus:
    """Build the synthetic corpus; deterministic per config."""
    draws = _ScalarDraws(cfg.seed)
    n, labels_n = cfg.n_cases, cfg.n_labels
    n_topical = labels_n - cfg.policy_labels
    block = cfg.topic_words_per_label
    vocab = [f"w{i:05d}" for i in range(cfg.vocab_size)]
    n_topic_words = n_topical * block
    n_noise_words = cfg.vocab_size - n_topic_words
    # Head-heavy word frequencies within each topic block so nearby
    # documents about the same topic share their most common words.
    zipf_cum = np.cumsum(1.0 / np.arange(1, block + 1, dtype=np.float64))
    zipf_cum /= zipf_cum[-1]
    zipf_cum = zipf_cum.tolist()  # the same floats, for bisect
    start_day = date(2000, 1, 1)
    cases = []

    for r in range(n):
        t = r / (n - 1) if n > 1 else 0.0
        # labels from the time-dependent base rates, at least one set
        probs = [_prevalence(lab, t, cfg) for lab in range(labels_n)]
        positives = [lab for lab, p in enumerate(probs)
                     if draws.random() < p]
        if not positives:
            positives = [probs.index(max(probs))]
        topical = [lab for lab in positives if lab < n_topical]

        # rotation state at time t: integer slot shift plus the
        # probability of having advanced one more slot
        shift = cfg.rotation_rate * t
        base_shift = math.floor(shift)
        frac = shift - base_shift

        n_words = cfg.words_per_case + draws.integers(11)
        words = []
        for _ in range(n_words):
            if draws.random() < cfg.noise_rate or not topical:
                words.append(
                    vocab[n_topic_words + draws.integers(n_noise_words)])
                continue
            lab = topical[draws.integers(len(topical))]
            slot = lab + base_shift + (1 if draws.random() < frac else 0)
            slot %= n_topical
            idx = bisect.bisect_right(zipf_cum, draws.random())
            words.append(vocab[slot * block + idx])

        cases.append(CaseRecord(
            case_id=f"D{r:05d}",
            title=f"Synthetic case {r}",
            decision_date=start_day + timedelta(days=r),
            articles=frozenset(f"T{lab}" for lab in positives),
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
    draws = _ScalarDraws(seed)
    noise_vocab = [f"n{i:04d}" for i in range(500)]
    start_day = date(2000, 1, 1)
    cases = []
    assignments = np.empty(n_cases, dtype=np.int64)
    for r in range(n_cases):
        cluster = draws.integers(n_clusters)
        assignments[r] = cluster
        words = []
        for _ in range(words_per_case):
            if draws.random() < noise_rate:
                words.append(noise_vocab[draws.integers(500)])
            else:
                words.append(f"c{cluster:02d}t"
                             f"{draws.integers(vocab_per_cluster):03d}")
        cases.append(CaseRecord(
            case_id=f"K{r:05d}",
            title=f"Cluster sample {r}",
            decision_date=start_day + timedelta(days=r),
            articles=frozenset((f"T{cluster % 2}",)),
            text=" ".join(words)))
    return Corpus(cases), assignments
