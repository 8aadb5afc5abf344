"""Shared fixtures: small corpora, encoders, and stores reused across
test modules (session-scoped where construction is not free)."""
from __future__ import annotations

import numpy as np
import pytest

from caseline.corpus import Corpus, LabelCatalog, chronological_split
from caseline.encoder import ContrastiveConfig, embed_corpus, train_encoder
from caseline.synthetic import DriftCorpusConfig, generate_drift_corpus, \
    synthetic_catalog

from case_factory import make_case


@pytest.fixture(scope="session")
def catalog4() -> LabelCatalog:
    return LabelCatalog(("A", "B", "C", "D"))


@pytest.fixture(scope="session")
def tiny_corpus(catalog4) -> Corpus:
    cases = [
        make_case("c0", 0, {"A"}, "alpha alpha bravo"),
        make_case("c1", 1, {"A", "B"}, "alpha bravo bravo charlie"),
        make_case("c2", 2, {"B"}, "bravo charlie"),
        make_case("c3", 3, {"C"}, "charlie delta delta"),
        make_case("c4", 4, {"C", "D"}, "delta echo"),
        make_case("c5", 5, {"D"}, "echo echo foxtrot"),
    ]
    return Corpus(cases)


@pytest.fixture(scope="session")
def drift_setup():
    """Small drift corpus with trained encoder and embedding store,
    split 160/40/40; expensive enough to build once per session."""
    cfg = DriftCorpusConfig(n_cases=240, vocab_size=600,
                            topic_words_per_label=40, seed=7)
    corpus = generate_drift_corpus(cfg)
    catalog = synthetic_catalog(cfg.n_labels)
    splits = chronological_split(corpus, 160, 40, 40)
    enc_cfg = ContrastiveConfig(hash_dim=1024, hidden_dim=32, out_dim=32,
                                epochs=1, learning_rate=1e-4, seed=7)
    enc = train_encoder(splits.train, enc_cfg)
    store = embed_corpus(corpus, enc)
    return {"cfg": cfg, "corpus": corpus, "catalog": catalog,
            "splits": splits, "enc_cfg": enc_cfg, "enc": enc,
            "store": store}


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
