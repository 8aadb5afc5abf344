"""Experiment harness: spec construction, result serialization, the
plain reference classifier, and a small end-to-end ablation run."""
from __future__ import annotations

import csv
import io
import json
import weakref

import numpy as np
import pytest

import caseline.ablation
from caseline.ablation import (
    AblationCell,
    AblationResult,
    AblationSpec,
    plain_probabilities,
    run_ablation,
    synthetic_experiment,
    train_plain_classifier,
)
from caseline.corpus import chronological_split
from caseline.encoder import ContrastiveConfig
from caseline.errors import ConfigError
from caseline.metrics import MetricsReport
from caseline.model import TrainConfig
from caseline.retrieval import RetrievalConfig
from caseline.synthetic import (
    DriftCorpusConfig,
    generate_drift_corpus,
    synthetic_catalog,
)


def _report(f1, seed=0):
    return MetricsReport(micro_f1=f1, micro_jaccard=f1 / 2,
                         micro_pr_auc=0.5, micro_roc_auc=0.6,
                         tp=2, fp=1, fn=1, tn=4, n_cases=2, seed=seed)


class TestSpec:
    def test_flag_matrix_cells(self):
        spec = AblationSpec.flag_matrix()
        names = [c.name for c in spec.cells]
        assert names == ["full", "no-retrieval", "no-drift", "plain"]
        flags = {c.name: (c.retrieval_on, c.drift_on)
                 for c in spec.cells}
        assert flags["full"] == (True, True)
        assert flags["no-retrieval"] == (False, True)
        assert flags["no-drift"] == (True, False)
        assert flags["plain"] == (False, False)

    def test_k_sweep(self):
        spec = AblationSpec.k_sweep((2, 4))
        assert [c.name for c in spec.cells] == ["k=2", "k=4"]
        assert [c.k for c in spec.cells] == [2, 4]
        assert all(c.retrieval_on and c.drift_on for c in spec.cells)

    def test_alpha_sweep_formats_large_values(self):
        spec = AblationSpec.alpha_sweep((1.0, 1e10))
        assert [c.name for c in spec.cells] == ["alpha=1", "alpha=1e+10"]

    def test_lam_sweep(self):
        spec = AblationSpec.lam_sweep((0.0, 0.25))
        assert [c.name for c in spec.cells] == ["lambda=0",
                                                "lambda=0.25"]
        assert [c.lam for c in spec.cells] == [0.0, 0.25]

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            AblationSpec(cells=())

    def test_duplicate_cell_names_rejected(self):
        """A cell name identifies one cell's rows and its training lane,
        so two cells may not share one."""
        with pytest.raises(ConfigError, match="'full' is used 2 times"):
            AblationSpec(cells=(AblationCell("full"),
                                AblationCell("full", drift_on=False)))


class TestResult:
    def _result(self):
        return AblationResult(rows=(
            ("full", 0, _report(0.8, 0)),
            ("full", 1, _report(0.6, 1)),
            ("plain", 0, _report(0.4, 0)),
        ))

    def test_cell_names_preserve_order(self):
        assert self._result().cell_names() == ["full", "plain"]

    def test_mean_f1(self):
        res = self._result()
        assert res.mean_f1("full") == pytest.approx(0.7)
        assert res.mean_f1("plain") == pytest.approx(0.4)

    def test_summary_stats(self):
        summary = {e["cell"]: e for e in self._result().summary()}
        assert summary["full"]["runs"] == 2
        assert summary["full"]["micro_f1_mean"] == pytest.approx(0.7)
        assert summary["full"]["micro_f1_std"] \
            == pytest.approx(np.std([0.8, 0.6], ddof=1))
        assert summary["plain"]["micro_f1_std"] == 0.0

    def test_json_round_trips_rows(self):
        payload = json.loads(self._result().to_json())
        assert len(payload["rows"]) == 3
        row = payload["rows"][0]
        assert row["cell"] == "full"
        assert row["seed"] == 0
        assert row["report"]["micro_f1"] == 0.8
        assert {e["cell"] for e in payload["summary"]} \
            == {"full", "plain"}

    def test_text_table(self):
        text = self._result().to_text()
        assert "full" in text and "plain" in text
        assert "0.700 +/- 0.141" in text

    def test_csv_parses(self):
        rows = list(csv.DictReader(io.StringIO(self._result().to_csv())))
        assert len(rows) == 3
        assert rows[0]["cell"] == "full"
        assert float(rows[0]["micro_f1"]) == 0.8
        assert rows[2]["seed"] == "0"


class TestPlainClassifier:
    def test_fits_linearly_separable_data(self, rng):
        n, d = 200, 6
        x = rng.standard_normal((n, d))
        w_true = rng.standard_normal((d, 3))
        y = (x @ w_true > 0).astype(np.uint8)
        w, b = train_plain_classifier(x, y, lr=0.1, epochs=200)
        probs = plain_probabilities(x, w, b)
        acc = ((probs >= 0.5).astype(np.uint8) == y).mean()
        assert acc > 0.97

    def test_deterministic(self, rng):
        x = rng.standard_normal((50, 4))
        y = rng.integers(0, 2, size=(50, 2)).astype(np.uint8)
        w1, b1 = train_plain_classifier(x, y, epochs=30)
        w2, b2 = train_plain_classifier(x, y, epochs=30)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)

    def test_probabilities_in_range(self, rng):
        x = rng.standard_normal((20, 4)) * 50
        w = rng.standard_normal((4, 2)) * 10
        p = plain_probabilities(x, w, np.zeros(2))
        assert np.isfinite(p).all()
        assert ((p >= 0) & (p <= 1)).all()


class TestRunAblation:
    def test_small_flag_matrix_run(self):
        cfg = DriftCorpusConfig(n_cases=160, n_labels=6, vocab_size=600,
                                topic_words_per_label=30, seed=3)
        corpus = generate_drift_corpus(cfg)
        catalog = synthetic_catalog(cfg.n_labels)
        splits = chronological_split(corpus, 120, 20, 20)
        enc_cfg = ContrastiveConfig(hash_dim=512, hidden_dim=16,
                                    out_dim=16, epochs=1,
                                    learning_rate=1e-4, seed=3)
        retr_cfg = RetrievalConfig(k=3, alpha=2.0, val_size=20)
        train_cfg = TrainConfig(max_epochs=2, seed=3)
        result = run_ablation(AblationSpec.flag_matrix(), splits,
                              catalog, [3, 4], enc_cfg, retr_cfg,
                              train_cfg)
        assert len(result.rows) == 8  # 4 cells x 2 seeds
        assert result.cell_names() == ["full", "no-retrieval",
                                       "no-drift", "plain"]
        for name, seed, report in result.rows:
            assert seed in (3, 4)
            assert 0.0 <= report.micro_f1 <= 1.0
            assert report.n_cases == 20

    def test_cell_overrides_apply(self):
        """A lam-sweep with lam 0 must reduce to the no-penalty
        objective: it equals an explicit lam-0 base config run."""
        cfg = DriftCorpusConfig(n_cases=120, n_labels=6, vocab_size=600,
                                topic_words_per_label=30, seed=5)
        corpus = generate_drift_corpus(cfg)
        catalog = synthetic_catalog(cfg.n_labels)
        splits = chronological_split(corpus, 80, 20, 20)
        enc_cfg = ContrastiveConfig(hash_dim=512, hidden_dim=16,
                                    out_dim=16, epochs=1,
                                    learning_rate=1e-4, seed=5)
        retr_cfg = RetrievalConfig(k=3, alpha=2.0, val_size=20)
        sweep = run_ablation(
            AblationSpec.lam_sweep((0.0,)), splits, catalog, [5],
            enc_cfg, retr_cfg, TrainConfig(max_epochs=2, seed=5,
                                           lam=0.4))
        direct = run_ablation(
            AblationSpec(cells=(AblationCell("base"),)), splits,
            catalog, [5], enc_cfg, retr_cfg,
            TrainConfig(max_epochs=2, seed=5, lam=0.0))
        assert sweep.rows[0][2] == direct.rows[0][2]

    def test_each_seed_frees_its_encoder_and_store(self, monkeypatch):
        """A seed's encoder dies once its store is built, and its store
        before the next seed's encoder trains."""
        cfg = DriftCorpusConfig(n_cases=120, n_labels=6, vocab_size=600,
                                topic_words_per_label=30, seed=5)
        splits = chronological_split(generate_drift_corpus(cfg), 80, 20, 20)
        refs, alive = [], []

        def probe(fn, when):
            def wrapper(*args, **kwargs):
                alive.append((when, [r() is not None for r in refs]))
                out = fn(*args, **kwargs)
                if when != "train":
                    refs.append(weakref.ref(out))
                return out
            return wrapper
        for name, when in (("train_encoder", "encoder"),
                           ("embed_corpus", "embed"),
                           ("train_with_history", "train")):
            monkeypatch.setattr(caseline.ablation, name, probe(
                getattr(caseline.ablation, name), when))
        run_ablation(AblationSpec(cells=(AblationCell("full"),)), splits,
                     synthetic_catalog(cfg.n_labels), [0, 1],
                     ContrastiveConfig(hash_dim=512, hidden_dim=16,
                                       out_dim=16, epochs=1,
                                       learning_rate=1e-4),
                     RetrievalConfig(k=3, alpha=2.0, val_size=20),
                     TrainConfig(max_epochs=1))
        assert alive == [
            ("encoder", []), ("embed", [True]), ("train", [False, True]),
            ("encoder", [False, False]), ("embed", [False, False, True]),
            ("train", [False, False, False, True])]


class TestDriftGapExperiment:
    def test_structure_and_determinism(self):
        from caseline.ablation import drift_gap_experiment
        cfg = DriftCorpusConfig(n_cases=200, n_labels=6, vocab_size=600,
                                topic_words_per_label=30, seed=1)
        a = drift_gap_experiment(cfg, n_seeds=2, hash_dim=512,
                                 epochs=30)
        b = drift_gap_experiment(cfg, n_seeds=2, hash_dim=512,
                                 epochs=30)
        assert a == b
        assert len(a["chronological"]) == 2
        assert len(a["random"]) == 2
        assert a["gap"] == pytest.approx(
            a["random_mean"] - a["chronological_mean"])
        assert all(0.0 <= f <= 1.0
                   for f in a["chronological"] + a["random"])


class TestSyntheticExperiment:
    def test_setup_shapes(self):
        setup = synthetic_experiment(n_cases=200, rotation_rate=1.0,
                                     seed=2)
        assert setup.corpus_cfg.n_cases == 200
        assert setup.corpus_cfg.rotation_rate == 1.0
        assert setup.splits.n_val == 30
        assert setup.splits.n_test == 30
        assert setup.splits.n_train == 140
        assert setup.retr_cfg.val_size == 30
        assert len(setup.catalog) == setup.corpus_cfg.n_labels
