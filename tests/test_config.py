"""Run-configuration parsing, validation, hashing, and typed views."""
from __future__ import annotations

import re

import pytest

from caseline.config import SCHEMA, RunConfig, load_run_config
from caseline.errors import ConfigError, IoFailureError


class TestDefaults:
    def test_published_profile_values(self):
        cfg = load_run_config()
        assert cfg.get("retrieval.k") == 5
        assert cfg.get("retrieval.alpha") == 2.0
        assert cfg.get("train.lam") == 0.10
        assert cfg.get("encoder.temperature") == 0.05
        assert cfg.get("encoder.dropout") == 0.2
        assert cfg.get("train.dropout") == 0.2
        assert cfg.get("train.batch_size") == 8
        assert cfg.get("encoder.batch_size") == 8
        assert cfg.get("train.classifier_lr") == 1e-3
        assert cfg.get("train.other_lr") == 1e-5
        assert cfg.get("encoder.learning_rate") == 1e-5
        assert cfg.get("train.patience") == 2
        assert cfg.get("split.val_size") == 3000
        assert cfg.get("split.test_size") == 3000
        assert cfg.get("encoder.hash_dim") == 262144
        assert cfg.get("encoder.out_dim") == 256
        assert cfg.get("summarizer.max_output_tokens") == 512

    def test_every_schema_key_present(self):
        cfg = load_run_config()
        for key in SCHEMA:
            cfg.get(key)

    def test_unknown_key_get_raises(self):
        with pytest.raises(ConfigError):
            load_run_config().get("no.such.key")


class TestFileParsing:
    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("retrieval.k = 9\n"
                        "train.lam = 0.25\n"
                        "train.drift_on = false\n")
        cfg = load_run_config(path)
        assert cfg.get("retrieval.k") == 9
        assert cfg.get("train.lam") == 0.25
        assert cfg.get("train.drift_on") is False
        assert cfg.get("retrieval.alpha") == 2.0  # untouched default

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# header comment\n"
                        "\n"
                        "seed = 42\n"
                        "   # indented comment\n")
        assert load_run_config(path).get("seed") == 42

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nbogus.key = 3\n")
        with pytest.raises(ConfigError, match=r":2: .*bogus\.key"):
            load_run_config(path)

    def test_missing_equals_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# fine\njust some words\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_run_config(path)

    def test_bad_int_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("retrieval.k = five\n")
        with pytest.raises(ConfigError, match="retrieval.k"):
            load_run_config(path)

    def test_bad_bool_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.drift_on = yes\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            load_run_config(tmp_path / "absent.cfg")

    def test_round_trip_through_text(self, tmp_path):
        cfg = load_run_config(None, ["train.lam=0.3", "seed=9"])
        path = tmp_path / "echo.cfg"
        path.write_text(cfg.to_text())
        again = load_run_config(path)
        assert again == cfg


class TestOverrides:
    def test_override_applies(self):
        cfg = load_run_config(None, ["retrieval.k=7"])
        assert cfg.get("retrieval.k") == 7

    def test_later_override_wins(self):
        cfg = load_run_config(None, ["seed=1", "seed=2"])
        assert cfg.get("seed") == 2

    def test_override_on_top_of_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\n")
        cfg = load_run_config(path, ["seed=6"])
        assert cfg.get("seed") == 6

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            load_run_config(None, ["bogus=1"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError):
            load_run_config(None, ["seed"])

    def test_bool_override_parsing(self):
        cfg = load_run_config(None, ["train.retrieval_on=false"])
        assert cfg.get("train.retrieval_on") is False


class TestHash:
    def test_default_hash_is_pinned(self):
        # Artifacts record this hash: a changed key, type or default of
        # the stage dataclasses changes it.
        assert load_run_config().config_hash() == "f08fa39d4c0fd834"

    def test_sixteen_hex_chars(self):
        h = load_run_config().config_hash()
        assert re.fullmatch(r"[0-9a-f]{16}", h)

    def test_stable_for_equal_configs(self):
        assert load_run_config().config_hash() \
            == load_run_config().config_hash()

    def test_changes_with_any_value(self):
        base = load_run_config().config_hash()
        assert load_run_config(None, ["seed=1"]).config_hash() != base

    def test_file_and_override_paths_agree(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.lam = 0.2\n")
        a = load_run_config(path).config_hash()
        b = load_run_config(None, ["train.lam=0.2"]).config_hash()
        assert a == b

    def test_text_is_sorted_and_complete(self):
        text = load_run_config().to_text()
        keys = [line.split(" = ")[0] for line in text.strip().split("\n")]
        assert keys == sorted(SCHEMA)


class TestTypedViews:
    def test_encoder_config(self):
        cfg = load_run_config(None, ["encoder.hash_dim=1024", "seed=3"])
        enc = cfg.encoder_config()
        assert enc.hash_dim == 1024
        assert enc.seed == 3
        assert enc.temperature == 0.05

    def test_retrieval_config_takes_val_size_from_split(self):
        cfg = load_run_config(None, ["split.val_size=120",
                                     "retrieval.alpha=3.5"])
        retr = cfg.retrieval_config()
        assert retr.val_size == 120
        assert retr.alpha == 3.5
        assert retr.k == 5

    def test_train_config(self):
        cfg = load_run_config(None, ["train.drift_on=false",
                                     "train.max_epochs=7"])
        train = cfg.train_config()
        assert train.drift_on is False
        assert train.max_epochs == 7
        assert train.lam == 0.10

    def test_summarizer_config_requires_endpoint(self):
        with pytest.raises(ConfigError):
            load_run_config().summarizer_config()
        cfg = load_run_config(None, ["summarizer.endpoint=http://x",
                                     "summarizer.model=m"])
        assert cfg.summarizer_config().model == "m"

    @pytest.mark.parametrize("override", [
        "encoder.batch_size=1", "train.batch_size=0", "encoder.dropout=1.0",
        "train.dropout=1.0", "encoder.temperature=0", "retrieval.k=0",
        "retrieval.alpha=0", "split.val_size=0"])
    def test_load_rejects_a_bad_value_by_its_key(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_run_config(None, [override])

    def test_file_value_checked_at_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.patience = 0\n")
        with pytest.raises(ConfigError, match=r"train\.patience"):
            load_run_config(path)

    def test_summarizer_section_checked_only_by_its_view(self):
        cfg = load_run_config(None, ["summarizer.endpoint=http://x",
                                     "summarizer.model=m",
                                     "summarizer.max_output_tokens=0"])
        with pytest.raises(ConfigError,
                           match=r"summarizer\.max_output_tokens"):
            cfg.summarizer_config()

    def test_split_sizes(self):
        cfg = load_run_config(None, ["split.val_size=20",
                                     "split.test_size=30"])
        assert cfg.split_sizes(100) == (50, 20, 30)

    def test_split_sizes_insufficient(self):
        cfg = load_run_config(None, ["split.val_size=20",
                                     "split.test_size=30"])
        with pytest.raises(ConfigError):
            cfg.split_sizes(50)


class TestRunConfigContainer:
    def test_with_overrides_returns_new_object(self):
        cfg = load_run_config()
        other = cfg.with_overrides(["seed=4"])
        assert cfg.get("seed") == 0
        assert other.get("seed") == 4
        assert isinstance(other, RunConfig)
