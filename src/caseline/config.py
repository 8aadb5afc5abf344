"""Flat dotted-key run configuration.

One text file (or nothing but defaults) drives every pipeline stage.
The format is deliberately diff-friendly: one ``key = value`` per
line, ``#`` comments, no nesting.  Every key is validated against a
typed schema before any work starts, and the canonical rendering of
the effective configuration is hashed so artifacts can assert they
were produced under the same settings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .encoder import ContrastiveConfig
from .errors import ConfigError, IoFailureError
from .model import TrainConfig
from .retrieval import RetrievalConfig
from .summarizer import SummarizerConfig

__all__ = ["RunConfig", "load_run_config", "SCHEMA"]

# key -> (type, default); the defaults are the published-profile
# values used throughout unless overridden.
SCHEMA: dict[str, tuple[type, object]] = {
    "seed": (int, 0),
    "split.val_size": (int, 3000),
    "split.test_size": (int, 3000),
    "encoder.temperature": (float, 0.05),
    "encoder.batch_size": (int, 8),
    "encoder.epochs": (int, 3),
    "encoder.learning_rate": (float, 1e-5),
    "encoder.hash_dim": (int, 262144),
    "encoder.hidden_dim": (int, 64),
    "encoder.out_dim": (int, 256),
    "encoder.dropout": (float, 0.2),
    "encoder.weight_decay": (float, 0.01),
    "retrieval.k": (int, 5),
    "retrieval.alpha": (float, 2.0),
    "train.lam": (float, 0.10),
    "train.classifier_lr": (float, 1e-3),
    "train.other_lr": (float, 1e-5),
    "train.batch_size": (int, 8),
    "train.dropout": (float, 0.2),
    "train.patience": (int, 2),
    "train.max_epochs": (int, 20),
    "train.drift_hidden": (int, 64),
    "train.drift_frequencies": (int, 0),
    "train.retrieval_on": (bool, True),
    "train.drift_on": (bool, True),
    "train.finetune_encoder": (bool, False),
    "train.weight_decay": (float, 0.01),
    "summarizer.endpoint": (str, ""),
    "summarizer.model": (str, ""),
    "summarizer.temperature": (float, 1.0),
    "summarizer.max_output_tokens": (int, 512),
    "summarizer.timeout": (float, 30.0),
    "summarizer.min_interval": (float, 0.0),
}


def _parse_value(key: str, text: str):
    typ, _ = SCHEMA[key]
    text = text.strip()
    try:
        if typ is bool:
            low = text.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true or false")
            return low == "true"
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(
            f"bad value for {key}: {text!r} ({exc})") from exc


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class RunConfig:
    """Validated effective configuration for one run."""

    values: tuple[tuple[str, object], ...]

    def get(self, key: str):
        for k, v in self.values:
            if k == key:
                return v
        raise ConfigError(f"unknown configuration key {key!r}")

    def with_overrides(self, overrides: list[str]) -> "RunConfig":
        """Apply ``key=value`` strings on top of this configuration."""
        current = dict(self.values)
        for item in overrides:
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigError(
                    f"override {item!r} is not of the form key=value")
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            current[key] = _parse_value(key, raw)
        return RunConfig(tuple(sorted(current.items())))

    def to_text(self) -> str:
        """Canonical rendering: sorted keys, one per line."""
        return "".join(f"{k} = {_render_value(v)}\n"
                       for k, v in sorted(self.values))

    def config_hash(self) -> str:
        """Stable fingerprint of the effective configuration."""
        return hashlib.sha256(
            self.to_text().encode("utf-8")).hexdigest()[:16]

    # Typed views consumed by the pipeline stages.

    def encoder_config(self) -> ContrastiveConfig:
        return ContrastiveConfig(
            temperature=self.get("encoder.temperature"),
            batch_size=self.get("encoder.batch_size"),
            epochs=self.get("encoder.epochs"),
            learning_rate=self.get("encoder.learning_rate"),
            seed=self.get("seed"),
            hash_dim=self.get("encoder.hash_dim"),
            hidden_dim=self.get("encoder.hidden_dim"),
            out_dim=self.get("encoder.out_dim"),
            dropout=self.get("encoder.dropout"),
            weight_decay=self.get("encoder.weight_decay"))

    def retrieval_config(self) -> RetrievalConfig:
        return RetrievalConfig(
            k=self.get("retrieval.k"),
            alpha=self.get("retrieval.alpha"),
            val_size=self.get("split.val_size"))

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            lam=self.get("train.lam"),
            classifier_lr=self.get("train.classifier_lr"),
            other_lr=self.get("train.other_lr"),
            batch_size=self.get("train.batch_size"),
            dropout=self.get("train.dropout"),
            patience=self.get("train.patience"),
            max_epochs=self.get("train.max_epochs"),
            seed=self.get("seed"),
            drift_hidden=self.get("train.drift_hidden"),
            drift_frequencies=self.get("train.drift_frequencies"),
            retrieval_on=self.get("train.retrieval_on"),
            drift_on=self.get("train.drift_on"),
            finetune_encoder=self.get("train.finetune_encoder"),
            weight_decay=self.get("train.weight_decay"))

    def summarizer_config(self) -> SummarizerConfig:
        return SummarizerConfig(
            endpoint=self.get("summarizer.endpoint"),
            model=self.get("summarizer.model"),
            temperature=self.get("summarizer.temperature"),
            max_output_tokens=self.get("summarizer.max_output_tokens"),
            timeout=self.get("summarizer.timeout"),
            min_interval=self.get("summarizer.min_interval"))

    def split_sizes(self, n_total: int) -> tuple[int, int, int]:
        """(n_train, n_val, n_test) for a corpus of n_total cases;
        train is whatever the configured val/test sizes leave over."""
        n_val = self.get("split.val_size")
        n_test = self.get("split.test_size")
        n_train = n_total - n_val - n_test
        if n_train < 1:
            raise ConfigError(
                f"corpus of {n_total} cases leaves no training split "
                f"after val={n_val} and test={n_test}")
        return n_train, n_val, n_test


def load_run_config(path: str | Path | None = None,
                    overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then the file (if given), then the overrides."""
    values = {k: default for k, (_, default) in SCHEMA.items()}
    if path is not None:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise IoFailureError(
                f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, raw = stripped.partition("=")
            key = key.strip()
            if not sep:
                raise ConfigError(
                    f"{path}:{lineno}: expected key = value, got "
                    f"{stripped!r}")
            if key not in SCHEMA:
                raise ConfigError(
                    f"{path}:{lineno}: unknown configuration key "
                    f"{key!r}")
            values[key] = _parse_value(key, raw)
    cfg = RunConfig(tuple(sorted(values.items())))
    if overrides:
        cfg = cfg.with_overrides(overrides)
    return cfg
