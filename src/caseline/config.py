"""Flat dotted-key run configuration.

One text file (or nothing but defaults) drives every pipeline stage.
The format is deliberately diff-friendly: one ``key = value`` per
line, ``#`` comments, no nesting.  Each key's type and default are
those of its stage dataclass field (``encoder.*`` is
``ContrastiveConfig``, ``retrieval.*`` ``RetrievalConfig``,
``train.*`` ``TrainConfig``); a float value must be finite.  Loading
checks every section, so every subcommand rejects a bad key or value
before it does any work.  The canonical rendering of the effective
configuration is hashed so artifacts can assert they were produced
under the same settings.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .encoder import ContrastiveConfig
from .errors import CaselineError, ConfigError, IoFailureError
from .model import TrainConfig
from .retrieval import RetrievalConfig

__all__ = ["RunConfig", "load_run_config", "SCHEMA"]

# The stage configs, by the key prefix of their settings.
_SECTIONS = {"encoder": ContrastiveConfig, "retrieval": RetrievalConfig,
             "train": TrainConfig}

# Stage fields filled from a key that belongs to no section.
_SHARED = {"seed": "seed", "val_size": "split.val_size"}


def _keys(section: str) -> dict[str, str]:
    """Field name -> configuration key, for one stage config."""
    return {f.name: _SHARED.get(f.name, f"{section}.{f.name}")
            for f in fields(_SECTIONS[section])}


def _schema() -> dict[str, tuple[type, object]]:
    schema = {"seed": (int, 0), "split.val_size": (int, 3000),
              "split.test_size": (int, 3000)}
    for section, cls in _SECTIONS.items():
        hints = get_type_hints(cls)
        for f in fields(cls):
            if f.name not in _SHARED:
                schema[f"{section}.{f.name}"] = (hints[f.name], f.default)
    return schema


# key -> (type, default)
SCHEMA: dict[str, tuple[type, object]] = _schema()


def _parse_value(key: str, text: str):
    typ, _ = SCHEMA[key]
    text = text.strip()
    try:
        if typ is bool:
            low = text.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true or false")
            return low == "true"
        value = typ(text)
        if typ is float and not math.isfinite(value):
            raise ValueError("not a finite number")
        return value
    except ValueError as exc:
        raise ConfigError(
            f"bad value for {key}: {text!r} ({exc})") from exc


def _assign(values: dict, item: str, where: str) -> None:
    """Parse one ``key = value`` item into ``values``; ``where``
    prefixes the error message."""
    key, sep, raw = item.partition("=")
    key = key.strip()
    if not sep:
        raise ConfigError(f"{where}expected key = value, got {item!r}")
    if key not in SCHEMA:
        raise ConfigError(f"{where}unknown configuration key {key!r}")
    values[key] = _parse_value(key, raw)


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
            _assign(current, item, "override: ")
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

    def _view(self, section: str):
        keys = _keys(section)
        try:
            return _SECTIONS[section](
                **{name: self.get(key) for name, key in keys.items()})
        except CaselineError as exc:
            # Name each field by its key: batch_size and dropout are
            # settings of both the encoder and the train section.
            raise ConfigError(re.sub(
                r"\w+", lambda m: keys.get(m[0], m[0]), str(exc))) from exc

    def encoder_config(self) -> ContrastiveConfig:
        return self._view("encoder")

    def retrieval_config(self) -> RetrievalConfig:
        return self._view("retrieval")

    def train_config(self) -> TrainConfig:
        return self._view("train")

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
            if stripped and not stripped.startswith("#"):
                _assign(values, stripped, f"{path}:{lineno}: ")
    cfg = RunConfig(tuple(sorted(values.items())))
    if overrides:
        cfg = cfg.with_overrides(overrides)
    for section in _SECTIONS:
        cfg._view(section)
    n_test = cfg.get("split.test_size")
    if n_test < 1:
        raise ConfigError(f"split.test_size must be >= 1, got {n_test}")
    return cfg
