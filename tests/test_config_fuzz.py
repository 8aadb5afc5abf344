"""Random configuration values through every subcommand: each run
exits 0, or exits 1 with one JSON error line, or is a usage error
(exit 2); no setting escapes as a traceback."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline import cli
from caseline.config import SCHEMA

# A 40-case profile small enough that any drawn value runs in
# milliseconds; drawn settings come after these and win.
BASE = ["--set", "split.val_size=8", "--set", "split.test_size=8",
        "--set", "encoder.hash_dim=64", "--set", "encoder.hidden_dim=8",
        "--set", "encoder.out_dim=8", "--set", "encoder.epochs=1",
        "--set", "train.max_epochs=2", "--set", "train.drift_hidden=4"]

# Small integers and the float edge cases keep any draw from
# allocating a large hash_dim or hidden_dim or running many epochs.
_VALUES = {
    int: st.integers(-2, 8).map(str),
    float: st.sampled_from([-1.0, 0.0, 0.5, 1.0, math.nan,
                            math.inf]).map(repr),
    bool: st.sampled_from(["true", "false"]),
}

SETTINGS = st.lists(
    st.sampled_from(sorted(SCHEMA)).flatmap(
        lambda key: _VALUES[SCHEMA[key][0]].map(lambda v: f"{key}={v}")),
    min_size=1, max_size=3)


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """Every artifact of one small-profile pipeline run."""
    d = tmp_path_factory.mktemp("fuzz")
    p = {name: str(d / name) for name in (
        "raw", "labels", "enc", "emb", "idx", "model")}
    lab = ["--labels-file", p["labels"]]
    for argv in (
            ["gen-drift", "--output", p["raw"], "--labels-output",
             p["labels"], "--n", "40", "--vocab-size", "600"],
            ["train-encoder", "--corpus", p["raw"], "--output", p["enc"],
             *lab],
            ["embed", "--corpus", p["raw"], "--encoder", p["enc"],
             "--output", p["emb"], *lab],
            ["index", "--corpus", p["raw"], "--embeddings", p["emb"],
             "--output", p["idx"], *lab],
            ["train", "--corpus", p["raw"], "--index", p["idx"],
             "--output", p["model"]]):
        assert _run([*argv, *BASE]) == (0, ""), argv[0]
    return p


def _argv(command: str, p: dict, out: str) -> list[str]:
    corpus = ["--corpus", p["raw"]]
    return [command, *{
        "gen-drift": ["--output", out, "--n", "40", "--vocab-size", "600"],
        "ingest": ["--input", p["raw"], "--output", out],
        "train-encoder": [*corpus, "--output", out],
        "embed": [*corpus, "--encoder", p["enc"], "--output", out],
        "index": [*corpus, "--embeddings", p["emb"], "--output", out],
        "train": [*corpus, "--index", p["idx"], "--output", out],
        "predict": [*corpus, "--index", p["idx"], "--model", p["model"],
                    "--output", out],
        "evaluate": [*corpus, "--index", p["idx"], "--model", p["model"],
                     "--output", out],
        "ablate": [*corpus, "--out-dir", out, "--seeds", "0"],
    }[command], "--labels-file", p["labels"]]


# Every subcommand, in the order the parser declares them.
COMMANDS = ["ingest", "train-encoder", "embed", "index", "train", "predict",
            "evaluate", "ablate", "gen-drift"]


def test_command_list_is_every_subcommand():
    parser = cli._build_parser()
    assert COMMANDS == list(next(
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)))


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=100, deadline=None)
@given(overrides=SETTINGS)
def test_random_settings_never_escape(made, command, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        argv = _argv(command, made, out)
        for item in overrides:
            argv += ["--set", item]
        code, err = _run([*argv[:1], *BASE, *argv[1:]])
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("usage:"), err
        elif code == 1:
            lines = [ln for ln in err.splitlines() if ln.strip()]
            assert len(lines) == 1, lines
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not Path(out).exists()
        else:
            assert code == 0, err
