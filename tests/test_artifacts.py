"""The artifacts module: atomic writes, the checkpoint schema check,
and the rule that no other module writes files or reads .npz itself."""
from __future__ import annotations

import functools
import gc
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import caseline
from caseline import artifacts
from caseline.encoder import (
    ContrastiveConfig,
    init_encoder_params,
    load_encoder,
    save_encoder,
)
from caseline.errors import ConfigError, IoFailureError, NonFiniteError

SCHEMA = {"w1": ("float", ("V", "H")), "b1": ("float", ("H",)),
          "labels": ("bits", ("V", "L")), "names": ("text", ("L",))}


def _arrays():
    return {"w1": np.arange(6.0).reshape(3, 2), "b1": np.zeros(2),
            "labels": np.eye(3, 4, dtype=np.uint8),
            "names": np.array(["a", "b", "c", "d"])}


def _save_unchecked(path, arrays):
    """A demo checkpoint as ``save_npz`` lays it out, without its
    finiteness check, to damage what a loader reads."""
    meta = artifacts.canonical_json({"kind": "demo", "format_version": 3})
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, meta=np.frombuffer(meta.encode(), np.uint8))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck"
        artifacts.save_npz(path, "demo", 3, _arrays(), {"note": [1, "x"]})
        arrays, meta = artifacts.load_npz(path, "demo", 3, SCHEMA)
        assert sorted(arrays) == ["b1", "labels", "names", "w1"]
        for name, arr in _arrays().items():
            np.testing.assert_array_equal(arrays[name], arr)
        assert meta == {"note": [1, "x"], "kind": "demo",
                        "format_version": 3}
        with np.load(path) as data:  # one canonical-JSON meta record
            assert bytes(data["meta"]) == (
                b'{"format_version":3,"kind":"demo","note":[1,"x"]}')

    @pytest.mark.parametrize("kind, version", [("other", 3), ("demo", 4)])
    def test_wrong_kind_or_version_is_config_error(self, tmp_path, kind,
                                                   version):
        path = tmp_path / "ck"
        artifacts.save_npz(path, "demo", 3, _arrays(), {})
        with pytest.raises(ConfigError):
            artifacts.load_npz(path, kind, version, SCHEMA)

    @pytest.mark.parametrize("name, bad", [
        ("w1", np.zeros(6)),                          # wrong rank
        ("b1", np.zeros(3)),                          # H disagrees
        ("names", np.array(["a", "b", "c"])),        # L disagrees
        ("w1", np.zeros((3, 2), dtype=np.float32)),  # not float64
        ("w1", np.array([[0.0, np.inf]] * 3)),      # not finite
        ("b1", np.array([np.nan, 0.0])),             # not finite
        ("labels", np.full((3, 4), 2, np.uint8)),    # not 0/1
        ("labels", np.eye(3, 4)),                    # not uint8
        ("names", np.arange(4.0)),                   # not text
    ])
    def test_schema_violation_names_the_array(self, tmp_path, name, bad):
        path = tmp_path / "ck"
        _save_unchecked(path, {**_arrays(), name: bad})
        with pytest.raises(IoFailureError, match=repr(name)):
            artifacts.load_npz(path, "demo", 3, SCHEMA)

    def test_missing_array_or_meta_field(self, tmp_path):
        path = tmp_path / "ck"
        arrays = _arrays()
        del arrays["b1"]
        artifacts.save_npz(path, "demo", 3, arrays, {})
        with pytest.raises(IoFailureError, match="b1"):
            artifacts.load_npz(path, "demo", 3, SCHEMA)
        artifacts.save_npz(path, "demo", 3, _arrays(), {"n": "7"})
        with pytest.raises(IoFailureError, match="'n'"):
            artifacts.load_npz(path, "demo", 3, SCHEMA, {"n": int})

    def test_not_an_npz_archive(self, tmp_path):
        path = tmp_path / "ck"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
        with pytest.raises(IoFailureError):
            artifacts.load_npz(path, "demo", 3, SCHEMA)

    def test_truncated_archive_leaves_no_file_open(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "ck"
        artifacts.save_npz(path, "demo", 3, _arrays(), {})
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(IoFailureError):
                artifacts.load_npz(path, "demo", 3, SCHEMA)
            gc.collect()
        assert [u.exc_value for u in unraisable] == []

    def test_require_finite_names_the_first_bad_index(self, tmp_path):
        path = tmp_path / "ck"
        big = np.full((3, 2), 1e308)  # finite entries whose sum overflows
        artifacts.save_npz(path, "demo", 3, {**_arrays(), "w1": big}, {})
        artifacts.load_npz(path, "demo", 3, SCHEMA)
        big[1, 1], big[2, 0] = -np.inf, np.nan
        _save_unchecked(path, {**_arrays(), "w1": big})
        with pytest.raises(IoFailureError, match=r"'w1'.*\(1, 1\)"):
            artifacts.load_npz(path, "demo", 3, SCHEMA)

    @pytest.mark.parametrize("name, bad", [
        ("w1", np.array([[0.0, 1.0], [2.0, np.inf], [np.nan, 0.0]])),
        ("b1", np.array([0.0, -np.inf])),
        ("extra", np.full(1, np.nan, dtype=np.float32)),
    ])
    def test_save_refuses_a_non_finite_array(self, tmp_path, name, bad):
        path = tmp_path / "ck"
        artifacts.save_npz(path, "demo", 3, _arrays(), {})
        before = path.read_bytes()
        with pytest.raises(NonFiniteError, match=f"{name!r}.*non-finite"):
            artifacts.save_npz(path, "demo", 3, {**_arrays(), name: bad}, {})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck"]


def _failing_savez(fh, **arrays):
    fh.write(b"PK\x03\x04 half an archive")
    raise OSError(28, "No space left on device")


class TestAtomicWrite:
    @pytest.mark.parametrize("writer", ["npz", "text"])
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch,
                                             tiny_corpus, writer):
        path = tmp_path / "artifact"
        if writer == "npz":
            params = init_encoder_params(ContrastiveConfig(
                hash_dim=64, hidden_dim=4, out_dim=4))
            save_encoder(params, path)
            monkeypatch.setattr(np, "savez", _failing_savez)
            save = functools.partial(save_encoder, params, path)
        else:
            tiny_corpus.save_jsonl(path)
            calls = []

            def fail_on_third(case):
                calls.append(case)
                if len(calls) == 3:
                    raise OSError(28, "No space left on device")
                return "{}"
            monkeypatch.setattr("caseline.corpus.serialize_case_record",
                                fail_on_third)
            save = functools.partial(tiny_corpus.save_jsonl, path)
        before = path.read_bytes()
        with pytest.raises(IoFailureError, match="No space left"):
            save()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["artifact"]

    def test_other_errors_pass_through_and_clean_up(self, tmp_path):
        with pytest.raises(KeyError):
            with artifacts.atomic_write(tmp_path / "x", "w") as fh:
                fh.write("partial")
                raise KeyError("boom")
        assert os.listdir(tmp_path) == []

    def test_replaces_file_with_plain_open_mode(self, tmp_path):
        with open(tmp_path / "plain", "w") as fh:
            fh.write("x")
        (tmp_path / "out").write_text("old")
        artifacts.save_text(tmp_path / "out", "new\n")
        assert (tmp_path / "out").read_text() == "new\n"
        assert os.stat(tmp_path / "out").st_mode \
            == os.stat(tmp_path / "plain").st_mode
        assert sorted(os.listdir(tmp_path)) == ["out", "plain"]

    def test_missing_directory_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailureError):
            artifacts.save_text(tmp_path / "no" / "such" / "file", "x")

    def test_encoder_error_classes(self, tmp_path, tiny_corpus):
        tiny_corpus.save_jsonl(tmp_path / "corpus")
        with pytest.raises(IoFailureError):
            load_encoder(tmp_path / "corpus")
        artifacts.save_npz(tmp_path / "other", "model", 1, {}, {})
        with pytest.raises(ConfigError):
            load_encoder(tmp_path / "other")


# A write outside artifacts.py: np.save/np.savez, np.load, Path
# write_text/write_bytes, or open() with a mode that writes.
_WRITE_CALL = re.compile(
    r"\bnp\.(save\w*|load)\b|\.write_(text|bytes)\("
    r"|\bopen\((?:[^,()]*,\s*)?(?:mode\s*=\s*)?['\"][rbt]*[wax+]")


def test_write_pattern_catches_the_forms_it_forbids():
    for line in ('with open(path, "wb") as fh:', "open(p, mode='a')",
                 'Path(p).open("w")', "np.savez(fh, **arrays)",
                 "with np.load(path) as data:",
                 'Path(p).write_text(s, encoding="utf-8")',
                 "p.write_bytes(raw)"):
        assert _WRITE_CALL.search(line), line
    for line in ('with open(path, "r", encoding="utf-8") as fh:',
                 "Path(path).read_bytes()", "np.loadtxt(x)"):
        assert not _WRITE_CALL.search(line), line


def test_only_artifacts_writes_files_or_reads_npz():
    src = Path(caseline.__file__).parent
    offenders = [
        f"{f.name}:{lineno}: {line.strip()}"
        for f in sorted(src.glob("*.py")) if f.name != "artifacts.py"
        for lineno, line in enumerate(
            f.read_text(encoding="utf-8").splitlines(), start=1)
        if _WRITE_CALL.search(line)]
    assert offenders == []
