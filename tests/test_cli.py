"""End-to-end command-line pipeline in subprocesses: artifact flow,
determinism, exit codes, and error formatting."""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline import cli
from caseline.config import load_run_config
from caseline.corpus import chronological_split, load_corpus
from caseline.model import infer, load_model

# small-profile overrides so the whole pipeline stays in seconds
SETS = [
    "--set", "split.val_size=40",
    "--set", "split.test_size=40",
    "--set", "encoder.hash_dim=1024",
    "--set", "encoder.hidden_dim=32",
    "--set", "encoder.out_dim=32",
    "--set", "encoder.epochs=1",
    "--set", "train.max_epochs=5",
]


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "caseline.cli", *argv],
        capture_output=True, text=True, timeout=300)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One full run: generate -> ingest -> encoder -> embed -> index ->
    train -> predict -> evaluate (both paths)."""
    d = tmp_path_factory.mktemp("cli_pipeline")
    art = {name: str(d / name) for name in (
        "corpus.jsonl", "labels.txt", "ingested.jsonl", "encoder.npz",
        "embeddings.npz", "index.npz", "model.npz", "predictions.jsonl",
        "report.json", "report_from_predictions.json")}
    outs = {}

    outs["gen"] = run_cli(
        "gen-drift", "--output", art["corpus.jsonl"],
        "--labels-output", art["labels.txt"],
        "--n", "300", "--vocab-size", "600", *SETS)
    outs["ingest"] = run_cli(
        "ingest", "--input", art["corpus.jsonl"],
        "--output", art["ingested.jsonl"],
        "--labels-file", art["labels.txt"], *SETS)
    outs["encoder"] = run_cli(
        "train-encoder", "--corpus", art["ingested.jsonl"],
        "--output", art["encoder.npz"],
        "--labels-file", art["labels.txt"], *SETS)
    outs["embed"] = run_cli(
        "embed", "--corpus", art["ingested.jsonl"],
        "--encoder", art["encoder.npz"],
        "--output", art["embeddings.npz"],
        "--labels-file", art["labels.txt"], *SETS)
    outs["index"] = run_cli(
        "index", "--corpus", art["ingested.jsonl"],
        "--embeddings", art["embeddings.npz"],
        "--output", art["index.npz"],
        "--labels-file", art["labels.txt"], *SETS)
    outs["train"] = run_cli(
        "train", "--corpus", art["ingested.jsonl"],
        "--index", art["index.npz"],
        "--output", art["model.npz"], *SETS)
    outs["predict"] = run_cli(
        "predict", "--corpus", art["ingested.jsonl"],
        "--index", art["index.npz"], "--model", art["model.npz"],
        "--output", art["predictions.jsonl"], "--split", "test", *SETS)
    outs["evaluate"] = run_cli(
        "evaluate", "--corpus", art["ingested.jsonl"],
        "--index", art["index.npz"], "--model", art["model.npz"],
        "--output", art["report.json"], "--split", "test", *SETS)
    outs["evaluate_preds"] = run_cli(
        "evaluate", "--corpus", art["ingested.jsonl"],
        "--predictions", art["predictions.jsonl"],
        "--labels-file", art["labels.txt"],
        "--output", art["report_from_predictions.json"], *SETS)
    return d, art, outs


class TestPipeline:
    def test_all_artifacts_written(self, pipeline):
        d, art, _ = pipeline
        for path in art.values():
            assert os.path.exists(path), path
        assert (d / "embeddings.npz.meta.json").exists()

    def test_stage_messages(self, pipeline):
        _, _, outs = pipeline
        assert "generated 300" in outs["gen"].stdout
        assert "ingested 300" in outs["ingest"].stdout
        assert "trained encoder on 220" in outs["encoder"].stdout
        assert "embedded 300" in outs["embed"].stdout
        assert "indexed 300" in outs["index"].stdout
        assert "trained model on 220" in outs["train"].stdout
        assert "wrote 40 predictions" in outs["predict"].stdout
        assert "micro-F1" in outs["evaluate"].stdout

    def test_prediction_file_shape(self, pipeline):
        _, art, _ = pipeline
        lines = [json.loads(line) for line in
                 open(art["predictions.jsonl"], encoding="utf-8")
                 if line.strip()]
        meta = lines[0]["_meta"]
        assert meta["split"] == "test"
        assert len(meta["config_hash"]) == 16
        records = lines[1:]
        assert len(records) == 40
        for rec in records:
            assert set(rec) == {"case_id", "probabilities", "decisions",
                                "y_orig", "drift", "evidence"}
            for key in ("probabilities", "y_orig", "drift"):
                assert len(rec[key]) == 8
            assert all(0.0 <= p <= 1.0 for p in rec["probabilities"])
            for ev in rec["evidence"]:
                assert set(ev) == {"case_id", "score"}

    def test_sidecar_provenance(self, pipeline):
        d, _, _ = pipeline
        meta = json.loads((d / "embeddings.npz.meta.json").read_text())
        assert meta["stage"] == "embed"
        assert len(meta["config_hash"]) == 16
        assert meta["stage_version"] == 1

    def test_report_is_valid_and_provenanced(self, pipeline):
        _, art, _ = pipeline
        payload = json.loads(open(art["report.json"]).read())
        assert payload["stage"] == "evaluate"
        report = payload["report"]
        assert set(report) >= {"micro_f1", "micro_jaccard",
                               "micro_pr_auc", "micro_roc_auc",
                               "tp", "fp", "fn", "tn", "n_cases"}
        assert report["n_cases"] == 40

    def test_predictions_path_reproduces_model_path(self, pipeline):
        """Offline scoring of the predictions file equals in-process
        evaluation, byte for byte."""
        _, art, _ = pipeline
        a = open(art["report.json"], "rb").read()
        b = open(art["report_from_predictions.json"], "rb").read()
        assert a == b

    def test_predictions_equal_infer_bit_for_bit(self, pipeline):
        """The predictions file carries exactly the batch rows that the
        evaluate path scores."""
        _, art, _ = pipeline
        store, _, catalog, _ = cli.load_index(art["index.npz"])
        corpus = load_corpus(art["ingested.jsonl"], catalog)
        cfg = load_run_config(None, SETS[1::2])
        splits = chronological_split(corpus, *cfg.split_sizes(len(corpus)))
        ranks = list(splits.ranks("test"))
        pred, evidence = infer(load_model(art["model.npz"]), ranks, store,
                               corpus.label_matrix(catalog).astype(float),
                               cfg.retrieval_config())
        records = [json.loads(line) for line in
                   open(art["predictions.jsonl"], encoding="utf-8")][1:]
        assert [r["case_id"] for r in records] \
            == [corpus[r].case_id for r in ranks]
        for key, want in (("probabilities", pred.probabilities),
                          ("y_orig", pred.y_orig), ("drift", pred.drift)):
            got = np.array([r[key] for r in records])
            assert got.tobytes() == want.tobytes(), key
        assert [[(e["case_id"], e["score"]) for e in r["evidence"]]
                for r in records] \
            == [[(e.case_id, e.score) for e in ev] for ev in evidence]

    def test_evaluate_rerun_byte_identical(self, pipeline, tmp_path):
        _, art, _ = pipeline
        out = tmp_path / "report_again.json"
        run_cli("evaluate", "--corpus", art["ingested.jsonl"],
                "--index", art["index.npz"], "--model", art["model.npz"],
                "--output", str(out), "--split", "test", *SETS)
        assert out.read_bytes() == open(art["report.json"], "rb").read()

    def test_predict_rerun_byte_identical(self, pipeline, tmp_path):
        _, art, _ = pipeline
        out = tmp_path / "preds_again.jsonl"
        run_cli("predict", "--corpus", art["ingested.jsonl"],
                "--index", art["index.npz"], "--model", art["model.npz"],
                "--output", str(out), "--split", "test", *SETS)
        assert out.read_bytes() \
            == open(art["predictions.jsonl"], "rb").read()

    def test_ingest_round_trip_stable(self, pipeline):
        _, art, _ = pipeline
        assert open(art["ingested.jsonl"], "rb").read() \
            == open(art["corpus.jsonl"], "rb").read()


class TestErrors:
    def test_usage_error_exits_2(self):
        proc = run_cli("ingest", "--input", "only-half", check=False)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_split_is_usage_error(self, pipeline):
        _, art, _ = pipeline
        proc = run_cli("predict", "--corpus", art["ingested.jsonl"],
                       "--index", art["index.npz"],
                       "--model", art["model.npz"],
                       "--output", "unused.jsonl", "--split", "future",
                       check=False)
        assert proc.returncode == 2

    def test_domain_error_exits_1_with_json_line(self, tmp_path):
        proc = run_cli("ingest", "--input",
                       str(tmp_path / "missing.jsonl"),
                       "--output", str(tmp_path / "out.jsonl"),
                       check=False)
        assert proc.returncode == 1
        lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert set(err) == {"error", "message"}
        assert err["error"].endswith("Error")

    def test_evaluate_requires_source(self, pipeline):
        _, art, _ = pipeline
        proc = run_cli("evaluate", "--corpus", art["ingested.jsonl"],
                       check=False)
        assert proc.returncode == 1
        err = json.loads(proc.stderr.strip())
        assert err["error"] == "ConfigError"

    def test_bad_override_is_domain_error(self, tmp_path):
        proc = run_cli("gen-drift", "--output",
                       str(tmp_path / "x.jsonl"),
                       "--set", "bogus.key=1", check=False)
        assert proc.returncode == 1
        assert json.loads(proc.stderr.strip())["error"] == "ConfigError"

    @pytest.mark.parametrize("damage", [
        "unknown-case-id", "no-probabilities", "not-an-object",
        "three-probabilities", "string-probability", "nan-probability",
        "infinite-probability", "probability-above-1",
        "negative-probability", "unknown-decision", "repeated-records",
    ])
    def test_malformed_predictions_exit_1_with_one_json_line(
            self, pipeline, tmp_path, capsys, damage):
        _, art, _ = pipeline
        lines = open(art["predictions.jsonl"],
                     encoding="utf-8").read().splitlines()
        rec = json.loads(lines[3])
        if damage == "unknown-case-id":
            rec["case_id"] = "no-such-case"
        elif damage == "no-probabilities":
            del rec["probabilities"]
        elif damage == "not-an-object":
            rec = [1, 2]
        elif damage == "three-probabilities":
            rec["probabilities"] = rec["probabilities"][:3]
        elif damage == "string-probability":
            rec["probabilities"][0] = "x"
        elif damage == "nan-probability":
            rec["probabilities"][0] = float("nan")
        elif damage == "infinite-probability":
            rec["probabilities"][0] = float("inf")
        elif damage == "probability-above-1":
            rec["probabilities"][0] = 1.5
        elif damage == "negative-probability":
            rec["probabilities"][0] = -0.25
        elif damage == "unknown-decision":
            rec["decisions"] = ["no-such-label"]
        if damage == "repeated-records":
            lines += lines[1:]
        else:
            lines[3] = json.dumps(rec)
        bad = tmp_path / "predictions.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = cli.main(["evaluate", "--corpus", art["ingested.jsonl"],
                         "--predictions", str(bad),
                         "--labels-file", art["labels.txt"], *SETS])
        err = [ln for ln in capsys.readouterr().err.splitlines()
               if ln.strip()]
        assert code == 1
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "MalformedRecordError"
        assert f"{bad}:" in payload["message"]

    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.stdout.startswith("caseline ")


def main_quiet(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*argv, *SETS])


@pytest.fixture(scope="module")
def suffixless(tmp_path_factory):
    """In-process run whose artifact paths have no file suffix."""
    d = tmp_path_factory.mktemp("suffixless")
    p = {name: str(d / name) for name in (
        "raw", "labels", "corpus", "enc", "emb", "idx", "model", "preds")}
    lab = ["--labels-file", p["labels"]]
    assert main_quiet("gen-drift", "--output", p["raw"], "--labels-output",
                      p["labels"], "--n", "160", "--vocab-size", "400") == 0
    assert main_quiet("ingest", "--input", p["raw"], "--output",
                      p["corpus"], *lab) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["train-encoder", "--corpus", p["corpus"],
                         "--output", p["enc"], *lab, *SETS]) == 0
    p["train_encoder_stdout"] = out.getvalue()
    assert main_quiet("embed", "--corpus", p["corpus"], "--encoder",
                      p["enc"], "--output", p["emb"], *lab) == 0
    assert main_quiet("index", "--corpus", p["corpus"], "--embeddings",
                      p["emb"], "--output", p["idx"], *lab) == 0
    assert main_quiet("train", "--corpus", p["corpus"], "--index",
                      p["idx"], "--output", p["model"]) == 0
    assert main_quiet("evaluate", "--corpus", p["corpus"], "--index",
                      p["idx"], "--model", p["model"]) == 0
    assert main_quiet("predict", "--corpus", p["corpus"], "--index",
                      p["idx"], "--model", p["model"], "--output",
                      p["preds"]) == 0
    return d, p


def run_in_process(argv, labels) -> tuple[int, list[str]]:
    """Exit code of ``cli.main`` and the non-blank lines of its stderr.
    A ``--set`` in ``argv`` wins over the same key in ``SETS``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main([argv[0], *SETS, *argv[1:], "--labels-file",
                         labels])
    return code, [ln for ln in err.getvalue().splitlines() if ln.strip()]


def consumers(p: dict, bad: str, artifact: str, out: str) -> list[list[str]]:
    """The subcommands that read ``artifact``, with ``bad`` in its place."""
    corpus = ["--corpus", p["corpus"]]
    return {
        "labels": [["ingest", "--input", p["raw"], "--output", out]],
        "corpus": [["evaluate", "--corpus", bad,
                    "--predictions", p["preds"]]],
        "enc": [["embed", *corpus, "--encoder", bad, "--output", out]],
        "emb": [["index", *corpus, "--embeddings", bad,
                 "--output", out]],
        "idx": [["train", *corpus, "--index", bad, "--output", out],
                ["predict", *corpus, "--index", bad,
                 "--model", p["model"], "--output", out],
                ["evaluate", *corpus, "--index", bad,
                 "--model", p["model"]]],
        "model": [["predict", *corpus, "--index", p["idx"],
                   "--model", bad, "--output", out],
                  ["evaluate", *corpus, "--index", p["idx"],
                   "--model", bad]],
        "preds": [["evaluate", *corpus, "--predictions", bad]],
    }[artifact]


def edit_npz(src: str, dst: str, damage: str) -> None:
    """Rewrite a checkpoint with one fault: ``version`` sets the meta
    record's format version to 99; ``meta:KEY=JSON`` sets a meta field;
    ``NAME:HOW`` changes array NAME."""
    with np.load(src) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]).decode())
    name, _, how = damage.partition(":")
    if damage == "version":
        meta["format_version"] = 99
    elif name == "meta":
        key, _, value = how.partition("=")
        meta[key] = json.loads(value)
    elif how == "oversize":
        arrays[name] = np.eye(arrays["w"].shape[0])
        meta[f"has_{name}"] = True
    elif how == "flatten":
        arrays[name] = arrays[name].ravel()
    elif how == "short":
        arrays[name] = arrays[name][:-1]
    elif how == "transpose":
        arrays[name] = arrays[name].T
    elif how == "nan":
        arrays[name].flat[arrays[name].size // 2] = np.nan
    elif how == "two":
        arrays[name].flat[0] = 2
    elif how == "drop-column":
        arrays[name] = arrays[name][:, :-1]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                   dtype=np.uint8)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


class TestArtifactFiles:
    def test_outputs_land_on_the_exact_paths(self, suffixless):
        d, p = suffixless
        assert sorted(f.name for f in d.iterdir()
                      if not f.name.endswith(".meta.json")) \
            == ["corpus", "emb", "enc", "idx", "labels", "model", "preds",
                "raw"]
        assert p["train_encoder_stdout"].strip().endswith(f"-> {p['enc']}")

    @pytest.mark.parametrize("artifact, damage", [
        ("enc", "truncate"), ("enc", "zero-middle"),
        ("enc", "w2:flatten"), ("enc", "b1:short"), ("enc", "w1:nan"),
        ("enc", "version"), ("enc", "model-file"),
        ("emb", "truncate"), ("emb", "inflate-count"), ("emb", "row-nan"),
        ("idx", "truncate"), ("idx", "zero-middle"), ("idx", "version"),
        ("idx", "matrix:nan"), ("idx", "labels:two"),
        ("idx", "labels:drop-column"),
        ("model", "truncate"), ("model", "zero-middle"),
        ("model", "w:flatten"), ("model", "b:short"),
        ("model", "drift_w2:transpose"), ("model", "w:nan"),
        ("model", "version"), ("model", "adapter:oversize"),
        ("model", "meta:train_rank_range=[5]"),
        ("model", "meta:train_rank_range=[9, 3]"),
        ("model", "meta:train_rank_range=[4, 4]"),
        ("model", "meta:train_rank_range=[0.5, 200]"),
        ("model", "meta:train_rank_range=[false, 200]"),
        ("model", "meta:train_rank_range=[0, 100, 200]"),
    ])
    def test_damaged_artifact_exits_1_with_one_json_line(
            self, suffixless, tmp_path, artifact, damage):
        _, p = suffixless
        raw = bytearray(open(p[artifact], "rb").read())
        bad = str(tmp_path / "damaged")
        if damage == "truncate":
            raw = raw[:len(raw) // 2]
        elif damage == "zero-middle":
            mid = len(raw) // 2
            raw[mid:mid + 64] = bytes(64)
        elif damage == "inflate-count":
            # the store's row count, a u64 after magic, version, dtype
            raw[16:24] = (10 ** 9).to_bytes(8, "little")
        elif damage == "row-nan":
            # the first float of the matrix, after the 32-byte header
            raw[32:40] = struct.pack("<d", float("nan"))
        elif damage == "model-file":
            raw = bytearray(open(p["model"], "rb").read())
        if damage == "version" or ":" in damage:
            edit_npz(p[artifact], bad, damage)
        else:
            (tmp_path / "damaged").write_bytes(bytes(raw))
        for argv in consumers(p, bad, artifact, str(tmp_path / "out")):
            code, lines = run_in_process(argv, p["labels"])
            assert code == 1, argv[0]
            assert len(lines) == 1, argv[0]
            assert json.loads(lines[0])["error"] \
                == ("ConfigError" if damage in ("version", "model-file")
                    else "IoFailureError"), lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("artifact", [
        "labels", "corpus", "enc", "emb", "idx", "model", "preds"])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_artifact_never_escapes(
            self, suffixless, artifact, data):
        _, p = suffixless
        raw = bytearray(open(p[artifact], "rb").read())
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:offset]
        else:
            raw[offset] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "damaged")
            with open(bad, "wb") as fh:
                fh.write(raw)
            for argv in consumers(p, bad, artifact,
                                  os.path.join(tmp, "out")):
                code, lines = run_in_process(argv, p["labels"])
                assert code in (0, 1), argv[0]
                if code == 1:
                    assert len(lines) == 1, lines
                    assert set(json.loads(lines[0])) \
                        == {"error", "message"}

    @pytest.mark.parametrize("override", [
        "encoder.batch_size=1", "encoder.dropout=1.0",
        "encoder.learning_rate=0", "encoder.epochs=-1",
        "encoder.hash_dim=0", "encoder.hidden_dim=0", "encoder.out_dim=0",
    ])
    def test_bad_encoder_setting_exits_1_with_one_json_line(
            self, suffixless, tmp_path, override):
        _, p = suffixless
        code, lines = run_in_process(
            ["train-encoder", "--corpus", p["corpus"],
             "--output", str(tmp_path / "enc"), "--set", override],
            p["labels"])
        assert code == 1
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError"
        assert override.split("=")[0] in error["message"]
        assert not (tmp_path / "enc").exists()

    @pytest.mark.parametrize("command", [
        "gen-drift", "ingest", "summarize", "train-encoder", "embed",
        "index", "train", "predict", "evaluate", "ablate"])
    @pytest.mark.parametrize("fault", [
        "no.such.key=1", "encoder.batch_size=1", "retrieval.k=0",
        "train.batch_size=0", "unreadable-config"])
    def test_bad_config_exits_1_before_any_work(
            self, suffixless, tmp_path, command, fault):
        _, p = suffixless
        out = str(tmp_path / "out")
        corpus = ["--corpus", p["corpus"]]
        argv = [command, *{
            "gen-drift": ["--output", out, "--labels-output", out + ".txt",
                          "--n", "160", "--vocab-size", "400"],
            "ingest": ["--input", p["raw"], "--output", out],
            "summarize": ["--input", p["corpus"], "--output", out],
            "train-encoder": [*corpus, "--output", out],
            "embed": [*corpus, "--encoder", p["enc"], "--output", out],
            "index": [*corpus, "--embeddings", p["emb"], "--output", out],
            "train": [*corpus, "--index", p["idx"], "--output", out],
            "predict": [*corpus, "--index", p["idx"], "--model",
                        p["model"], "--output", out],
            "evaluate": [*corpus, "--index", p["idx"], "--model",
                         p["model"], "--output", out],
            "ablate": [*corpus, "--out-dir", out, "--seeds", "0"],
        }[command]]
        if fault == "unreadable-config":
            named = str(tmp_path / "absent.cfg")
            argv += ["--config", named]
        else:
            named = fault.split("=")[0]
            argv += ["--set", fault]
        code, lines = run_in_process(argv, p["labels"])
        assert code == 1
        assert len(lines) == 1, lines
        error = json.loads(lines[0])
        assert error["error"] == ("IoFailureError"
                                  if fault == "unreadable-config"
                                  else "ConfigError")
        assert named in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_training_exits_1(self, suffixless, tmp_path):
        _, p = suffixless
        code, lines = run_in_process(
            ["train", "--corpus", p["corpus"], "--index", p["idx"],
             "--output", str(tmp_path / "model"),
             "--set", "train.classifier_lr=1e300",
             "--set", "train.weight_decay=1e300"], p["labels"])
        assert code == 1
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "NonFiniteError"
        assert re.search(r"loss at epoch \d+ batch \d+", error["message"])
        assert not (tmp_path / "model").exists()
