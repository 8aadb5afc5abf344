"""End-to-end command-line pipeline in subprocesses: artifact flow,
determinism, exit codes, and error formatting."""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline import cli
from caseline.artifacts import load_npz, save_npz
from caseline.config import load_run_config
from caseline.corpus import LabelCatalog, chronological_split, load_corpus
from caseline.model import infer, load_model
from caseline.store import EmbeddingStore

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
        assert sorted(f.name for f in d.iterdir()) == sorted(art)

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
        text = Path(art["predictions.jsonl"]).read_text(encoding="utf-8")
        lines = [json.loads(line) for line in text.splitlines()
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
        """The store carries its provenance in its own meta record."""
        d, art, _ = pipeline
        _, meta = load_npz(art["embeddings.npz"], "store", 1, {})
        assert not list(d.glob("*.meta.json"))
        assert meta["stage"] == "embed"
        assert len(meta["config_hash"]) == 16
        assert meta["stage_version"] == 1

    def test_report_is_valid_and_provenanced(self, pipeline):
        _, art, _ = pipeline
        payload = json.loads(
            Path(art["report.json"]).read_text(encoding="utf-8"))
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
        a = Path(art["report.json"]).read_bytes()
        b = Path(art["report_from_predictions.json"]).read_bytes()
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
        text = Path(art["predictions.jsonl"]).read_text(encoding="utf-8")
        records = [json.loads(line) for line in text.splitlines()][1:]
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
        assert out.read_bytes() == Path(art["report.json"]).read_bytes()

    def test_predict_rerun_byte_identical(self, pipeline, tmp_path):
        _, art, _ = pipeline
        out = tmp_path / "preds_again.jsonl"
        run_cli("predict", "--corpus", art["ingested.jsonl"],
                "--index", art["index.npz"], "--model", art["model.npz"],
                "--output", str(out), "--split", "test", *SETS)
        assert out.read_bytes() \
            == Path(art["predictions.jsonl"]).read_bytes()

    def test_ingest_round_trip_stable(self, pipeline):
        _, art, _ = pipeline
        assert Path(art["ingested.jsonl"]).read_bytes() \
            == Path(art["corpus.jsonl"]).read_bytes()


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

    def test_gen_drift_without_noise_words_refused(self, tmp_path):
        """8 labels of 40 topic words fill a 240-word vocabulary, but
        the 2 policy labels still send some cases to the noise words."""
        out = tmp_path / "raw.jsonl"
        proc = run_cli("gen-drift", "--output", str(out), "--n", "200",
                       "--n-labels", "8", "--vocab-size", "240",
                       "--noise", "0.0", check=False)
        assert proc.returncode == 1
        lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigError"
        assert not out.exists()

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
        lines = Path(art["predictions.jsonl"]).read_text(
            encoding="utf-8").splitlines()
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

    def test_predictions_outside_the_split_refused(self, pipeline, tmp_path,
                                                   capsys):
        """A validation predictions file scores as the model does under
        --split validation, and is refused under the default test
        split."""
        _, art, _ = pipeline
        preds, scored, direct = (str(tmp_path / name) for name in (
            "predictions.jsonl", "scored.json", "direct.json"))
        corpus = ["--corpus", art["ingested.jsonl"], *SETS]
        model = ["--index", art["index.npz"], "--model", art["model.npz"]]
        offline = ["--predictions", preds, "--labels-file", art["labels.txt"]]
        assert cli.main(["predict", *corpus, *model, "--output", preds,
                         "--split", "validation"]) == 0
        assert cli.main(["evaluate", *corpus, *offline,
                         "--split", "validation", "--output", scored]) == 0
        assert cli.main(["evaluate", *corpus, *model,
                         "--split", "validation", "--output", direct]) == 0
        assert Path(scored).read_bytes() == Path(direct).read_bytes()
        first = json.loads(Path(preds).read_text(
            encoding="utf-8").splitlines()[1])["case_id"]
        capsys.readouterr()
        code = cli.main(["evaluate", *corpus, *offline])
        err = [ln for ln in capsys.readouterr().err.splitlines()
               if ln.strip()]
        assert code == 1
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "MalformedRecordError"
        assert payload["message"] == (f"{preds}:2: case {first!r} is not "
                                      "in the test split")

    @pytest.mark.parametrize("seeds", ["a", "1.5", "0,x", "-1", "0,,-2",
                                       "0,0", "1,2,1", ",", ""])
    def test_bad_seed_list_is_usage_error(self, tmp_path, capsys, seeds):
        """Rejected while parsing, before the (absent) corpus is read."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["ablate", "--corpus", str(tmp_path / "absent.jsonl"),
                      "--out-dir", str(tmp_path / "out"), "--seeds", seeds])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "argument --seeds" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rotation", ["nan", "inf", "-1"])
    def test_bad_rotation_is_config_error(self, tmp_path, capsys, rotation):
        code = cli.main(["gen-drift", "--output", str(tmp_path / "out"),
                         "--n", "50", "--rotation", rotation])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError"
        assert "rotation_rate" in error["message"]
        assert list(tmp_path.iterdir()) == []

    def test_summarize_is_no_longer_a_subcommand(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["summarize", "--input", str(tmp_path / "in.jsonl"),
                      "--output", str(tmp_path / "out.jsonl")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "'summarize'" in err
        assert list(tmp_path.iterdir()) == []

    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.stdout.startswith("caseline ")


# Every subcommand, in the order the parser declares them.
COMMANDS = ["ingest", "train-encoder", "embed", "index", "train", "predict",
            "evaluate", "ablate", "gen-drift"]


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
    elif how == "double":
        arrays[name] = np.vstack([arrays[name]] * 2)
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
        assert sorted(f.name for f in d.iterdir()) \
            == ["corpus", "emb", "enc", "idx", "labels", "model", "preds",
                "raw"]
        assert p["train_encoder_stdout"].strip().endswith(f"-> {p['enc']}")

    @pytest.mark.parametrize("artifact, damage", [
        ("enc", "truncate"), ("enc", "zero-middle"),
        ("enc", "w2:flatten"), ("enc", "b1:short"), ("enc", "w1:nan"),
        ("enc", "version"), ("enc", "model-file"),
        ("emb", "truncate"), ("emb", "flip-matrix-bit"),
        ("emb", "matrix:nan"), ("emb", "case_ids:short"), ("emb", "version"),
        ("emb", "model-file"),
        ("idx", "truncate"), ("idx", "zero-middle"), ("idx", "version"),
        ("idx", "labels:two"), ("idx", "labels:drop-column"),
        ("model", "truncate"), ("model", "zero-middle"),
        ("model", "w:flatten"), ("model", "b:short"),
        ("model", "drift_w2:transpose"), ("model", "w:nan"),
        ("model", "version"), ("model", "drift_w1:double"),
        ("model", "meta:train_rank_range=[5]"),
        ("model", "meta:train_rank_range=[9, 3]"),
        ("model", "meta:train_rank_range=[4, 4]"),
        ("model", "meta:train_rank_range=[0.5, 200]"),
        ("model", "meta:train_rank_range=[false, 200]"),
        ("model", "meta:train_rank_range=[0, 100, 200]"),
        ("model", 'meta:val_size="40"'), ("model", "meta:test_size=null"),
        ("model", "meta:val_size=40.0"), ("model", "meta:test_size=40.0"),
    ])
    def test_damaged_artifact_exits_1_with_one_json_line(
            self, suffixless, tmp_path, artifact, damage):
        _, p = suffixless
        raw = bytearray(Path(p[artifact]).read_bytes())
        bad = str(tmp_path / "damaged")
        if damage == "truncate":
            raw = raw[:len(raw) // 2]
        elif damage == "zero-middle":
            mid = len(raw) // 2
            raw[mid:mid + 64] = bytes(64)
        elif damage == "flip-matrix-bit":
            # a finite but wrong value, caught by the member's CRC-32
            data = EmbeddingStore.load(p["emb"]).matrix.tobytes()
            raw[raw.find(data) + len(data) // 2] ^= 1
        elif damage == "model-file":
            raw = bytearray(Path(p["model"]).read_bytes())
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

    @pytest.mark.parametrize("fault", ["embed-dim", "extra-label"])
    def test_model_that_does_not_fit_its_index_exits_1(
            self, suffixless, tmp_path, fault):
        """An index of other embeddings or labels than the model was
        trained on fails at load, naming both files."""
        _, p = suffixless
        store, labels, catalog, meta = cli.load_index(p["idx"])
        store_path, labels_path = p["emb"], p["labels"]
        if fault == "embed-dim":
            half = store.matrix[:, :store.dim // 2]
            store_path = str(tmp_path / "emb")
            EmbeddingStore(store.case_ids,
                           half / np.linalg.norm(half, axis=1)[:, None]
                           ).save(store_path, meta)
        else:
            catalog = LabelCatalog([*catalog.names, "extra"])
            labels = np.hstack([labels, np.zeros((len(labels), 1), np.uint8)])
            labels_path = str(tmp_path / "labels")
            catalog.to_file(labels_path)
        idx, out = str(tmp_path / "idx"), str(tmp_path / "out")
        cli.save_index(idx, store_path, labels, catalog, meta)
        given = ["--corpus", p["corpus"], "--index", idx, "--model",
                 p["model"], "--output", out]
        for argv in (["predict", *given], ["evaluate", *given]):
            code, lines = run_in_process(argv, labels_path)
            assert code == 1, argv[0]
            assert len(lines) == 1, lines
            error = json.loads(lines[0])
            assert error["error"] == "DimensionMismatchError"
            assert p["model"] in error["message"]
            assert idx in error["message"]
        assert not os.path.exists(out)

    def test_index_holds_labels_and_names_its_store(self, suffixless):
        _, p = suffixless
        with np.load(p["idx"]) as data:
            assert sorted(data.files) == ["label_names", "labels", "meta"]
        _, meta = load_npz(p["idx"], "index", 2, {})
        assert meta["store"] == "emb"
        assert meta["store_sha256"] == hashlib.sha256(
            Path(p["emb"]).read_bytes()).hexdigest()

    def test_index_and_store_moved_together_still_work(
            self, suffixless, tmp_path):
        """The index names its store relative to its own directory."""
        _, p = suffixless
        for name in ("idx", "emb"):
            shutil.copy(p[name], tmp_path / name)
        idx, model = str(tmp_path / "idx"), str(tmp_path / "model")
        for argv in (["train", "--corpus", p["corpus"], "--index", idx,
                      "--output", model],
                     ["evaluate", "--corpus", p["corpus"], "--index", idx,
                      "--model", model]):
            assert run_in_process(argv, p["labels"]) == (0, [])
        assert Path(model).read_bytes() == Path(p["model"]).read_bytes()

    @pytest.mark.parametrize("fault", ["missing", "re-embedded"])
    def test_missing_or_changed_store_is_config_error(
            self, suffixless, tmp_path, fault):
        _, p = suffixless
        idx, store = str(tmp_path / "idx"), str(tmp_path / "emb")
        shutil.copy(p["idx"], idx)
        if fault == "re-embedded":
            assert main_quiet("embed", "--corpus", p["corpus"], "--encoder",
                              p["enc"], "--output", store, "--seed", "5",
                              "--labels-file", p["labels"]) == 0
        for argv in consumers(p, idx, "idx", str(tmp_path / "out")):
            code, lines = run_in_process(argv, p["labels"])
            assert code == 1, argv[0]
            assert len(lines) == 1, lines
            error = json.loads(lines[0])
            assert error["error"] == "ConfigError"
            assert store in error["message"] and idx in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault", ["version-1", "short-labels"])
    def test_index_that_does_not_match_its_store_exits_1(
            self, suffixless, tmp_path, fault):
        """A version-1 index (which copied the store) must be rebuilt;
        an index with other rows than its store is damaged."""
        _, p = suffixless
        idx = str(tmp_path / "idx")
        shutil.copy(p["emb"], tmp_path / "emb")
        if fault == "version-1":
            store, labels, catalog, meta = cli.load_index(p["idx"])
            save_npz(idx, "index", 1, {
                "matrix": store.matrix,
                "case_ids": np.array(store.case_ids, dtype=str),
                "labels": labels,
                "label_names": np.array(catalog.names, dtype=str)}, meta)
        else:
            edit_npz(p["idx"], idx, "labels:short")
        for argv in consumers(p, idx, "idx", str(tmp_path / "out")):
            code, lines = run_in_process(argv, p["labels"])
            assert code == 1, argv[0]
            assert len(lines) == 1, lines
            assert json.loads(lines[0])["error"] \
                == ("ConfigError" if fault == "version-1"
                    else "IoFailureError")
        assert not (tmp_path / "out").exists()

    def test_labels_file_other_than_the_index_catalog_exits_1(
            self, suffixless, tmp_path):
        _, p = suffixless
        labels, out = tmp_path / "labels", str(tmp_path / "out")
        labels.write_text("X0\nX1\n", encoding="utf-8")
        given = ["--corpus", p["corpus"], "--index", p["idx"],
                 "--output", out]
        for argv in (["train", *given],
                     ["predict", *given, "--model", p["model"]],
                     ["evaluate", *given, "--model", p["model"]]):
            code, lines = run_in_process(argv, str(labels))
            assert code == 1, argv[0]
            assert len(lines) == 1, lines
            error = json.loads(lines[0])
            assert error["error"] == "ConfigError"
            assert str(labels) in error["message"]
            assert p["idx"] in error["message"]
        assert not os.path.exists(out)

    def test_index_output_onto_its_store_is_refused(
            self, suffixless, tmp_path):
        _, p = suffixless
        store = tmp_path / "emb"
        shutil.copy(p["emb"], store)
        (tmp_path / "link").symlink_to(store)
        before = store.read_bytes()
        for out in (store, tmp_path / "link"):
            code, lines = run_in_process(
                ["index", "--corpus", p["corpus"], "--embeddings",
                 str(store), "--output", str(out)], p["labels"])
            assert code == 1
            assert len(lines) == 1, lines
            assert json.loads(lines[0])["error"] == "ConfigError"
        assert store.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["emb", "link"]

    # Each subcommand with the options naming the files it reads besides
    # --config and --labels-file (a run taking --index also reads the
    # store the index names, "emb"), and the files it writes: options, or
    # file names in ablate's --out-dir.  ingest may rewrite its --input
    # in place, and gen-drift reads no --labels-file, so neither is a
    # target.
    OUT = ["--output"]
    READS = {"ingest": (["--input"], OUT),
             "train-encoder": (["--corpus"], OUT),
             "embed": (["--corpus", "--encoder"], OUT),
             "index": (["--corpus", "--embeddings"], OUT),
             "train": (["--corpus", "--index"], OUT),
             "predict": (["--corpus", "--index", "--model"], OUT),
             "evaluate": (["--corpus", "--index", "--model"], OUT),
             "evaluate-predictions": (["--corpus", "--predictions"], OUT),
             "gen-drift": ([], ["--output", "--labels-output"]),
             "ablate": (["--corpus"], ["rows.json", "table.txt",
                                       "sweep.csv"])}
    FILE = {"--config": "config", "--labels-file": "labels",
            "--input": "raw", "--corpus": "corpus", "--encoder": "enc",
            "--embeddings": "emb", "--index": "idx", "--model": "model",
            "--predictions": "preds", "store": "emb",
            "--output": "out", "--labels-output": "labels_out"}

    @pytest.mark.parametrize("run,out,target", [
        pytest.param(run, out, target, id=":".join(
            [run] + ([out.lstrip("-")] if out != "--output" else [])
            + [target.lstrip("-")]))
        for run, (opts, writes) in READS.items()
        for i, out in enumerate(writes)
        for target in ["--config",
                       *(["--labels-file"] if run != "gen-drift" else []),
                       *(o for o in opts if o != "--input")]
        + (["store"] if "--index" in opts else [])
        + [w for w in writes[:i] if w.startswith("--")]])
    def test_output_onto_an_input_is_refused(
            self, suffixless, tmp_path, run, out, target):
        _, p = suffixless
        for name in ("raw", "labels", "corpus", "enc", "emb", "idx", "model",
                     "preds"):
            shutil.copy(p[name], tmp_path / name)
        (tmp_path / "config").write_text("seed=0\n")
        file = {opt: tmp_path / name for opt, name in self.FILE.items()}
        reads, writes = self.READS[run]
        if out.startswith("--"):
            file[out] = file[target]
        else:  # a file of ablate's --out-dir
            file[target] = file[target].rename(tmp_path / out)
            file["--out-dir"], writes = tmp_path, ["--out-dir"]
        argv = [run.removesuffix("-predictions")]
        for opt in ["--config", *reads, *writes]:
            argv += [opt, str(file[opt])]
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        code, lines = run_in_process(argv, str(file["--labels-file"]))
        assert code == 1
        assert len(lines) == 1, lines
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError"
        what = "output" if target in writes else "input"
        assert f"would replace its {what}" in error["message"]
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("run", ["ingest", "gen-drift"])
    def test_output_onto_a_file_the_run_does_not_read(
            self, suffixless, tmp_path, run):
        """ingest reads its whole --input before it rewrites it in place;
        gen-drift reads no --labels-file, so it may write its catalog
        there.  The file ends up as the fixture's own run wrote it."""
        _, p = suffixless
        path = tmp_path / "file"
        if run == "ingest":
            shutil.copy(p["raw"], path)
            argv = ["ingest", "--input", str(path), "--output", str(path)]
            want, labels = p["corpus"], p["labels"]
        else:
            path.write_text("stale\n", encoding="utf-8")
            argv = ["gen-drift", "--output", str(tmp_path / "raw"),
                    "--labels-output", str(path), "--n", "160"]
            want, labels = p["labels"], str(path)
        assert run_in_process(argv, labels) == (0, [])
        assert path.read_bytes() == Path(want).read_bytes()



    @pytest.mark.parametrize("given", [
        ["--predictions", "--index", "--model"], ["--predictions", "--index"],
        ["--predictions", "--model"], ["--index"], ["--model"]])
    def test_evaluate_takes_predictions_or_index_and_model(
            self, suffixless, tmp_path, given):
        _, p = suffixless
        path = {"--predictions": p["preds"], "--index": p["idx"],
                "--model": p["model"]}
        out = str(tmp_path / "out")
        code, lines = run_in_process(
            ["evaluate", "--corpus", p["corpus"], "--output", out,
             *[a for flag in given for a in (flag, path[flag])]],
            p["labels"])
        assert code == 1
        assert len(lines) == 1, lines
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError"
        assert "either --predictions or both --index and --model" \
            in error["message"]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("where", ["case_id", "label"])
    def test_nul_in_case_id_or_label_name_exits_1(
            self, suffixless, tmp_path, where):
        """Text arrays drop trailing NULs, so ingest rejects them."""
        _, p = suffixless
        raw, labels = tmp_path / "raw", tmp_path / "labels"
        lines = Path(p["raw"]).read_text(encoding="utf-8").splitlines()
        names = Path(p["labels"]).read_text(encoding="utf-8").splitlines()
        if where == "case_id":
            rec = json.loads(lines[1])
            rec["case_id"] += "\x00"
            lines[1] = json.dumps(rec)
        else:
            names[0] += "\x00"
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        labels.write_text("\n".join(names) + "\n", encoding="utf-8")
        code, err = run_in_process(
            ["ingest", "--input", str(raw), "--output",
             str(tmp_path / "out")], str(labels))
        assert code == 1
        assert len(err) == 1
        error = json.loads(err[0])
        if where == "case_id":
            assert error["error"] == "MalformedRecordError"
            assert f"{raw}:2:" in error["message"]
        else:
            assert error["error"] == "ConfigError"
        assert "U+0000" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("artifact", [
        "labels", "corpus", "enc", "emb", "idx", "model", "preds"])
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_artifact_never_escapes(
            self, suffixless, artifact, data):
        _, p = suffixless
        raw = bytearray(Path(p[artifact]).read_bytes())
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
        "encoder.weight_decay=nan", "encoder.learning_rate=inf", "seed=-1",
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

    def test_out_of_memory_exits_1_with_one_json_line(
            self, suffixless, tmp_path, monkeypatch):
        def exhausted(*_):
            raise MemoryError("Unable to allocate 4.00 TiB for an array")

        monkeypatch.setattr(cli, "train_encoder", exhausted)
        _, p = suffixless
        code, lines = run_in_process(
            ["train-encoder", "--corpus", p["corpus"],
             "--output", str(tmp_path / "enc")], p["labels"])
        assert code == 1
        assert [json.loads(line) for line in lines] == [
            {"error": "MemoryError",
             "message": "Unable to allocate 4.00 TiB for an array"}]
        assert not (tmp_path / "enc").exists()

    def test_command_list_is_every_subcommand(self):
        parser = cli._build_parser()
        assert COMMANDS == list(next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)))

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("fault", [
        "no.such.key=1", "encoder.batch_size=1", "retrieval.k=0",
        "train.batch_size=0", "split.test_size=0", "unreadable-config",
        "train.finetune_encoder=true", "train.drift_frequencies=1"])
    def test_bad_config_exits_1_before_any_work(
            self, suffixless, tmp_path, command, fault):
        _, p = suffixless
        out = str(tmp_path / "out")
        corpus = ["--corpus", p["corpus"]]
        argv = [command, *{
            "gen-drift": ["--output", out, "--labels-output", out + ".txt",
                          "--n", "160", "--vocab-size", "400"],
            "ingest": ["--input", p["raw"], "--output", out],
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

    @pytest.mark.parametrize("command", ["train-encoder", "train"])
    def test_non_finite_weights_are_never_written(self, suffixless, tmp_path,
                                                  command):
        """One huge step per run: every loss is finite, the weights it
        leaves are not, and the save refuses them.  Run as a process,
        since numpy's overflow warnings must not reach its stderr
        (pytest would capture them in-process)."""
        _, p = suffixless
        out = str(tmp_path / "out")
        sets = {"train-encoder": ["encoder.batch_size=80",
                                  "encoder.weight_decay=1e300",
                                  "encoder.learning_rate=1e10"],
                "train": ["train.batch_size=80", "train.weight_decay=1e300",
                          "train.classifier_lr=1e10", "train.max_epochs=1"],
                }[command]
        argv = [command, *SETS, "--corpus", p["corpus"], "--output", out,
                "--labels-file", p["labels"]]
        if command == "train":
            argv += ["--index", p["idx"]]
        for item in sets:
            argv += ["--set", item]
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])
        assert set(error) == {"error", "message"}
        assert error["error"] == "NonFiniteError"
        assert out in error["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("override", ["split.test_size=60",
                                          "split.val_size=20"])
    def test_model_scored_under_another_split_exits_1(
            self, suffixless, tmp_path, command, override):
        """Another split could score the model on its own training
        cases; the model records the split it was trained under."""
        _, p = suffixless
        out = str(tmp_path / "out")
        code, lines = run_in_process(
            [command, "--corpus", p["corpus"], "--index", p["idx"],
             "--model", p["model"], "--output", out, "--set", override],
            p["labels"])
        assert code == 1
        assert len(lines) == 1, lines
        error = json.loads(lines[0])
        assert error["error"] == "ConfigError"
        key, value = override.split("=")
        assert f"{key} = 40," in error["message"]
        assert error["message"].endswith(f"{key} = {value}")
        assert list(tmp_path.iterdir()) == []


def test_cli_imports_nothing_beyond_numpy():
    """Importing the CLI adds no top-level package but caseline and
    numpy to what the interpreter had already loaded (site hooks may
    load some)."""
    probe = ("import json, sys; before = set(sys.modules); "
             "import caseline.cli; "
             "added = {m.partition('.')[0] for m in set(sys.modules) - before}; "
             "print(json.dumps(sorted(added - set(sys.stdlib_module_names))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == ["caseline", "numpy"]


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20,
                                  (5 << 19) + 3])
def test_store_digest_equals_whole_file_sha256(tmp_path, size):
    """The store digest, read in 1 MiB chunks, is the sha256 of the
    whole file, whether it ends inside, at or past a chunk."""
    path = tmp_path / "store"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert cli._file_sha256(path) \
        == hashlib.sha256(path.read_bytes()).hexdigest()
