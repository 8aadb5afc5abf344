"""The benchmark's workloads, driven through ``caseline.cli.main``.

Each workload is a set-up (corpus generation, ingest and any set-up
artifacts) and one timed iteration.  Stages run in-process through the
command-line entry point, the path a user takes; the benchmark gives
the program only the generated corpus.  Every stage, predict call and
correctness check is one attempted operation in ``Run.ops``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from caseline import cli, model, retrieval
from caseline.ablation import AblationSpec
from caseline.config import load_run_config
from caseline.corpus import load_corpus
from caseline.store import EmbeddingStore

from checks import Ops, brute_force_topk, same_topk, sample_ranks, unit_rows

SPEC_PATH = Path(__file__).with_name("workloads.json")


def load_specs() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


class StageFailed(Exception):
    """A stage or request failed; the iteration cannot go on."""


class Run:
    """Files, configuration and operation counts of one workload run.

    ``n`` and ``splits`` are the corpus size and split sizes, so the
    same workload code runs the measured corpus and the small warm-up
    corpus.
    """

    def __init__(self, name: str, spec: dict, workdir: Path,
                 corpus_seed: int, n: int, splits: dict, ops: Ops,
                 tracer=None):
        self.name = name
        self.spec = spec
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.seed = corpus_seed
        self.n = n
        self.splits = splits
        self.ops = ops
        self.tracer = tracer
        self.corpus_path = str(workdir / "corpus.jsonl")
        self.labels_path = str(workdir / "labels.txt")
        self.overrides = {**spec["overrides"],
                          "split.val_size": splits["validation"],
                          "split.test_size": splits["test"]}
        self.common = ["--labels-file", self.labels_path]
        for key, value in self.overrides.items():
            self.common += ["--set", f"{key}={value}"]
        self.case_ids: list[str] = []
        self.iteration = 0
        self._first: dict[str, object] = {}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def quiet(self):
        """Context in which calls into caseline are not traced: the
        benchmark's own reads and checks."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def check(self, ok: bool, what: str) -> bool:
        return self.ops.record(bool(ok), f"{self.name}: {what}")

    def same_as_first(self, key: str, value, what: str) -> None:
        """Outputs of a seeded pipeline repeat exactly across
        iterations."""
        if key not in self._first:
            self._first[key] = value
        else:
            self.check(self._first[key] == value,
                       f"{what} differs between iterations")

    def stage(self, *argv: str) -> float:
        """Run one CLI stage in-process; returns its wall time."""
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main([*argv, *self.common])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash counts as a failed stage
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if not self.check(code == 0, f"{argv[0]} exited {code}"):
            raise StageFailed(f"{self.name}: {argv[0]} exited {code}")
        return elapsed


# ------------------------------------------------------------- set-up

def prepare(run: Run) -> None:
    """Generate and ingest the corpus, then build set-up artifacts."""
    corpus = run.spec["corpus"]
    raw = run.path("raw.jsonl")
    run.stage("gen-drift", "--output", raw,
              "--labels-output", run.labels_path,
              "--n", str(run.n), "--n-labels", str(corpus["n_labels"]),
              "--vocab-size", str(corpus["vocab_size"]),
              "--rotation", str(corpus["rotation"]),
              "--noise", str(corpus["noise"]), "--seed", str(run.seed))
    run.stage("ingest", "--input", raw, "--output", run.corpus_path)
    # ingest writes the corpus in rank order
    with open(run.corpus_path, encoding="utf-8") as fh:
        run.case_ids = [json.loads(line)["case_id"] for line in fh]
    run.check(len(run.case_ids) == run.n,
              f"ingest kept {len(run.case_ids)} of {run.n} cases")
    if "train-encoder" in run.spec["setup_stages"]:
        run.stage("train-encoder", "--corpus", run.corpus_path,
                  "--output", run.path("encoder.npz"))
        run.stage("embed", "--corpus", run.corpus_path,
                  "--encoder", run.path("encoder.npz"),
                  "--output", run.path("embeddings.store"))


# --------------------------------------------------------- iterations

def encode_paper(run: Run) -> tuple[dict, dict]:
    encoder, store_path = run.path("encoder.npz"), run.path("embeddings.store")
    times = {
        "train-encoder": run.stage("train-encoder", "--corpus",
                                   run.corpus_path, "--output", encoder),
        "embed": run.stage("embed", "--corpus", run.corpus_path,
                           "--encoder", encoder, "--output", store_path),
    }
    with run.quiet():
        store = EmbeddingStore.load(store_path)
    run.check(store.case_ids == run.case_ids,
              "embed: store rows are not the corpus ranks")
    run.check(unit_rows(store.matrix),
              "embed: embeddings are not finite unit vectors")
    run.same_as_first("embeddings", hashlib.sha256(
        Path(store_path).read_bytes()).hexdigest(), "embed output")
    return times, {}


def retrieve_6k(run: Run) -> tuple[dict, dict]:
    corpus = run.corpus_path
    index, model_path = run.path("index.npz"), run.path("model.npz")
    preds = run.path("predictions.jsonl")
    report_model = run.path("report-model.json")
    report_preds = run.path("report-predictions.json")
    times = {
        "index": run.stage("index", "--corpus", corpus, "--embeddings",
                           run.path("embeddings.store"), "--output", index),
        "train": run.stage("train", "--corpus", corpus, "--index", index,
                           "--output", model_path),
        "predict": run.stage("predict", "--corpus", corpus,
                             "--index", index, "--model", model_path,
                             "--output", preds),
        "evaluate": run.stage("evaluate", "--corpus", corpus,
                              "--index", index, "--model", model_path,
                              "--output", report_model),
        "evaluate-predictions": run.stage(
            "evaluate", "--corpus", corpus, "--predictions", preds,
            "--output", report_preds),
    }
    report = Path(report_model).read_bytes()
    run.check(report == Path(report_preds).read_bytes(),
              "evaluate --predictions report differs from --model report")
    run.same_as_first("report", report, "evaluate report")
    latencies, evidence, store, labels, retr = _closed_loop(
        run, index, model_path)
    times["closed-loop"] = sum(latencies)
    _check_evidence(run, evidence, preds, store, labels, retr)
    scores = json.loads(report)["report"]
    return times, {"latencies": latencies,
                   "test_micro_f1": scores["micro_f1"],
                   "test_micro_pr_auc": scores["micro_pr_auc"]}


def _closed_loop(run: Run, index: str, model_path: str):
    """One client calls predict_with_evidence for every validation and
    test rank, each call after the previous one returned."""
    with run.quiet():
        store, labels, catalog, _ = cli.load_index(index)
        corpus = load_corpus(run.corpus_path, catalog)
        params = model.load_model(model_path)
        retr = load_run_config(None, [
            f"{k}={v}" for k, v in run.overrides.items()
        ]).retrieval_config()
    first = run.splits["train"]
    last = first + run.splits["validation"] + run.splits["test"]
    latencies, evidence = [], {}
    for rank in range(first, last):
        start = perf_counter()
        try:
            _, found = model.predict_with_evidence(
                corpus[rank], rank, params, store, labels, retr)
        except Exception as exc:  # a failed request is counted, not fatal
            run.check(False, f"predict rank {rank}: "
                             f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(perf_counter() - start)
        got = [(e.rank, e.score) for e in found]
        evidence[rank] = got
        run.check(len(got) == min(retr.k, rank)
                  and all(r < rank for r, _ in got),
                  f"predict rank {rank}: evidence not strictly earlier")
    return latencies, evidence, store, labels, retr


def _check_evidence(run: Run, evidence: dict, preds_path: str,
                    store, labels, retr) -> None:
    """Evidence rank bounds everywhere, and the exact top-k on a seeded
    sample of queries under both candidate policies."""
    run.check(unit_rows(store.matrix),
              "index: embeddings are not finite unit vectors")
    rank_of = {cid: r for r, cid in enumerate(run.case_ids)}
    file_evidence = {}
    with open(preds_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for record in records[1:]:
        # an unknown case id reads as a rank past the corpus
        file_evidence[rank_of.get(record["case_id"], -1)] = [
            (rank_of.get(e["case_id"], run.n), e["score"])
            for e in record["evidence"]]
    run.check(len(file_evidence) == run.splits["test"] and all(
        r < q for q, ev in file_evidence.items() for r, _ in ev),
        "predictions file: evidence not strictly earlier")

    n_train = run.splits["train"]
    rng = np.random.default_rng([run.seed, run.iteration])
    sample = run.spec["oracle_sample"]
    matrix, ids = store.matrix, store.case_ids
    queried = range(n_train, n_train + run.splits["validation"]
                    + run.splits["test"])
    for rank in sample_ranks(rng, queried, sample):
        want = brute_force_topk(matrix, ids, rank, matrix[rank], rank,
                                retr.k, retr.alpha, retr.val_size)
        run.check(same_topk(evidence.get(rank, []), want),
                  f"predict rank {rank}: top-k differs from brute force")
        if rank in file_evidence:
            run.check(same_topk(file_evidence[rank], want),
                      f"predictions file rank {rank}: top-k differs "
                      "from brute force")
    for rank in sample_ranks(rng, range(1, n_train), sample):
        with run.quiet():
            found = retrieval.retrieve_precedents(
                rank, matrix[rank], store, labels, retr,
                candidate_limit=n_train)
        got = [(e.rank, e.score) for e in found]
        pool_end = min(rank, n_train)
        want = brute_force_topk(matrix, ids, rank, matrix[rank], pool_end,
                                retr.k, retr.alpha, retr.val_size)
        run.check(all(r < pool_end for r, _ in got) and same_topk(got, want),
                  f"training-policy rank {rank}: top-k differs from "
                  "brute force")


def ablate_desk(run: Run) -> tuple[dict, dict]:
    out_dir = run.dir / "ablate"
    setup = run.spec["ablate"]
    times = {"ablate": run.stage(
        "ablate", "--corpus", run.corpus_path, "--out-dir", str(out_dir),
        "--experiment", setup["experiment"], "--seeds", setup["seeds"])}
    rows_bytes = (out_dir / "rows.json").read_bytes()
    rows = json.loads(rows_bytes)["rows"]
    seeds = [int(s) for s in setup["seeds"].split(",")]
    with run.quiet():
        cells = [c.name for c in AblationSpec.flag_matrix().cells]
    run.check(sorted((r["cell"], r["seed"]) for r in rows)
              == sorted((c, s) for c in cells for s in seeds),
              "ablate: rows are not one per (cell, seed)")
    run.check(all(_is_score(r["report"][m]) for r in rows
                  for m in ("micro_f1", "micro_jaccard", "micro_pr_auc")),
              "ablate: a metric is not a finite score in [0, 1]")
    run.same_as_first("rows", rows_bytes, "ablate rows")
    full = [r["report"] for r in rows if r["cell"] == "full"]
    return times, {
        "test_micro_f1": sum(r["micro_f1"] for r in full) / len(full),
        "test_micro_pr_auc": sum(r["micro_pr_auc"] for r in full)
        / len(full)}


def _is_score(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) \
        and 0.0 <= value <= 1.0


ITERATIONS = {"encode-paper": encode_paper, "retrieve-6k": retrieve_6k,
              "ablate-desk": ablate_desk}
