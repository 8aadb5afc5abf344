"""Command-line surface for the pipeline.

One subcommand per stage, so the expensive stages (encoder training,
corpus embedding) produce on-disk artifacts that later stages and
repeated experiments reuse.  Artifacts never mutate their inputs, and
every produced artifact embeds the configuration hash and the version
of the producing stage.  The run configuration is loaded and checked
once, before a subcommand starts.  Errors print a single
machine-parseable JSON line on stderr: usage errors exit 2, domain
errors exit 1.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ablation import AblationSpec, run_ablation
from .artifacts import canonical_json, load_npz, save_npz, save_text
from .config import RunConfig, load_run_config
from .corpus import (
    LabelCatalog,
    SplitCorpus,
    chronological_split,
    encode_labels,
    load_corpus,
)
from .encoder import embed_corpus, load_encoder, save_encoder, train_encoder
from .errors import (
    CaselineError,
    ConfigError,
    MalformedRecordError,
    UnknownLabelError,
)
from .metrics import MetricsReport, compute_report, format_report_table
from .model import (
    evaluate_split,
    infer,
    load_model,
    prediction_record,
    save_model,
    train,
)
from .store import EmbeddingStore
from .summarizer import summarize_corpus
from .synthetic import DriftCorpusConfig, generate_drift_corpus, \
    synthetic_catalog

log = logging.getLogger(__name__)

STAGE_VERSION = 1

__all__ = ["main"]


def _config_from(args: argparse.Namespace) -> RunConfig:
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return load_run_config(args.config, overrides)


def _catalog_from(args: argparse.Namespace) -> LabelCatalog:
    if getattr(args, "labels_file", None):
        return LabelCatalog.from_file(args.labels_file)
    return LabelCatalog.default()


def _provenance(cfg: RunConfig, stage: str) -> dict:
    return {"config_hash": cfg.config_hash(), "stage": stage,
            "stage_version": STAGE_VERSION, "tool_version": __version__}


# ---------------------------------------------------------------- index

_INDEX_FORMAT_VERSION = 1
_INDEX_SCHEMA = {"matrix": ("float", ("N", "D")),
                 "case_ids": ("text", ("N",)),
                 "labels": ("bits", ("N", "L")),
                 "label_names": ("text", ("L",))}


def save_index(path: str | Path, store: EmbeddingStore,
               labels: np.ndarray, catalog: LabelCatalog,
               provenance: dict) -> None:
    """Bundle embeddings, aligned label vectors, and the label names
    into one retrieval-ready artifact."""
    save_npz(path, "index", _INDEX_FORMAT_VERSION, {
        "matrix": store.matrix,
        "case_ids": np.array(store.case_ids, dtype=str),
        "labels": labels.astype(np.uint8),
        "label_names": np.array(list(catalog.names), dtype=str),
    }, provenance)


def load_index(path: str | Path
               ) -> tuple[EmbeddingStore, np.ndarray, LabelCatalog, dict]:
    arrays, meta = load_npz(path, "index", _INDEX_FORMAT_VERSION,
                            _INDEX_SCHEMA)
    return (EmbeddingStore([str(c) for c in arrays["case_ids"]],
                           arrays["matrix"]),
            arrays["labels"],
            LabelCatalog([str(n) for n in arrays["label_names"]]), meta)


def _indexed_splits(args: argparse.Namespace, cfg: RunConfig
                    ) -> tuple[EmbeddingStore, LabelCatalog, SplitCorpus]:
    """The store and catalog of ``--index``, and the chronological
    split of ``--corpus``, checked to be aligned with the store."""
    store, _, catalog, _ = load_index(args.index)
    corpus = load_corpus(args.corpus, catalog)
    store.check_alignment(corpus)
    return store, catalog, chronological_split(
        corpus, *cfg.split_sizes(len(corpus)))


# ----------------------------------------------------------- subcommands

def cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> int:
    catalog = _catalog_from(args)
    corpus = load_corpus(args.input, catalog)
    corpus.save_jsonl(args.output)
    print(f"ingested {len(corpus)} cases -> {args.output}")
    return 0


def cmd_summarize(args: argparse.Namespace, cfg: RunConfig) -> int:
    catalog = _catalog_from(args)
    corpus = load_corpus(args.input, catalog)
    summarized = summarize_corpus(corpus, cfg.summarizer_config())
    summarized.save_jsonl(args.output)
    print(f"summarized {len(summarized)} cases -> {args.output}")
    return 0


def cmd_train_encoder(args: argparse.Namespace, cfg: RunConfig) -> int:
    catalog = _catalog_from(args)
    corpus = load_corpus(args.corpus, catalog)
    splits = chronological_split(corpus, *cfg.split_sizes(len(corpus)))
    enc = train_encoder(splits.train, cfg.encoder_config())
    save_encoder(enc, args.output,
                 config_echo={**_provenance(cfg, "train-encoder"),
                              "config_text": cfg.to_text()})
    print(f"trained encoder on {splits.n_train} cases -> {args.output}")
    return 0


def cmd_embed(args: argparse.Namespace, cfg: RunConfig) -> int:
    catalog = _catalog_from(args)
    corpus = load_corpus(args.corpus, catalog)
    enc, _ = load_encoder(args.encoder)
    store = embed_corpus(corpus, enc)
    store.save(args.output)
    save_text(f"{args.output}.meta.json",
              canonical_json(_provenance(cfg, "embed")) + "\n")
    print(f"embedded {len(store)} cases -> {args.output}")
    return 0


def cmd_index(args: argparse.Namespace, cfg: RunConfig) -> int:
    catalog = _catalog_from(args)
    corpus = load_corpus(args.corpus, catalog)
    store = EmbeddingStore.load(args.embeddings)
    store.check_alignment(corpus)
    save_index(args.output, store, corpus.label_matrix(catalog),
               catalog, _provenance(cfg, "index"))
    print(f"indexed {len(store)} cases -> {args.output}")
    return 0


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    store, catalog, splits = _indexed_splits(args, cfg)
    params = train(splits, store, catalog, cfg.retrieval_config(),
                   cfg.train_config())
    params.meta = {**_provenance(cfg, "train"),
                   "config_text": cfg.to_text()}
    save_model(params, args.output)
    print(f"trained model on {splits.n_train} cases -> {args.output}")
    return 0


def cmd_predict(args: argparse.Namespace, cfg: RunConfig) -> int:
    store, catalog, splits = _indexed_splits(args, cfg)
    corpus = splits.corpus
    params = load_model(args.model)
    ranks = list(splits.ranks(args.split))
    pred, evidence = infer(params, ranks, store,
                           corpus.label_matrix(catalog).astype(np.float64),
                           cfg.retrieval_config())
    lines = [canonical_json({"_meta": {**_provenance(cfg, "predict"),
                                       "split": args.split}})]
    lines += [canonical_json(prediction_record(
        corpus[r].case_id, pred.row(i), catalog, evidence[i]))
        for i, r in enumerate(ranks)]
    save_text(args.output, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} predictions -> {args.output}")
    return 0


def _report_from_predictions(args: argparse.Namespace, cfg: RunConfig
                             ) -> MetricsReport:
    catalog = _catalog_from(args)
    corpus = load_corpus(args.corpus, catalog)
    rows, seen = [], set()
    text = Path(args.predictions).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{args.predictions}:{lineno}"
        try:  # JSONDecodeError is a ValueError
            obj = json.loads(line)
            if isinstance(obj, dict) and "_meta" in obj:
                continue
            case_id, probs = obj["case_id"], obj["probabilities"]
            rank = corpus.rank_of(case_id)
            decided = encode_labels(obj["decisions"], catalog)
        except (ValueError, KeyError, TypeError, UnknownLabelError) as exc:
            raise MalformedRecordError(
                f"{where}: {type(exc).__name__}: {exc}") from None
        if rank in seen:
            raise MalformedRecordError(
                f"{where}: repeated case_id {case_id!r}")
        seen.add(rank)
        if not (isinstance(probs, list) and len(probs) == len(catalog)
                and all(type(p) in (int, float) and 0.0 <= p <= 1.0
                        for p in probs)):
            raise MalformedRecordError(
                f"{where}: probabilities must be {len(catalog)} numbers "
                "in [0, 1]")
        rows.append((np.array(probs, dtype=np.float64), decided,
                     encode_labels(corpus[rank].articles, catalog)))
    if not rows:
        raise MalformedRecordError(
            f"{args.predictions}: no prediction records")
    probs, decisions, truth = (np.stack(col) for col in zip(*rows))
    return compute_report(probs, decisions, truth, seed=cfg.get("seed"))


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.predictions:
        report = _report_from_predictions(args, cfg)
    else:
        if not (args.index and args.model):
            raise ConfigError(
                "evaluate needs either --predictions or both "
                "--index and --model")
        store, catalog, splits = _indexed_splits(args, cfg)
        params = load_model(args.model)
        report = evaluate_split(params, splits, store, catalog,
                                cfg.retrieval_config(), args.split,
                                seed=cfg.get("seed"))
    payload = {**_provenance(cfg, "evaluate"),
               "report": json.loads(report.to_json())}
    if args.output:
        save_text(args.output, canonical_json(payload) + "\n")
    print(format_report_table([("evaluation", [report])]), end="")
    return 0


def cmd_ablate(args: argparse.Namespace, cfg: RunConfig) -> int:
    catalog = _catalog_from(args)
    corpus = load_corpus(args.corpus, catalog)
    splits = chronological_split(corpus, *cfg.split_sizes(len(corpus)))
    spec = {"flags": AblationSpec.flag_matrix,
            "k": AblationSpec.k_sweep,
            "alpha": AblationSpec.alpha_sweep,
            "lambda": AblationSpec.lam_sweep}[args.experiment]()
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise ConfigError("at least one seed required")
    result = run_ablation(spec, splits, catalog, seeds,
                          cfg.encoder_config(), cfg.retrieval_config(),
                          cfg.train_config())
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = json.loads(result.to_json())
    payload["provenance"] = _provenance(cfg, "ablate")
    save_text(out_dir / "rows.json", canonical_json(payload) + "\n")
    save_text(out_dir / "table.txt", result.to_text())
    save_text(out_dir / "sweep.csv", result.to_csv())
    print(result.to_text(), end="")
    return 0


def cmd_gen_drift(args: argparse.Namespace, cfg: RunConfig) -> int:
    corpus_cfg = DriftCorpusConfig(
        n_cases=args.n, n_labels=args.n_labels,
        vocab_size=args.vocab_size, rotation_rate=args.rotation,
        noise_rate=args.noise, seed=cfg.get("seed"))
    corpus = generate_drift_corpus(corpus_cfg)
    corpus.save_jsonl(args.output)
    if args.labels_output:
        synthetic_catalog(args.n_labels).to_file(args.labels_output)
    print(f"generated {len(corpus)} drifting cases -> {args.output}")
    return 0


# --------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caseline",
        description="Retrieval-augmented, temporally-aware multi-label "
                    "case outcome prediction pipeline.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run configuration file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key")
    common.add_argument("--seed", type=int,
                        help="override the global seed")
    common.add_argument("--labels-file",
                        help="label catalog file (one name per line); "
                             "defaults to the built-in catalog")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="log progress at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="validate, sort and canonicalize a corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("summarize", parents=[common],
                       help="summarize case texts via the remote "
                            "service")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("train-encoder", parents=[common],
                       help="contrastive-train the case encoder")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train_encoder)

    p = sub.add_parser("embed", parents=[common],
                       help="embed every case with a trained encoder")
    p.add_argument("--corpus", required=True)
    p.add_argument("--encoder", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("index", parents=[common],
                       help="bundle embeddings and labels for "
                            "retrieval")
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("train", parents=[common],
                       help="train the classifier and drift head")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common],
                       help="write per-case predictions with evidence")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--split", default="test",
                   choices=["train", "validation", "test"])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common],
                       help="compute micro metrics for a split or a "
                            "predictions file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--index")
    p.add_argument("--model")
    p.add_argument("--predictions",
                   help="evaluate this predictions file instead of "
                        "running the model")
    p.add_argument("--output", help="write the JSON report here")
    p.add_argument("--split", default="test",
                   choices=["train", "validation", "test"])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", parents=[common],
                       help="run an ablation or sweep experiment")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--experiment", default="flags",
                   choices=["flags", "k", "alpha", "lambda"])
    p.add_argument("--seeds", default="0,1,2,3,4",
                   help="comma-separated seed list")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gen-drift", parents=[common],
                       help="generate a synthetic drifting corpus")
    p.add_argument("--output", required=True)
    p.add_argument("--labels-output",
                   help="also write the label catalog here")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--n-labels", type=int, default=8)
    p.add_argument("--vocab-size", type=int, default=2000)
    p.add_argument("--rotation", type=float, default=1.5)
    p.add_argument("--noise", type=float, default=0.3)
    p.set_defaults(func=cmd_gen_drift)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args, _config_from(args))
    except CaselineError as exc:
        print(json.dumps({"error": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable input
        print(json.dumps({"error": "IoFailureError",
                          "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
