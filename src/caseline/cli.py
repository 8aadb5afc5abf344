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
import hashlib
import json
import logging
import os
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
    DimensionMismatchError,
    IoFailureError,
    MalformedRecordError,
    UnknownLabelError,
)
from .metrics import MetricsReport, compute_report, format_report_table
from .model import (
    ModelParams,
    evaluate_split,
    infer,
    load_model,
    prediction_record,
    save_model,
    train_with_history,
)
from .store import EmbeddingStore
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


# The options that name a file a subcommand reads, and the files that
# ablate writes in its --out-dir.
_INPUT_OPTIONS = ("config", "labels_file", "corpus", "encoder", "embeddings",
                  "index", "model", "predictions")
_ABLATE_OUTPUTS = ("rows.json", "table.txt", "sweep.csv")


def _check_output(args: argparse.Namespace, *also: str | Path) -> None:
    """Refuse a file the run writes (``--output``, ``--labels-output`` or
    a file in ``--out-dir``) that resolves, symlinks included, to a file
    it reads, one that its options name or one of ``also``, or to
    another of its outputs."""
    outs = [(f"--{o.replace('_', '-')}", Path(getattr(args, o)))
            for o in ("output", "labels_output") if getattr(args, o, None)]
    if getattr(args, "out_dir", None):
        outs += [("--out-dir", Path(args.out_dir) / name)
                 for name in _ABLATE_OUTPUTS]
    # gen-drift reads no --labels-file, so it may write its catalog there
    options = [o for o in _INPUT_OPTIONS
               if (args.command, o) != ("gen-drift", "labels_file")]
    reads = [Path(path) for path in
             [getattr(args, o, None) for o in options] + [*also] if path]
    for i, (option, out) in enumerate(outs):
        target = out.resolve()
        for what, paths in (("input", reads),
                            ("output", [o for _, o in outs[:i]])):
            for path in paths:
                if path.resolve() == target:
                    raise ConfigError(f"{args.command} {option} {out} "
                                      f"would replace its {what} {path}")


def _provenance(cfg: RunConfig, stage: str) -> dict:
    return {"config_hash": cfg.config_hash(), "stage": stage,
            "stage_version": STAGE_VERSION, "tool_version": __version__}


# ---------------------------------------------------------------- index

_INDEX_FORMAT_VERSION = 2
_INDEX_SCHEMA = {"labels": ("bits", ("N", "L")),
                 "label_names": ("text", ("L",))}
_INDEX_META = {"store": str, "store_sha256": str}


def save_index(path: str | Path, store_path: str | Path,
               labels: np.ndarray, catalog: LabelCatalog,
               provenance: dict) -> None:
    """Write the label vectors and names of the store at ``store_path``,
    naming that store by its path relative to the index's directory and
    by its sha256 instead of copying it."""
    save_npz(path, "index", _INDEX_FORMAT_VERSION, {
        "labels": labels.astype(np.uint8),
        "label_names": np.array(list(catalog.names), dtype=str),
    }, {**provenance,
        "store": os.path.relpath(store_path, Path(path).parent),
        "store_sha256": hashlib.sha256(
            Path(store_path).read_bytes()).hexdigest()})


def load_index(path: str | Path
               ) -> tuple[EmbeddingStore, np.ndarray, LabelCatalog, dict]:
    """The store an index names, checked to be the file the index was
    built from, with the index's labels, catalog and meta record."""
    arrays, meta = load_npz(path, "index", _INDEX_FORMAT_VERSION,
                            _INDEX_SCHEMA, _INDEX_META)
    store_path = Path(path).parent / meta["store"]
    try:
        digest = hashlib.sha256(store_path.read_bytes()).hexdigest()
    except OSError as exc:
        raise ConfigError(f"cannot read store {store_path} named by index "
                          f"{path}: {exc}") from None
    if digest != meta["store_sha256"]:
        raise ConfigError(f"store {store_path} has changed since index "
                          f"{path} was built from it; rerun index")
    store = EmbeddingStore.load(store_path)
    if len(store) != len(arrays["labels"]):
        raise IoFailureError(f"store {store_path} has {len(store)} rows, "
                             f"but index {path} labels "
                             f"{len(arrays['labels'])}")
    return (store, arrays["labels"],
            LabelCatalog([str(n) for n in arrays["label_names"]]), meta)


def _indexed_splits(args: argparse.Namespace, cfg: RunConfig
                    ) -> tuple[EmbeddingStore, LabelCatalog, SplitCorpus]:
    """The store and catalog of ``--index``, and the chronological
    split of ``--corpus``, checked to be aligned with the store.  A
    ``--labels-file`` must list the index's labels.  ``--output`` may
    be none of these files, nor the store the index names."""
    store, _, catalog, meta = load_index(args.index)
    _check_output(args, Path(args.index).parent / meta["store"])
    if args.labels_file and _catalog_from(args) != catalog:
        raise ConfigError(f"labels file {args.labels_file} does not list "
                          f"the labels of index {args.index}")
    corpus = load_corpus(args.corpus, catalog)
    store.check_alignment(corpus)
    return store, catalog, chronological_split(
        corpus, *cfg.split_sizes(len(corpus)))


def _fitting_model(args: argparse.Namespace, cfg: RunConfig,
                   store: EmbeddingStore, catalog: LabelCatalog
                   ) -> ModelParams:
    """The model of ``--model``, checked to have been trained under this
    run's split and to take the embeddings and labels of ``--index``."""
    params = load_model(args.model)
    for name in ("val_size", "test_size"):
        trained, wanted = getattr(params, name), cfg.get(f"split.{name}")
        if trained != wanted:
            raise ConfigError(
                f"model {args.model} was trained with split.{name} = "
                f"{trained}, but this run has split.{name} = {wanted}")
    if (params.embed_dim, params.n_labels) != (store.dim, len(catalog)):
        raise DimensionMismatchError(
            f"model {args.model} takes {params.embed_dim}-dim embeddings "
            f"and {params.n_labels} labels, but index {args.index} holds "
            f"{store.dim}-dim embeddings and {len(catalog)} labels")
    return params


# ----------------------------------------------------------- subcommands

def cmd_ingest(args: argparse.Namespace, cfg: RunConfig) -> int:
    catalog = _catalog_from(args)
    corpus = load_corpus(args.input, catalog)
    corpus.save_jsonl(args.output)
    print(f"ingested {len(corpus)} cases -> {args.output}")
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
    store.save(args.output, _provenance(cfg, "embed"))
    print(f"embedded {len(store)} cases -> {args.output}")
    return 0


def cmd_index(args: argparse.Namespace, cfg: RunConfig) -> int:
    catalog = _catalog_from(args)
    corpus = load_corpus(args.corpus, catalog)
    store = EmbeddingStore.load(args.embeddings)
    store.check_alignment(corpus)
    save_index(args.output, args.embeddings, corpus.label_matrix(catalog),
               catalog, _provenance(cfg, "index"))
    print(f"indexed {len(store)} cases -> {args.output}")
    return 0


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    store, catalog, splits = _indexed_splits(args, cfg)
    (params,), _ = train_with_history(splits, store, catalog,
                                      (cfg.retrieval_config(),),
                                      (cfg.train_config(),))
    params.meta = {**_provenance(cfg, "train"),
                   "config_text": cfg.to_text()}
    save_model(params, args.output)
    print(f"trained model on {splits.n_train} cases -> {args.output}")
    return 0


def cmd_predict(args: argparse.Namespace, cfg: RunConfig) -> int:
    store, catalog, splits = _indexed_splits(args, cfg)
    corpus = splits.corpus
    params = _fitting_model(args, cfg, store, catalog)
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
    sources = (bool(args.predictions), bool(args.index), bool(args.model))
    if sources not in ((True, False, False), (False, True, True)):
        raise ConfigError("evaluate needs either --predictions or both "
                          "--index and --model")
    if args.predictions:
        report = _report_from_predictions(args, cfg)
    else:
        store, catalog, splits = _indexed_splits(args, cfg)
        params = _fitting_model(args, cfg, store, catalog)
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
    result = run_ablation(spec, splits, catalog, args.seeds,
                          cfg.encoder_config(), cfg.retrieval_config(),
                          cfg.train_config())
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = json.loads(result.to_json())
    payload["provenance"] = _provenance(cfg, "ablate")
    for name, text in zip(_ABLATE_OUTPUTS, (canonical_json(payload) + "\n",
                                            result.to_text(),
                                            result.to_csv())):
        save_text(out_dir / name, text)
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

def _seed_list(text: str) -> list[int]:
    """``--seeds``: comma-separated distinct non-negative integers."""
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items or not all(s.isascii() and s.isdigit() for s in items):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated non-negative integers, got {text!r}")
    seeds = [int(s) for s in items]
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(
            f"a seed is repeated in {text!r}; each run needs its own seed")
    return seeds


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
                       help="label an embedding store for "
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
    p.add_argument("--seeds", default="0,1,2,3,4", type=_seed_list,
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
        # Every non-finite result is checked and reported, so numpy's
        # floating-point warnings would only precede the JSON error line.
        with np.errstate(all="ignore"):
            _check_output(args)
            return args.func(args, _config_from(args))
    except CaselineError as exc:
        error, message = type(exc).__name__, str(exc)
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable input
        error, message = "IoFailureError", str(exc)
    except MemoryError as exc:  # a size this machine cannot hold
        error, message = "MemoryError", str(exc)
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
