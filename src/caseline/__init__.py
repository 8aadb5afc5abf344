"""Retrieval-augmented, temporally-aware multi-label case outcome
prediction.

The pipeline: hash-featurized case texts are contrastively encoded
into unit vectors; strictly-earlier cases are retrieved under a
temporal-decayed cosine score; the retrieved precedents' labels are
softmax-fused into an evidence embedding; a linear classifier over
[case embedding, evidence embedding] plus a chronological drift
correction head produces per-article probabilities.  An evaluation
harness provides micro-averaged metrics, ablations and a synthetic
drifting corpus.
"""

from .corpus import (
    CaseRecord,
    Corpus,
    LabelCatalog,
    SplitCorpus,
    chronological_split,
    encode_labels,
    load_corpus,
    parse_case_record,
    serialize_case_record,
)
from .encoder import (
    ContrastiveConfig,
    EncoderParams,
    embed_corpus,
    encode,
    info_nce_loss,
    load_encoder,
    save_encoder,
    train_encoder,
)
from .errors import CaselineError
from .features import SparseBatch, featurize, tokenize
from .metrics import (
    MetricsReport,
    compute_report,
    micro_confusion,
    micro_f1,
    micro_jaccard,
    micro_pr_auc,
    micro_roc_auc,
)
from .model import (
    ModelParams,
    Prediction,
    TrainConfig,
    drift_input,
    forward,
    fuse_evidence,
    infer,
    load_model,
    save_model,
    train_with_history,
)
from .retrieval import (
    Evidence,
    RetrievalConfig,
    decayed_similarity,
    retrieve_precedents,
)
from .store import EmbeddingStore
from .synthetic import DriftCorpusConfig, generate_drift_corpus

__version__ = "0.1.0"

__all__ = [
    "CaseRecord", "Corpus", "LabelCatalog", "SplitCorpus",
    "chronological_split", "encode_labels",
    "load_corpus", "parse_case_record", "serialize_case_record",
    "ContrastiveConfig", "EncoderParams", "embed_corpus", "encode",
    "info_nce_loss", "load_encoder", "save_encoder", "train_encoder",
    "CaselineError",
    "SparseBatch", "featurize", "tokenize",
    "MetricsReport", "compute_report", "micro_confusion", "micro_f1",
    "micro_jaccard", "micro_pr_auc", "micro_roc_auc",
    "ModelParams", "Prediction", "TrainConfig", "drift_input",
    "forward", "fuse_evidence", "infer", "load_model", "save_model",
    "train_with_history",
    "Evidence", "RetrievalConfig", "decayed_similarity",
    "retrieve_precedents",
    "EmbeddingStore",
    "DriftCorpusConfig", "generate_drift_corpus",
    "__version__",
]
