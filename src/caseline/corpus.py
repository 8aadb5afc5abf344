"""Case records, label catalogs, chronological ordering and splitting.

The input corpus is JSONL: one object per line with keys case_id,
title, date (ISO-8601), articles (list of label names), text.  Cases
are sorted ascending by (decision date, case_id); the 0-based index
after sorting is the case's chronological rank, which is the time
coordinate used by the temporal decay and the drift head throughout
the pipeline.
"""

from __future__ import annotations

import datetime
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .artifacts import atomic_write, save_text
from .errors import (
    BadDateError,
    ConfigError,
    DuplicateIdError,
    InsufficientDataError,
    IoFailureError,
    MalformedRecordError,
    UnknownLabelError,
)

log = logging.getLogger(__name__)

# The 16 convention articles most frequently at issue in European Court
# of Human Rights case law, in the catalog's canonical order.  Label
# names are the article numbers as they appear in the data; P1-1 is
# Protocol 1 Article 1.
DEFAULT_ARTICLES: tuple[tuple[str, str], ...] = (
    ("2", "right to life"),
    ("3", "prohibition of torture"),
    ("5", "right to liberty and security"),
    ("6", "right to a fair trial"),
    ("7", "no punishment without law"),
    ("8", "right to private and family life"),
    ("9", "freedom of religion"),
    ("10", "freedom of expression"),
    ("11", "freedom of assembly"),
    ("13", "right to an effective remedy"),
    ("14", "prohibition of discrimination"),
    ("15", "derogation in time of emergency"),
    ("34", "individual applications"),
    ("38", "examination of the case"),
    ("P1-1", "protection of property"),
    ("59", "signature and ratification"),
)


class LabelCatalog:
    """Ordered list of distinct article label names.

    The position of a name is its label index; the ordering is stable
    for the lifetime of the catalog, so label vectors produced against
    it are comparable.
    """

    def __init__(self, names: Sequence[str]):
        names = tuple(str(n) for n in names)
        if not names:
            raise ConfigError("label catalog must not be empty")
        if len(set(names)) != len(names):
            raise ConfigError("label catalog contains duplicate names")
        for name in names:
            if "\x00" in name:
                # text arrays in checkpoints drop trailing NULs
                raise ConfigError(f"label name {name!r} contains U+0000")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabelCatalog) and self.names == other.names

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownLabelError(f"label {name!r} not in catalog") from None

    @classmethod
    def default(cls) -> "LabelCatalog":
        return cls([name for name, _ in DEFAULT_ARTICLES])

    @classmethod
    def from_file(cls, path: str | Path) -> "LabelCatalog":
        """Load a catalog: plain text, one label name per line, order significant."""
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise IoFailureError(f"cannot read label catalog {path}: {exc}") from exc
        names = [ln.strip() for ln in lines if ln.strip()]
        return cls(names)

    def to_file(self, path: str | Path) -> None:
        save_text(path, "".join(n + "\n" for n in self.names))


@dataclass(frozen=True)
class CaseRecord:
    """One legal case: identifier, title, decision date, violated-article
    labels, and the fact text."""

    case_id: str
    title: str
    decision_date: datetime.date
    articles: frozenset[str]
    text: str


def encode_labels(articles: Sequence[str] | frozenset[str],
                  catalog: LabelCatalog) -> np.ndarray:
    """Multi-hot vector over the catalog: 1 exactly at the given names."""
    vec = np.zeros(len(catalog), dtype=np.uint8)
    for name in articles:
        vec[catalog.index(name)] = 1
    return vec


def parse_case_record(line: str, catalog: LabelCatalog) -> CaseRecord:
    """Parse one JSONL record; reject unknown labels and bad dates."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecordError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedRecordError("record is not a JSON object")
    missing = [k for k in ("case_id", "title", "date", "articles", "text")
               if k not in obj]
    if missing:
        raise MalformedRecordError(f"missing keys: {', '.join(missing)}")

    case_id = obj["case_id"]
    if not isinstance(case_id, str) or not case_id:
        raise MalformedRecordError("case_id must be a non-empty string")
    if "\x00" in case_id:
        # text arrays in checkpoints drop trailing NULs
        raise MalformedRecordError(f"case_id {case_id!r} contains U+0000")
    title = obj["title"]
    if not isinstance(title, str):
        raise MalformedRecordError("title must be a string")
    raw_date = obj["date"]
    if not isinstance(raw_date, str):
        raise BadDateError("date must be an ISO-8601 string")
    try:
        decision_date = datetime.date.fromisoformat(raw_date)
    except ValueError as exc:
        raise BadDateError(f"bad date {raw_date!r}: {exc}") from exc
    articles = obj["articles"]
    if not isinstance(articles, list) or not all(isinstance(a, str) for a in articles):
        raise MalformedRecordError("articles must be a list of strings")
    for name in articles:
        if name not in catalog:
            raise UnknownLabelError(f"label {name!r} not in catalog")
    text = obj["text"]
    if not isinstance(text, str) or not text.strip():
        raise MalformedRecordError("text must be a non-empty string")

    return CaseRecord(case_id=case_id, title=title, decision_date=decision_date,
                      articles=frozenset(articles), text=text)


def serialize_case_record(record: CaseRecord) -> str:
    """Canonical JSONL form of a record (articles sorted; stable key order)."""
    return json.dumps(
        {
            "case_id": record.case_id,
            "title": record.title,
            "date": record.decision_date.isoformat(),
            "articles": sorted(record.articles),
            "text": record.text,
        },
        ensure_ascii=False,
    )


class Corpus:
    """Cases sorted ascending by (decision_date, case_id).

    The index of a case after sorting is its chronological rank; ties
    in decision date are broken by case_id so ranks are deterministic.
    """

    def __init__(self, cases: Sequence[CaseRecord]):
        self.cases: tuple[CaseRecord, ...] = tuple(
            sorted(cases, key=lambda c: (c.decision_date, c.case_id)))
        seen: dict[str, int] = {}
        for rank, case in enumerate(self.cases):
            if case.case_id in seen:
                raise DuplicateIdError(
                    f"duplicate case_id {case.case_id!r} "
                    f"(ranks {seen[case.case_id]} and {rank})")
            seen[case.case_id] = rank
        self._rank = seen

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self) -> Iterator[CaseRecord]:
        return iter(self.cases)

    def __getitem__(self, rank: int) -> CaseRecord:
        return self.cases[rank]

    def rank_of(self, case_id: str) -> int:
        return self._rank[case_id]

    def case_ids(self) -> list[str]:
        return [c.case_id for c in self.cases]

    def label_matrix(self, catalog: LabelCatalog) -> np.ndarray:
        """(n, L) uint8 matrix of multi-hot label vectors in rank order."""
        mat = np.zeros((len(self.cases), len(catalog)), dtype=np.uint8)
        for i, case in enumerate(self.cases):
            for name in case.articles:
                mat[i, catalog.index(name)] = 1
        return mat

    def save_jsonl(self, path: str | Path) -> None:
        with atomic_write(path, "w") as fh:
            for case in self.cases:
                fh.write(serialize_case_record(case) + "\n")


def load_corpus(path: str | Path, catalog: LabelCatalog) -> Corpus:
    """Load a JSONL corpus file, sort chronologically and assign ranks.

    Parse errors are re-raised with the 1-based line number prepended.
    An empty file yields an empty corpus with a warning.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailureError(f"cannot read corpus {path}: {exc}") from exc

    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(parse_case_record(line, catalog))
        except (MalformedRecordError, UnknownLabelError) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    if not records:
        log.warning("corpus %s is empty", path)
    return Corpus(records)


class SplitCorpus:
    """Chronologically contiguous train / validation / test partition.

    Train is the first n_train ranks, validation the next n_val, test
    the next n_test.  Any trailing cases beyond the three blocks stay
    in the corpus (still retrievable as precedents by rank) but belong
    to no split.
    """

    def __init__(self, corpus: Corpus, n_train: int, n_val: int, n_test: int):
        if min(n_train, n_val, n_test) <= 0:
            raise InsufficientDataError("all split sizes must be > 0")
        total = n_train + n_val + n_test
        if total > len(corpus):
            raise InsufficientDataError(
                f"corpus has {len(corpus)} cases, split needs {total}")
        if total < len(corpus):
            log.warning("split covers %d of %d cases; %d trailing cases "
                        "belong to no split", total, len(corpus),
                        len(corpus) - total)
        self.corpus = corpus
        self.n_train = n_train
        self.n_val = n_val
        self.n_test = n_test

    @property
    def train(self) -> tuple[CaseRecord, ...]:
        return self.corpus.cases[:self.n_train]

    @property
    def train_ranks(self) -> range:
        return range(0, self.n_train)

    @property
    def val_ranks(self) -> range:
        return range(self.n_train, self.n_train + self.n_val)

    @property
    def test_ranks(self) -> range:
        start = self.n_train + self.n_val
        return range(start, start + self.n_test)

    def ranks(self, name: str) -> range:
        """Ranks of the split called "train", "validation" or "test"."""
        if name == "train":
            return self.train_ranks
        if name == "validation":
            return self.val_ranks
        if name == "test":
            return self.test_ranks
        raise ConfigError(
            f"unknown split {name!r}; expected train, validation or test")


def chronological_split(corpus: Corpus, n_train: int, n_val: int,
                        n_test: int) -> SplitCorpus:
    """Partition a corpus into contiguous chronological blocks."""
    return SplitCorpus(corpus, n_train, n_val, n_test)
