"""Embedding store: one unit-normalized vector per corpus case, in rank order.

On disk a store is a ``store`` checkpoint of ``caseline.artifacts``
(format version 1): the float64 ``matrix`` of shape (N, D), the
``case_ids`` text array of shape (N,), and a meta record holding the
provenance of the stage that wrote it.  A store round-trips
bit-exactly, and two saves of one store give the same bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import load_npz, save_npz
from .corpus import Corpus
from .errors import StoreMisalignedError

_FORMAT_VERSION = 1
_SCHEMA = {"matrix": ("float", ("N", "D")), "case_ids": ("text", ("N",))}


class EmbeddingStore:
    """Matrix of case embeddings indexed by chronological rank."""

    def __init__(self, case_ids: Sequence[str], matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(case_ids):
            raise StoreMisalignedError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(case_ids)} case ids")
        self.case_ids = list(case_ids)
        self.matrix = matrix
        self._rank = {cid: i for i, cid in enumerate(self.case_ids)}
        if len(self._rank) != len(self.case_ids):
            raise StoreMisalignedError("duplicate case ids in store")

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, case_id: str) -> bool:
        return case_id in self._rank

    def rank_of(self, case_id: str) -> int:
        return self._rank[case_id]

    def check_alignment(self, corpus: Corpus) -> None:
        """Verify the store covers the corpus in the same rank order."""
        if len(self) != len(corpus):
            raise StoreMisalignedError(
                f"store has {len(self)} rows, corpus has {len(corpus)} cases")
        for rank, case in enumerate(corpus):
            if self.case_ids[rank] != case.case_id:
                raise StoreMisalignedError(
                    f"rank {rank}: store id {self.case_ids[rank]!r} != "
                    f"corpus id {case.case_id!r}")

    def save(self, path: str | Path, meta: dict) -> None:
        """Write the store, with ``meta`` as its provenance record."""
        save_npz(path, "store", _FORMAT_VERSION,
                 {"matrix": self.matrix,
                  "case_ids": np.array(self.case_ids, dtype=str)}, meta)

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingStore":
        arrays, _ = load_npz(path, "store", _FORMAT_VERSION, _SCHEMA)
        return cls(arrays["case_ids"].tolist(), arrays["matrix"])
