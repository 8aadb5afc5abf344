"""Embedding store: one unit-normalized vector per corpus case, in rank order.

Binary file layout (little-endian):

    magic     8 bytes  b"CLEMBED\\0"
    version   u32      currently 1
    dtype     u32      always 1 (float64)
    n         u64      number of rows
    d         u64      vector length
    matrix    n*d float64, row-major
    id table  n entries of (u32 byte length, utf-8 case_id)

A store round-trips bit-exactly.  It is written atomically, and the
loader rejects a file whose sizes disagree, whose ids are not UTF-8,
or whose matrix holds a non-finite value.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import atomic_write, require_finite
from .corpus import Corpus
from .errors import IoFailureError, StoreMisalignedError

_MAGIC = b"CLEMBED\x00"
_VERSION = 1
_DTYPE_CODE = 1  # float64, the only dtype
_DTYPE = np.dtype("<f8")


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

    def rank_of(self, case_id: str) -> int:
        return self._rank[case_id]

    def __contains__(self, case_id: str) -> bool:
        return case_id in self._rank

    def vector(self, case_id: str) -> np.ndarray:
        return self.matrix[self._rank[case_id]]

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

    def save(self, path: str | Path) -> None:
        n, d = self.matrix.shape
        with atomic_write(path) as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<IIQQ", _VERSION, _DTYPE_CODE, n, d))
            fh.write(np.ascontiguousarray(self.matrix,
                                          dtype=_DTYPE).tobytes())
            for cid in self.case_ids:
                raw = cid.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingStore":
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise IoFailureError(f"cannot read store {path}: {exc}") from exc
        if raw[:8] != _MAGIC:
            raise IoFailureError(f"{path} is not an embedding store")
        offset = 8 + struct.calcsize("<IIQQ")
        if len(raw) < offset:
            raise IoFailureError(f"{path}: truncated store header")
        version, code, n, d = struct.unpack_from("<IIQQ", raw, 8)
        if (version, code) != (_VERSION, _DTYPE_CODE):
            raise IoFailureError(f"{path}: unsupported store version "
                                 f"{version} or dtype code {code}")
        nbytes = n * d * _DTYPE.itemsize
        # every id entry takes at least its 4-byte length prefix
        if len(raw) - offset < nbytes + 4 * n:
            raise IoFailureError(
                f"{path}: truncated store: {len(raw)} bytes cannot hold "
                f"{n} x {d} vectors and their ids")
        matrix = np.frombuffer(raw, dtype=_DTYPE, count=n * d,
                               offset=offset).reshape(n, d)
        require_finite(f"store {path}: matrix", matrix)
        offset += nbytes
        case_ids = []
        try:
            for _ in range(n):
                (ln,) = struct.unpack_from("<I", raw, offset)
                offset += 4 + ln
                case_ids.append(raw[offset - ln:offset].decode("utf-8"))
        except (struct.error, UnicodeDecodeError) as exc:
            raise IoFailureError(f"{path}: corrupt store id table: {exc}") \
                from exc
        if offset > len(raw):
            raise IoFailureError(f"{path}: truncated store id table")
        return cls(case_ids, matrix.astype(np.float64))
