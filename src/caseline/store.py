"""Embedding store: one unit-normalized vector per corpus case, in rank order.

Binary file layout (little-endian):

    magic     8 bytes  b"CLEMBED\\0"
    version   u32      currently 1
    dtype     u32      0 = float32, 1 = float64
    n         u64      number of rows
    d         u64      vector length
    matrix    n*d floats, row-major
    id table  n entries of (u32 byte length, utf-8 case_id)

float64 is the default on write so a store round-trips bit-exactly;
float32 halves the file for interchange with external embedding
producers.  Vectors can also be imported from JSONL lines of
{"case_id": ..., "vector": [...]} and are re-normalized on import.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import IoFailureError, StoreMisalignedError

_MAGIC = b"CLEMBED\x00"
_VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {"float32": 0, "float64": 1}


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

    def save(self, path: str | Path, dtype: str = "float64") -> None:
        if dtype not in _DTYPE_CODES:
            raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
        code = _DTYPE_CODES[dtype]
        n, d = self.matrix.shape
        try:
            with open(path, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(struct.pack("<IIQQ", _VERSION, code, n, d))
                fh.write(np.ascontiguousarray(self.matrix,
                                              dtype=_DTYPES[code]).tobytes())
                for cid in self.case_ids:
                    raw = cid.encode("utf-8")
                    fh.write(struct.pack("<I", len(raw)))
                    fh.write(raw)
        except OSError as exc:
            raise IoFailureError(f"cannot write store {path}: {exc}") from exc

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
        if version != _VERSION:
            raise IoFailureError(f"unsupported store version {version}")
        if code not in _DTYPES:
            raise IoFailureError(f"unknown dtype code {code}")
        dt = _DTYPES[code]
        nbytes = n * d * dt.itemsize
        # every id entry takes at least its 4-byte length prefix
        if len(raw) - offset < nbytes + 4 * n:
            raise IoFailureError(
                f"{path}: truncated store: {len(raw)} bytes cannot hold "
                f"{n} x {d} vectors and their ids")
        matrix = np.frombuffer(raw, dtype=dt, count=n * d,
                               offset=offset).reshape(n, d)
        offset += nbytes
        case_ids = []
        for _ in range(n):
            if offset + 4 > len(raw):
                raise IoFailureError(f"{path}: truncated store id table")
            (ln,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            if offset + ln > len(raw):
                raise IoFailureError(f"{path}: truncated store id table")
            try:
                case_ids.append(raw[offset:offset + ln].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise IoFailureError(
                    f"{path}: corrupt case id: {exc}") from exc
            offset += ln
        return cls(case_ids, matrix.astype(np.float64))


def import_embeddings_jsonl(path: str | Path, corpus: Corpus) -> EmbeddingStore:
    """Build a store from externally computed vectors, aligned to corpus ranks.

    Every corpus case must appear exactly once; vectors are
    L2-normalized on import.
    """
    vectors: dict[str, np.ndarray] = {}
    dim = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    cid = obj["case_id"]
                    vec = np.asarray(obj["vector"], dtype=np.float64)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise IoFailureError(f"{path}:{lineno}: bad embedding "
                                         f"record: {exc}") from exc
                if vec.ndim != 1 or vec.size == 0:
                    raise StoreMisalignedError(
                        f"{path}:{lineno}: vector must be a non-empty flat list")
                if dim is None:
                    dim = vec.size
                elif vec.size != dim:
                    raise StoreMisalignedError(
                        f"{path}:{lineno}: vector length {vec.size} != {dim}")
                if cid in vectors:
                    raise StoreMisalignedError(
                        f"{path}:{lineno}: duplicate vector for {cid!r}")
                vectors[cid] = vec
    except OSError as exc:
        raise IoFailureError(f"cannot read embeddings {path}: {exc}") from exc

    missing = [c.case_id for c in corpus if c.case_id not in vectors]
    if missing:
        raise StoreMisalignedError(
            f"no vector for {len(missing)} corpus cases "
            f"(first: {missing[0]!r})")
    extra = set(vectors) - set(corpus.case_ids())
    if extra:
        raise StoreMisalignedError(
            f"vectors for {len(extra)} unknown case ids "
            f"(first: {sorted(extra)[0]!r})")

    matrix = np.stack([vectors[c.case_id] for c in corpus])
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise StoreMisalignedError("imported vector with zero norm")
    return EmbeddingStore(corpus.case_ids(), matrix / norms)
