"""The embedding store's file format: a ``store`` checkpoint that
round-trips bit-exactly, writes deterministic bytes, and carries its
provenance in its meta record."""
from __future__ import annotations

import numpy as np

from caseline.artifacts import load_npz
from caseline.store import EmbeddingStore

PROVENANCE = {"config_hash": "0123456789abcdef", "stage": "embed",
              "stage_version": 1, "tool_version": "0.1.0"}


def _store() -> EmbeddingStore:
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((5, 7))
    matrix[1, 2] = -0.0
    matrix[3, 4] = np.finfo(np.float64).tiny / 4  # subnormal
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    return EmbeddingStore(["c0", "Müller v. État", "判例-7", "x" * 40, "🙂"],
                          matrix)


class TestStoreFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        store = _store()
        store.save(tmp_path / "emb", PROVENANCE)
        back = EmbeddingStore.load(tmp_path / "emb")
        assert back.matrix.tobytes() == store.matrix.tobytes()
        assert back.case_ids == store.case_ids
        assert all(type(c) is str for c in back.case_ids)
        assert "判例-7" in back
        assert back.rank_of("判例-7") == 2

    def test_two_saves_are_byte_identical(self, tmp_path):
        store = _store()
        store.save(tmp_path / "a", PROVENANCE)
        EmbeddingStore(list(store.case_ids), store.matrix.copy()).save(
            tmp_path / "b", PROVENANCE)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_provenance_is_the_meta_record(self, tmp_path):
        _store().save(tmp_path / "emb", PROVENANCE)
        _, meta = load_npz(tmp_path / "emb", "store", 1, {})
        assert meta == {**PROVENANCE, "kind": "store", "format_version": 1}
