"""The embedding store: finite read-only rows and their largest norm,
and its file format, a ``store`` checkpoint that round-trips
bit-exactly, writes deterministic bytes, and carries its provenance in
its meta record."""
from __future__ import annotations

import numpy as np
import pytest

from caseline.artifacts import load_npz
from caseline.errors import NonFiniteError
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


class TestStoreRows:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        matrix = np.random.default_rng(0).standard_normal((20, 4))
        matrix[3, 1] = bad
        matrix[7, 0] = bad
        with pytest.raises(NonFiniteError, match="row 3 .'c3'."):
            EmbeddingStore([f"c{i}" for i in range(20)], matrix)

    def test_matrix_is_read_only(self):
        store = _store()
        with pytest.raises(ValueError, match="read-only"):
            store.matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            store.matrix[2] *= 2.0

    def test_max_norm_is_the_largest_row_norm(self):
        matrix = np.array([[3.0, 4.0], [0.0, 0.0], [-6.0, 8.0], [1.0, 1.0]])
        store = EmbeddingStore(list("abcd"), matrix)
        assert store.max_norm == 10.0
        assert EmbeddingStore([], np.empty((0, 3))).max_norm == 0.0
        assert _store().max_norm == pytest.approx(1.0, abs=1e-15)

    def test_finite_row_whose_norm_overflows_is_kept(self):
        store = EmbeddingStore(["a", "b"], [[1e200, 1e200], [1.0, 0.0]])
        assert store.max_norm == np.inf
