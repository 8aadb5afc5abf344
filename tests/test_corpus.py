"""Corpus parsing, chronological ordering, label encoding, splits, and
round-trip persistence."""
from __future__ import annotations

import datetime

import numpy as np
import pytest

from caseline.corpus import (
    CaseRecord,
    Corpus,
    LabelCatalog,
    SplitCorpus,
    chronological_split,
    decode_labels,
    encode_labels,
    load_corpus,
    parse_case_record,
    serialize_case_record,
)
from caseline.errors import (
    BadDateError,
    ConfigError,
    DuplicateIdError,
    InsufficientDataError,
    MalformedRecordError,
    UnknownLabelError,
)
from case_factory import make_case


class TestRecordRoundTrip:
    def test_serialize_parse_identity(self, catalog4):
        rec = make_case("r1", 5, {"A", "C"}, "some text here")
        assert parse_case_record(serialize_case_record(rec), catalog4) == rec

    def test_parse_rejects_bad_json(self, catalog4):
        with pytest.raises(MalformedRecordError):
            parse_case_record("{not json", catalog4)

    def test_parse_rejects_missing_field(self, catalog4):
        with pytest.raises(MalformedRecordError):
            parse_case_record('{"case_id": "x", "title": "t"}', catalog4)

    def test_parse_rejects_bad_date(self, catalog4):
        line = ('{"case_id": "x", "title": "t", "date": "03/02/2001", '
                '"articles": ["A"], "text": "w"}')
        with pytest.raises(BadDateError):
            parse_case_record(line, catalog4)

    def test_parse_rejects_unknown_label(self, catalog4):
        line = ('{"case_id": "x", "title": "t", "date": "2001-02-03", '
                '"articles": ["Z"], "text": "w"}')
        with pytest.raises(UnknownLabelError):
            parse_case_record(line, catalog4)


class TestLabelCodec:
    def test_encode_positions(self, catalog4):
        np.testing.assert_array_equal(encode_labels(["B", "D"], catalog4),
                                      [0, 1, 0, 1])

    def test_encode_empty(self, catalog4):
        np.testing.assert_array_equal(encode_labels([], catalog4),
                                      [0, 0, 0, 0])

    def test_round_trip(self, catalog4):
        for labels in (set(), {"A"}, {"B", "C"}, {"A", "B", "C", "D"}):
            vec = encode_labels(sorted(labels), catalog4)
            assert decode_labels(vec, catalog4) == frozenset(labels)

    def test_unknown_label_raises(self, catalog4):
        with pytest.raises(UnknownLabelError):
            encode_labels(["nope"], catalog4)

    def test_default_catalog_is_article_set(self):
        cat = LabelCatalog.default()
        assert len(cat) == 16
        assert cat.index("2") == 0

    def test_catalog_file_round_trip(self, tmp_path):
        cat = LabelCatalog(("x", "y", "z"))
        path = tmp_path / "labels.txt"
        cat.to_file(path)
        assert LabelCatalog.from_file(path) == cat


class TestCorpus:
    def test_sorted_chronologically(self):
        cases = [
            make_case("late", 9, {"A"}, "w"),
            make_case("early", 1, {"A"}, "w"),
            make_case("mid", 4, {"A"}, "w"),
        ]
        corpus = Corpus(cases)
        assert [c.case_id for c in corpus.cases] == ["early", "mid", "late"]

    def test_date_tie_broken_by_case_id(self):
        cases = [make_case("bbb", 3, {"A"}, "w"),
                 make_case("aaa", 3, {"A"}, "w")]
        assert [c.case_id for c in Corpus(cases).cases] == ["aaa", "bbb"]

    def test_rank_of(self, tiny_corpus):
        for rank, case in enumerate(tiny_corpus.cases):
            assert tiny_corpus.rank_of(case.case_id) == rank

    def test_duplicate_id_rejected(self):
        cases = [make_case("dup", 0, {"A"}, "w"),
                 make_case("dup", 1, {"B"}, "w")]
        with pytest.raises(DuplicateIdError):
            Corpus(cases)

    def test_label_matrix(self, tiny_corpus, catalog4):
        mat = tiny_corpus.label_matrix(catalog4)
        assert mat.shape == (6, 4)
        np.testing.assert_array_equal(mat[1], [1, 1, 0, 0])
        np.testing.assert_array_equal(mat[5], [0, 0, 0, 1])

    def test_jsonl_round_trip(self, tiny_corpus, catalog4, tmp_path):
        path = tmp_path / "corpus.jsonl"
        tiny_corpus.save_jsonl(path)
        loaded = load_corpus(path, catalog4)
        assert loaded.cases == tiny_corpus.cases


class TestSplit:
    def test_partition_boundaries(self, tiny_corpus):
        s = chronological_split(tiny_corpus, 3, 2, 1)
        assert [c.case_id for c in s.train] == ["c0", "c1", "c2"]
        assert [c.case_id for c in s.val] == ["c3", "c4"]
        assert [c.case_id for c in s.test] == ["c5"]

    def test_ranges(self, tiny_corpus):
        s = chronological_split(tiny_corpus, 3, 2, 1)
        assert s.train_ranks == range(0, 3)
        assert s.n_train == 3 and s.n_val == 2 and s.n_test == 1

    def test_temporal_order_across_splits(self, tiny_corpus):
        s = chronological_split(tiny_corpus, 2, 2, 2)
        assert max(c.decision_date for c in s.train) <= \
            min(c.decision_date for c in s.val)
        assert max(c.decision_date for c in s.val) <= \
            min(c.decision_date for c in s.test)

    def test_oversized_split_rejected(self, tiny_corpus):
        with pytest.raises(InsufficientDataError):
            chronological_split(tiny_corpus, 5, 2, 2)

    def test_zero_split_rejected(self, tiny_corpus):
        with pytest.raises(InsufficientDataError):
            SplitCorpus(tiny_corpus, 6, 0, 0)

    def test_ranks_by_name(self, tiny_corpus):
        s = chronological_split(tiny_corpus, 3, 2, 1)
        assert s.ranks("train") == range(0, 3)
        assert s.ranks("validation") == range(3, 5)
        assert s.ranks("test") == range(5, 6)

    @pytest.mark.parametrize("name", ["val", "dev", "Test", ""])
    def test_ranks_rejects_unknown_name(self, tiny_corpus, name):
        with pytest.raises(ConfigError):
            chronological_split(tiny_corpus, 3, 2, 1).ranks(name)
