"""Tests for the CLOB path/value index (paper §7.4)."""

import pytest

from repro.rdb import Database
from repro.rdb.pathindex import IndexedClobStorage, PathValueIndex
from repro.xmlmodel import parse_document, serialize_children

DOCS = [
    '<order status="open"><id>1</id><total>50</total></order>',
    '<order status="open"><id>2</id><total>175</total></order>',
    '<order status="closed"><id>3</id><total>300</total></order>',
]


def make_storage():
    storage = IndexedClobStorage(Database(), "pv")
    for doc in DOCS:
        storage.load(parse_document(doc))
    return storage


class TestPathValueIndex:
    def test_paths_recorded(self):
        index = PathValueIndex()
        index.add_document(1, parse_document(DOCS[0]))
        assert index.paths() == [
            "/order/@status", "/order/id", "/order/total",
        ]

    def test_string_equality(self):
        storage = make_storage()
        assert storage.find_documents("/order/@status", "=", "open") == [1, 2]
        assert storage.find_documents("/order/@status", "=", "closed") == [3]

    def test_numeric_range(self):
        storage = make_storage()
        assert storage.find_documents("/order/total", ">", 100) == [2, 3]
        assert storage.find_documents("/order/total", "<=", 175) == [1, 2]

    def test_numeric_equality(self):
        storage = make_storage()
        assert storage.find_documents("/order/id", "=", 2) == [2]

    def test_unknown_path_empty(self):
        storage = make_storage()
        assert storage.find_documents("/order/nope", "=", "x") == []

    def test_text_value_on_numeric_leaf(self):
        storage = make_storage()
        # leaves are indexed as text too
        assert storage.find_documents("/order/total", "=", "300") == [3]

    def test_probe_counts(self):
        from repro.rdb.plan import ExecutionStats

        storage = make_storage()
        stats = ExecutionStats()
        storage.find_documents("/order/total", ">", 100, stats=stats)
        assert stats.index_probes == 1

    def test_deduplicates_doc_ids(self):
        storage = IndexedClobStorage(Database(), "dup")
        storage.load(parse_document("<l><v>7</v><v>7</v></l>"))
        assert storage.find_documents("/l/v", "=", 7) == [1]

    def test_mixed_content_direct_text_indexed(self):
        # Regression: an element with both element children and its own
        # character data used to lose the character data entirely —
        # string_value() is only taken on pure leaves.  The direct text
        # runs (concatenated, child element text excluded) must be a
        # probe-able value for the mixed element's own path.
        storage = IndexedClobStorage(Database(), "mx")
        storage.load(parse_document(
            "<p>alpha <em>strong</em> omega</p>"))
        assert storage.find_documents("/p", "=", "alpha  omega") == [1]
        assert storage.find_documents("/p/em", "=", "strong") == [1]
        # The child's text must not leak into the parent's indexed value.
        assert storage.find_documents("/p", "=", "alpha strong omega") == []

    def test_mixed_content_whitespace_only_not_indexed(self):
        index = PathValueIndex()
        index.add_document(1, parse_document(
            "<doc>\n  <id>9</id>\n</doc>"))
        # Pretty-printing indentation around <id> is not a value.
        assert index.paths() == ["/doc/id"]


class TestOnlyFiniteNumbersAreIndexedNumerically:
    """``float()`` also reads "nan", "inf", "Infinity" — and a surname like
    Nan; a NaN key breaks the order bisect relies on."""

    VALUES = ["5", "nan", "1", "3", "NaN", "inf", "-Infinity", "Nan", "1e999"]

    def loaded(self, door):
        from repro.rdb.treestorage import TreeStorage

        if door == "add_document":
            index = PathValueIndex()
        else:
            storage = TreeStorage(Database(), "t")
            index = storage.index
        for doc_id, value in enumerate(self.VALUES, 1):
            text = "<r><v>%s</v></r>" % value
            if door == "add_document":
                index.add_document(doc_id, parse_document(text))
            elif door == "load":
                storage.load(parse_document(text))
            else:
                storage.load_stream(text)
        return index

    @pytest.mark.parametrize("door", ["add_document", "load", "load_stream"])
    def test_numeric_probes_answer_from_a_sorted_index(self, door):
        index = self.loaded(door)
        assert index._number["/r/v"]._keys == [1.0, 3.0, 5.0]
        assert index._number["/r/v"]._row_ids == [3, 4, 1]
        assert index.lookup("/r/v", "<", 4) == [3, 4]
        assert index.lookup("/r/v", "=", 1) == [3]
        assert index.lookup("/r/v", ">=", 0) == [1, 3, 4]

    @pytest.mark.parametrize("door", ["add_document", "load", "load_stream"])
    def test_the_text_index_still_holds_every_string(self, door):
        index = self.loaded(door)
        assert index.entries == len(self.VALUES)
        assert index._text["/r/v"]._keys == sorted(self.VALUES)
        assert index.lookup("/r/v", "=", "nan") == [2]
        assert index.lookup("/r/v", "=", "Nan") == [8]
        assert index.lookup("/r/v", "=", "inf") == [6]


class TestSelectiveTransform:
    SHEET = (
        '<xsl:stylesheet version="1.0"'
        ' xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
        '<xsl:template match="order"><big id="{id}"/></xsl:template>'
        "</xsl:stylesheet>"
    )

    def test_transform_matching_only(self):
        storage = make_storage()
        results, stats = storage.transform_matching(
            self.SHEET, "/order/total", ">", 100
        )
        assert sorted(results) == [2, 3]
        assert serialize_children(results[2]) == '<big id="2"/>'

    def test_non_matching_documents_never_parsed(self):
        storage = make_storage()
        results, stats = storage.transform_matching(
            self.SHEET, "/order/id", "=", 3
        )
        assert list(results) == [3]
        # one index probe + only the matching document's CLOB row read
        assert stats.index_probes == 1
        assert stats.rows_scanned <= len(DOCS)

    def test_matches_unfiltered_transform(self):
        storage = make_storage()
        results, _ = storage.transform_matching(
            self.SHEET, "/order/@status", "=", "open"
        )
        from repro.xslt import transform

        for doc_id, result in results.items():
            reference = transform(
                self.SHEET, storage.materialize(doc_id)
            )
            assert serialize_children(result) == serialize_children(reference)
