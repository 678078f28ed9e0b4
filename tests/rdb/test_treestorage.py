"""Tests for schema-less tree storage (Figure 1's third storage model)."""

import pytest

from repro.errors import DatabaseError
from repro.rdb import Database
from repro.rdb.treestorage import TreeStorage
from repro.xmlmodel import parse_document, serialize


def make_storage(path_index=True):
    return TreeStorage(Database(), "t", path_index=path_index)


DOCS = [
    '<memo pri="2">Call <b>Ann</b> today<!--urgent--><?mark x?></memo>',
    "<memo><to>Bob</to><body>Lunch?</body></memo>",
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", DOCS)
    def test_roundtrip(self, source):
        storage = make_storage()
        doc_id = storage.load(parse_document(source))
        assert serialize(storage.materialize(doc_id)) == source

    def test_mixed_content_supported(self):
        # the capability OR shredding lacks
        storage = make_storage()
        source = "<p>one <em>two</em> three</p>"
        doc_id = storage.load(parse_document(source))
        assert serialize(storage.materialize(doc_id)) == source

    def test_multiple_documents_isolated(self):
        storage = make_storage()
        ids = storage.load_many([parse_document(doc) for doc in DOCS])
        assert storage.document_ids() == ids
        assert serialize(storage.materialize(ids[1])) == DOCS[1]

    def test_missing_document(self):
        storage = make_storage()
        with pytest.raises(DatabaseError):
            storage.materialize(9)

    def test_deep_nesting(self):
        source = "<a><b><c><d><e>deep</e></d></c></b></a>"
        storage = make_storage()
        doc_id = storage.load(parse_document(source))
        assert serialize(storage.materialize(doc_id)) == source


class TestNodeTable:
    def test_rows_per_node(self):
        storage = make_storage()
        storage.load(parse_document("<a x='1'><b>t</b></a>"))
        # a, @x, b, text = 4 rows
        assert len(storage.db.table("t_nodes")) == 4

    def test_doc_id_indexed(self):
        storage = make_storage()
        assert storage.db.find_index("t_nodes", "doc_id") is not None

    def test_materialize_reads_only_one_document(self):
        from repro.rdb.plan import ExecutionStats

        storage = make_storage()
        ids = storage.load_many([parse_document(doc) for doc in DOCS])
        stats = ExecutionStats()
        storage.materialize(ids[0], stats=stats)
        total_rows = len(storage.db.table("t_nodes"))
        assert stats.rows_scanned < total_rows


class TestPathFiltering:
    def test_find_by_leaf_value(self):
        storage = make_storage()
        storage.load_many([parse_document(doc) for doc in DOCS])
        assert storage.find_documents("/memo/to", "=", "Bob") == [2]

    def test_find_by_attribute(self):
        storage = make_storage()
        storage.load_many([parse_document(doc) for doc in DOCS])
        assert storage.find_documents("/memo/@pri", "=", "2") == [1]

    def test_no_index_errors(self):
        storage = make_storage(path_index=False)
        storage.load(parse_document(DOCS[0]))
        with pytest.raises(DatabaseError):
            storage.find_documents("/memo/to", "=", "Bob")


# Several documents in ONE storage: the second document's path/value run
# interleaves with the first's keys (values sort between them), its
# structural and heap runs append after them.
SHELVES = [
    "<lib owner='ann'><shelf n='2'><book>Emma</book><book>Ulysses</book>"
    "<price>12.5</price></shelf><shelf n='9'><book>Dune</book>"
    "<price>nan</price></shelf></lib>",
    "<lib owner='bob'><shelf n='5'><book>Ivanhoe</book><book>Dune</book>"
    "<price>7</price><note>see <b>Emma</b> too</note></shelf></lib>",
    "<lib owner='al'><shelf n='1'><book>Zadig</book><book>Candide</book>"
    "<price>12.5</price></shelf><shelf n='3'><price>3</price></shelf></lib>",
]


def entries(index):
    return list(zip(index._keys, index._row_ids))


def inserted_one_by_one(pairs):
    from repro.rdb.btree import BTreeIndex

    index = BTreeIndex("reference", "", "")
    for key, row_id in pairs:
        index.insert(key, row_id)
    return entries(index)


class TestSeveralDocumentsInOneStorage:
    def load(self, count, door):
        storage = make_storage()
        for text in SHELVES[:count]:
            if door == "load":
                storage.load(parse_document(text))
            else:
                storage.load_stream(text, chunk_size=16)
        return storage

    @pytest.mark.parametrize("batch_rows", [3, 7, 1024])
    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("door", ["load", "load_stream"])
    def test_indexes_equal_per_entry_insertion(self, monkeypatch, door,
                                               count, batch_rows):
        import math
        from repro.rdb import treestorage
        from repro.rdb.pathindex import PathValueIndex

        monkeypatch.setattr(treestorage, "_BATCH_ROWS", batch_rows)
        storage = self.load(count, door)
        table = storage.db.table(storage.table_name)
        rows = list(table.scan())
        # heap indexes: one entry per row, in row order
        for column in ("doc_id", "node_id"):
            position = table.schema.position_of(column)
            assert entries(storage.db.find_index(
                storage.table_name, column)) == inserted_one_by_one(
                (row[position], row_id) for row_id, row in rows)
        # structural index: one (doc_id, start) entry per element, under
        # the path its parent chain spells
        paths, by_path = {}, {}
        for row_id, row in rows:
            if row[4] == "element":
                path = paths[row[0]] = "%s/%s" % (paths.get(row[2], ""),
                                                  row[5])
                by_path.setdefault(path, []).append(((row[1], row[7]),
                                                     row_id))
        assert {path: entries(index) for path, index
                in storage.structural._by_path.items()} == {
            path: inserted_one_by_one(pairs)
            for path, pairs in by_path.items()}
        # path/value index: one entry per leaf, document after document
        text, number = {}, {}
        for doc_id, source in enumerate(SHELVES[:count], 1):
            leaves = []
            PathValueIndex()._walk(
                parse_document(source).document_element, "", leaves)
            for path, value in leaves:
                text.setdefault(path, []).append((value, doc_id))
                try:
                    as_float = float(value)
                except ValueError:
                    continue
                if math.isfinite(as_float):
                    number.setdefault(path, []).append((as_float, doc_id))
        assert storage.index.entries == sum(map(len, text.values()))
        for built, expected in ((storage.index._text, text),
                                (storage.index._number, number)):
            assert {path: entries(index)
                    for path, index in built.items()} == {
                path: inserted_one_by_one(pairs)
                for path, pairs in expected.items()}

    @pytest.mark.parametrize("batch_rows", [3, 7])
    @pytest.mark.parametrize("door", ["load", "load_stream"])
    def test_queries_answer_as_before(self, monkeypatch, door, batch_rows):
        from repro.rdb import treestorage

        expected = self.load(3, door)
        monkeypatch.setattr(treestorage, "_BATCH_ROWS", batch_rows)
        storage = self.load(3, door)
        assert storage.find_documents("/lib/shelf/book", "=", "Dune") == [1, 2]
        assert storage.find_documents("/lib/shelf/price", "=", 12.5) == [1, 3]
        assert storage.find_documents("/lib/shelf/price", "<", 10) == [2, 3]
        assert storage.find_documents("/lib/shelf/price", "=", "nan") == [1]
        assert storage.find_documents("/lib/shelf/@n", ">=", 3) == [1, 2, 3]
        assert storage.find_documents("/lib/shelf/note", "=", "see  too") == [2]
        assert storage.find_documents("/lib/@owner", "<", "b") == [1, 3]
        for names in (("lib", "book"), ("shelf", "b"), ("shelf", "price")):
            query = storage.descendant_query(*names)
            walked, _ = storage.db.execute(query, level="off")
            joined, _ = storage.db.execute(query, level="cost")
            assert joined == walked
            assert joined == expected.db.execute(
                expected.descendant_query(*names), level="cost")[0]
        assert len(joined) == 5  # one (shelf, price) pair per price
        one_document, _ = storage.db.execute(
            storage.descendant_query("lib", "book", doc_id=2), level="cost")
        assert [row[0] for row in one_document] == [2, 2]
        assert [serialize(storage.materialize(doc_id))
                for doc_id in storage.document_ids()] == [
            serialize(parse_document(text)) for text in SHELVES]


class TestTransformOverTreeStorage:
    def test_functional_transform(self):
        """Tree storage feeds the functional path (no structure for the
        rewrite), exactly like CLOB."""
        from repro.xslt import transform
        from repro.xmlmodel import serialize_children

        sheet = (
            '<xsl:stylesheet version="1.0"'
            ' xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
            '<xsl:template match="memo"><out>'
            '<xsl:value-of select="to"/></out></xsl:template>'
            "</xsl:stylesheet>"
        )
        storage = make_storage()
        doc_id = storage.load(parse_document(DOCS[1]))
        result = transform(sheet, storage.materialize(doc_id))
        assert serialize_children(result) == "<out>Bob</out>"
