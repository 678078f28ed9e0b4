"""Tests for schema-less tree storage (Figure 1's third storage model)."""

import pytest

from repro.errors import DatabaseError
from repro.rdb import Database
from repro.rdb.treestorage import TreeStorage
from repro.xmlmodel import parse_document, serialize

from tests.rdb.tree_corpus import tree_xml


def make_storage():
    return TreeStorage(Database(), "t")


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


# Several documents in ONE storage: the second document's heap runs append
# after the first's.
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
        from repro.rdb import treestorage

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

    @pytest.mark.parametrize("batch_rows", [3, 7])
    @pytest.mark.parametrize("door", ["load", "load_stream"])
    def test_queries_answer_as_before(self, monkeypatch, door, batch_rows):
        from repro.rdb import treestorage

        expected = self.load(3, door)
        monkeypatch.setattr(treestorage, "_BATCH_ROWS", batch_rows)
        storage = self.load(3, door)
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


# -- descendant joins ----------------------------------------------------------

#: same-name ancestors nested in each other, a name under itself, and
#: descendants under no matching ancestor
NESTED = ("<r><a><a><b><d/><a><d/></a></b></a><d><a/></d></a>"
          "<x><d/></x><a><d><d/></d></a></r>")


def walked_pairs(storage, ancestor_name, descendant_name, doc_id=None):
    """The oracle: ``descendant_query``'s rows from the node rows alone,
    by walking each descendant's parent chain in Python — descendant
    rows in table order, their proper ancestors in table order."""
    rows = [row for _, row in storage.db.table(storage.table_name).scan()]
    parent_of = {row[0]: row[2] for row in rows}
    pairs = []
    for d in rows:
        if d[4] != "element" or d[5] != descendant_name \
                or doc_id not in (None, d[1]):
            continue
        chain, parent = set(), parent_of[d[0]]
        while parent:  # the walk starts above d: no self-pair
            chain.add(parent)
            parent = parent_of[parent]
        pairs.extend((d[1], a[0], d[0]) for a in rows
                     if a[4] == "element" and a[5] == ancestor_name
                     and a[0] in chain)
    return pairs


class TestDescendantWalk:
    @pytest.fixture(scope="class")
    def storage(self):
        storage = make_storage()
        for text in (tree_xml(1), NESTED, tree_xml(2, depth=3, fanout=2)):
            storage.load(parse_document(text))
        storage.db.analyze()
        return storage

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    @pytest.mark.parametrize("level", ["off", "cost"])
    @pytest.mark.parametrize("doc_id", [None, 1, 2, 3])
    @pytest.mark.parametrize("names", [
        ("node", "label"), ("node", "node"), ("tree", "label"),
        ("a", "d"), ("a", "a"), ("d", "d"), ("r", "a"), ("b", "a")])
    def test_rows_equal_the_parent_chain_oracle(self, storage, names,
                                                doc_id, level, batch_size):
        query = storage.db.optimize(
            storage.descendant_query(*names, doc_id=doc_id), level=level)
        rows, _ = query.execute(storage.db, batch_size=batch_size)
        assert rows == walked_pairs(storage, *names, doc_id=doc_id)

    def test_the_oracle_sees_nesting(self, storage):
        # <a> under <a> under <a>: the inner <d> pairs with all three
        # enclosing <a>s, and no node pairs with itself
        assert len(walked_pairs(storage, "a", "d", doc_id=2)) == 8
        assert len(walked_pairs(storage, "a", "a", doc_id=2)) == 4
        # a node at depth k has k - 1 <node> ancestors: 0 + 3 + 2 * 9 +
        # 3 * 27 in the first document, 2 * (0 + 2 + 2 * 4) in the third
        assert len(walked_pairs(storage, "node", "node")) == 122
