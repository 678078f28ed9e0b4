"""Streaming-vs-DOM ingest equivalence for both shredders.

``load_stream`` must be indistinguishable from ``load`` of the parsed
document — identical rows (including containment labels), identical row
ids, identical index contents and identical fingerprints — while its
memory high-water mark stays bounded by the parser buffer plus the open
scopes, not the document size.
"""

from repro.rdb import Database, INT
from repro.rdb.plan import ExecutionStats
from repro.rdb.storage import ObjectRelationalStorage
from repro.rdb.treestorage import TreeStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document, serialize

from tests.rdb.tree_corpus import iter_tree_xml, tree_xml

GNARLY = (
    "<!-- prolog --><tree official=\"yes\"><node>plain"
    "<![CDATA[ <cdata> ]]>&amp; tail<sub a=\"1\" b=\"two\"/></node>"
    "<node><?target data?>mixed <b>bold</b> tail</node></tree>"
)

DEPT_DTD = """
<!ELEMENT dept (dname, loc?, employees)>
<!ELEMENT dname (#PCDATA)>
<!ELEMENT loc (#PCDATA)>
<!ELEMENT employees (emp*)>
<!ELEMENT emp (empno, ename, sal)>
<!ELEMENT empno (#PCDATA)>
<!ELEMENT ename (#PCDATA)>
<!ELEMENT sal (#PCDATA)>
<!ATTLIST emp kind CDATA #IMPLIED>
"""
DEPT_DOC = (
    "<dept><dname>ACCOUNTING</dname><loc>NEW YORK</loc><employees>"
    "<emp kind='full'><empno>7782</empno><ename>CLARK</ename>"
    "<sal>2450</sal></emp>"
    "<emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>"
    "</employees></dept>"
)


def rows_of(db, table_name):
    return [row for _, row in db.table(table_name).scan()]


class TestTreeStorageStreaming:
    def build(self, texts, stream, chunk_size=7):
        db = Database()
        storage = TreeStorage(db, "t")
        stats = ExecutionStats()
        for text in texts:
            if stream:
                storage.load_stream(text, stats=stats,
                                    chunk_size=chunk_size)
            else:
                storage.load(parse_document(text))
        return db, storage, stats

    def test_rows_and_labels_identical(self):
        dom_db, dom_storage, _ = self.build([GNARLY], stream=False)
        str_db, str_storage, _ = self.build([GNARLY], stream=True)
        assert rows_of(dom_db, "t_nodes") == rows_of(str_db, "t_nodes")

    def test_fingerprints_identical(self):
        _, dom_storage, _ = self.build([GNARLY, "<x><y/></x>"],
                                       stream=False)
        _, str_storage, _ = self.build([GNARLY, "<x><y/></x>"],
                                       stream=True)
        assert dom_storage.fingerprint() == str_storage.fingerprint()

    def test_path_value_index_identical(self):
        _, dom_storage, _ = self.build([GNARLY], stream=False)
        _, str_storage, _ = self.build([GNARLY], stream=True)
        assert dom_storage.index.paths() == str_storage.index.paths()
        assert dom_storage.index.entries == str_storage.index.entries
        for path in dom_storage.index.paths():
            for value in ("1", "two", "yes", "bold"):
                assert dom_storage.index.lookup(path, "=", value) == \
                    str_storage.index.lookup(path, "=", value)

    def test_structural_queries_identical(self):
        corpus = tree_xml(2)
        dom_db, dom_storage, _ = self.build([corpus], stream=False)
        str_db, str_storage, _ = self.build([corpus], stream=True,
                                            chunk_size=4096)
        query = dom_storage.descendant_query("node", "label")
        dom_rows, _ = dom_db.execute(query, level="cost")
        str_rows, _ = str_db.execute(
            str_storage.descendant_query("node", "label"), level="cost")
        assert dom_rows == str_rows

    def test_materialize_roundtrip_from_stream(self):
        _, dom_storage, _ = self.build([GNARLY], stream=False)
        _, str_storage, _ = self.build([GNARLY], stream=True)
        assert serialize(str_storage.materialize(1)) == \
            serialize(dom_storage.materialize(1))

    def test_hundredfold_corpus_is_bounded(self):
        """The ISSUE acceptance check: stream a 100x corpus that is never
        materialized; the ingest buffer stays a tiny fraction of the
        document, and the result matches DOM ingest of the same bytes."""
        total = sum(len(chunk) for chunk in iter_tree_xml(100))
        db = Database()
        storage = TreeStorage(db, "t")
        stats = ExecutionStats()
        storage.load_stream(iter_tree_xml(100), stats=stats,
                            chunk_size=4096)
        assert stats.peak_ingest_buffered_bytes > 0
        # Same bound the benchmark gate uses: a 64KB floor (parser
        # compaction threshold dominates small corpora) or 2% of the
        # document, whichever is larger.
        assert stats.peak_ingest_buffered_bytes <= max(65536,
                                                       int(total * 0.02))
        assert stats.peak_ingest_buffered_bytes < total
        # Fingerprint equality against a DOM load of identical bytes.
        dom_db = Database()
        dom_storage = TreeStorage(dom_db, "t")
        dom_storage.load(parse_document(tree_xml(100)))
        assert storage.fingerprint() == dom_storage.fingerprint()
        assert len(db.table("t_nodes")) == len(dom_db.table("t_nodes"))


class TestObjectRelationalStreaming:
    def build(self, stream, docs=(DEPT_DOC,)):
        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(DEPT_DTD), "xd",
            column_types={"sal": INT, "empno": INT})
        stats = ExecutionStats()
        for text in docs:
            if stream:
                storage.load_stream(text, stats=stats, chunk_size=5)
            else:
                storage.load(parse_document(text, strip_whitespace=True))
        return db, storage, stats

    def test_rows_identical_across_tables(self):
        dom_db, dom_storage, _ = self.build(stream=False)
        str_db, str_storage, _ = self.build(stream=True)
        for binding in dom_storage.tables:
            assert rows_of(dom_db, binding.table_name) == \
                rows_of(str_db, binding.table_name), binding.table_name

    def test_label_columns_populated(self):
        _, _, _ = self.build(stream=False)
        db, storage, _ = self.build(stream=True)
        dept = rows_of(db, "xd_dept")[0]
        schema = db.table("xd_dept").schema
        start = dept[schema.position_of("$start")]
        end = dept[schema.position_of("$end")]
        level = dept[schema.position_of("$level")]
        assert start == 2 and level == 1 and end > start
        for emp in rows_of(db, "xd_emp"):
            emp_schema = db.table("xd_emp").schema
            emp_start = emp[emp_schema.position_of("$start")]
            emp_end = emp[emp_schema.position_of("$end")]
            assert start < emp_start <= end  # contained in the dept row
            assert emp_start < emp_end

    def test_fingerprints_identical(self):
        _, dom_storage, _ = self.build(stream=False)
        _, str_storage, _ = self.build(stream=True)
        assert dom_storage.fingerprint() == str_storage.fingerprint()

    def test_materialize_roundtrip_from_stream(self):
        _, dom_storage, _ = self.build(stream=False)
        _, str_storage, _ = self.build(stream=True)
        assert serialize(str_storage.materialize(1)) == \
            serialize(dom_storage.materialize(1))

    def test_view_query_results_identical(self):
        dom_db, dom_storage, _ = self.build(stream=False)
        str_db, str_storage, _ = self.build(stream=True)
        dom_rows, _ = dom_db.execute(dom_storage.make_view_query())
        str_rows, _ = str_db.execute(str_storage.make_view_query())
        assert [serialize(row[0]) for row in dom_rows] == \
            [serialize(row[0]) for row in str_rows]

    def test_unknown_element_rejected(self):
        import pytest
        from repro.errors import DatabaseError
        _, storage, _ = self.build(stream=True, docs=())
        with pytest.raises(DatabaseError):
            storage.load_stream("<dept><bogus/></dept>")

    def test_scoped_memory_is_bounded(self):
        """Many repeating rows: the buffer holds one scope, not the
        document."""
        body = "".join(
            "<emp><empno>%d</empno><ename>E%d</ename><sal>%d</sal></emp>"
            % (index, index, 1000 + index)
            for index in range(500))
        text = ("<dept><dname>BIG</dname><employees>%s</employees></dept>"
                % body)
        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(DEPT_DTD), "xd",
            column_types={"sal": INT, "empno": INT})
        stats = ExecutionStats()
        storage.load_stream(text, stats=stats, chunk_size=256)
        assert len(db.table("xd_emp")) == 500
        assert stats.peak_ingest_buffered_bytes < len(text) * 0.4
