"""Streaming-vs-DOM ingest equivalence for both shredders.

``load_stream`` must be indistinguishable from ``load`` of the parsed
document — identical rows, identical row ids, identical index contents
and identical fingerprints — while its memory high-water mark stays
bounded by the parser buffer plus the open scopes, not the document size.

Each storage has one event-driven shredder behind both doors.  The
algorithms they replaced — the object-relational ``_find_value`` walk over
the element tree and the tree storage's recursive ``_insert_node`` — are
kept at the bottom of this file as references, compared row for row on the
XSLTMark corpora and on generated schemas and documents.
"""

import pytest
from hypothesis import given, settings

from repro.errors import DatabaseError, XmlSyntaxError
from repro.rdb import Database, INT
from repro.rdb.plan import ExecutionStats
from repro.rdb.sqlxml import content_markup
from repro.rdb.storage import (
    ColumnBinding,
    InlineBinding,
    ObjectRelationalStorage,
    PresenceBinding,
)
from repro.rdb.treestorage import TreeStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import NodeKind, parse_document, serialize
from repro.xmlmodel.stream_ingest import MAX_ELEMENT_DEPTH, stream_events
from repro.xsltmark import ALL_CASES

from tests.property.test_random_schemas import schema_and_document
from tests.rdb.tree_corpus import iter_tree_xml, tree_xml
from tests.xmlmodel.test_parser import MALFORMED, verdict
from tests.xmlmodel.test_scanner_differential import documents, expand_leaves

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

    def test_rows_identical(self):
        dom_db, dom_storage, _ = self.build([GNARLY], stream=False)
        str_db, str_storage, _ = self.build([GNARLY], stream=True)
        assert rows_of(dom_db, "t_nodes") == rows_of(str_db, "t_nodes")

    def test_fingerprints_identical(self):
        _, dom_storage, _ = self.build([GNARLY, "<x><y/></x>"],
                                       stream=False)
        _, str_storage, _ = self.build([GNARLY, "<x><y/></x>"],
                                       stream=True)
        assert dom_storage.fingerprint() == str_storage.fingerprint()

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
                storage.load(parse_document(text))
        return db, storage, stats

    def test_rows_identical_across_tables(self):
        dom_db, dom_storage, _ = self.build(stream=False)
        str_db, str_storage, _ = self.build(stream=True)
        for binding in dom_storage.tables:
            assert rows_of(dom_db, binding.table_name) == \
                rows_of(str_db, binding.table_name), binding.table_name

    def test_whitespace_only_leaf_is_kept_by_both_doors(self):
        # the stream door stripped whitespace-only text: it stored '' where
        # load stored ' ', and read back <v/>
        schema = schema_from_dtd(
            "<!ELEMENT t (r*)><!ELEMENT r (v, w)>"
            "<!ELEMENT v (#PCDATA)><!ELEMENT w (#PCDATA)>")
        text = "<t><r><v> </v><w>x</w></r></t>"
        indented = "<t>\n  <r>\n    <v>\t</v>\n    <w>x</w>\n  </r>\n</t>"
        for source, value in ((text, " "), (indented, "\t")):
            loaded = ObjectRelationalStorage(Database(), schema, "s")
            streamed = ObjectRelationalStorage(Database(), schema, "s")
            loaded.load(parse_document(source))
            streamed.load_stream(source)
            assert rows_of(streamed.db, "s_r") == rows_of(loaded.db, "s_r")
            assert rows_of(streamed.db, "s_r")[0][3] == value
            assert serialize(streamed.materialize(1)) == \
                "<t><r><v>%s</v><w>x</w></r></t>" % value

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
        assert [content_markup(row[0]) for row in dom_rows] == \
            [content_markup(row[0]) for row in str_rows]

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


# -- one scanner behind every door ------------------------------------------------------

ABC_DTD = """
<!ELEMENT a (b*, c*)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
<!ATTLIST a x CDATA #IMPLIED>
<!ATTLIST b x CDATA #IMPLIED>
"""


def tree_stream(source):
    return TreeStorage(Database(), "t").load_stream(source, chunk_size=5)


def or_stream(source):
    storage = ObjectRelationalStorage(Database(), schema_from_dtd(ABC_DTD),
                                      "s")
    return storage.load_stream(source, chunk_size=5)


class TestDroppedStoreIsFreedByRefcount:
    def test_no_cyclic_garbage_after_load_analyze_and_drop(self):
        # a database, its rows, indexes and statistics hold no reference
        # cycle: a dropped store goes at once, not at a generation-2 pass
        # (a DOM does: its nodes link to their parents, so it is built first)
        import gc

        schema = schema_from_dtd(DEPT_DTD)
        document = parse_document(DEPT_DOC)
        makers = [lambda: ObjectRelationalStorage(Database(), schema, "s"),
                  lambda: TreeStorage(Database(), "t")]
        gc.collect()
        gc.disable()
        try:
            for make in makers:
                storage = make()
                storage.load_stream(DEPT_DOC)
                storage.load(document)
                storage.db.analyze()
                storage.fingerprint()
                del storage
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestEveryDoorRejectsTheSame:
    @pytest.mark.parametrize("source, message, line, column", MALFORMED)
    def test_malformed_table_through_the_storages(self, source, message,
                                                  line, column):
        expected = "%s (line %d, column %d)" % (message, line, column)
        assert verdict(tree_stream, source) == expected
        if not message.startswith("elements nested deeper"):
            # (a non-recursive schema rejects <a> under <a> first)
            assert verdict(or_stream, source) == expected

    def test_duplicate_attribute_through_both_doors_of_both_storages(self):
        # on the parent commit the DOM door kept the last value, the
        # stream door stored two attribute rows, and labels diverged
        source = "<a x='1' x='2'><b/></a>"
        doors = [
            tree_stream, or_stream,
            lambda text: TreeStorage(Database(), "t").load(
                parse_document(text)),
            lambda text: ObjectRelationalStorage(
                Database(), schema_from_dtd(ABC_DTD), "s").load(
                parse_document(text)),
        ]
        assert {verdict(door, source) for door in doors} == {
            "duplicate attribute 'x' (line 1, column 10)"}

    def test_undeclared_prefix_no_longer_loads_through_the_stream(self):
        with pytest.raises(XmlSyntaxError, match="undeclared namespace"):
            tree_stream("<p:a/>")

    def test_depth_cap_holds_for_the_stores_and_their_materialiser(self):
        source = "<a>" * MAX_ELEMENT_DEPTH + "</a>" * MAX_ELEMENT_DEPTH
        storage = TreeStorage(Database(), "t")
        storage.load_stream(source)
        storage.load(parse_document(source))
        import sys
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            materialized = serialize(storage.materialize(2))
        finally:
            sys.setrecursionlimit(limit)
        assert parse_document(materialized).document_element is not None
        assert materialized.count("<a") == MAX_ELEMENT_DEPTH
        with pytest.raises(XmlSyntaxError, match="nested deeper"):
            storage.load_stream("<a>" + source + "</a>")


# -- generated matrix: load(parse_document(t)) vs load_stream(chunks(t)) ----------------


def chunks(text, size):
    return (text[index:index + size] for index in range(0, len(text), size))


def btree_entries(index):
    return (list(index._keys), list(index._row_ids))


def tree_state(storage):
    db = storage.db
    return {
        "rows": rows_of(db, storage.table_name),
        "fingerprint": storage.fingerprint(),
        "catalog": db.fingerprint(),
        "counters": (storage._doc_counter, storage._node_counter),
        "value indexes": [(index.name, btree_entries(index))
                          for index in db.indexes_on(storage.table_name)],
    }


def or_state(storage):
    db = storage.db
    return {
        "fingerprint": storage.fingerprint(),
        "tables": {
            binding.table_name: (
                rows_of(db, binding.table_name),
                [(index.name, btree_entries(index))
                 for index in db.indexes_on(binding.table_name)])
            for binding in storage.tables},
    }


class TestGeneratedMatrix:
    @given(text=documents())
    @settings(max_examples=60, deadline=None)
    def test_tree_storage(self, text):
        states = []
        for door in ("load", 1, 7, 256):
            storage = TreeStorage(Database(), "t")
            for _ in range(2):  # a second document continues the ids
                if door == "load":
                    storage.load(parse_document(text))
                else:
                    storage.load_stream(chunks(text, door))
            states.append(tree_state(storage))
        assert all(state == states[0] for state in states[1:])

    @given(pair=schema_and_document())
    @settings(max_examples=60, deadline=None)
    def test_object_relational_storage(self, pair):
        schema, document = pair
        text = serialize(document)
        states = []
        for door in ("load", 1, 7, 256):
            storage = ObjectRelationalStorage(Database(), schema, "s")
            for _ in range(2):
                if door == "load":
                    storage.load(parse_document(text))
                else:
                    storage.load_stream(chunks(text, door))
            states.append(or_state(storage))
        assert all(state == states[0] for state in states[1:])


# -- conformance: one content model behind both doors ------------------------------------

PLUS_DTD = ("<!ELEMENT a (b+, c)><!ELEMENT b (#PCDATA)>"
            "<!ELEMENT c (#PCDATA)>")
EITHER_DTD = ("<!ELEMENT a (b | c)><!ELEMENT b (#PCDATA)>"
              "<!ELEMENT c (#PCDATA)>")


def all_schema():
    from repro.schema import StructuralSchema
    from repro.schema.model import all_group, leaf

    return StructuralSchema(all_group("a", leaf("b"), leaf("c")))


# (schema, document, what is wrong with it); the parent commit's stream
# door stored the first three, dropping the second <c>
NONCONFORMING = [
    (lambda: schema_from_dtd(PLUS_DTD), "<a><b>1</b><c>x</c><c>y</c></a>",
     "/a: <c> occurs 2 times, expected 1"),
    (lambda: schema_from_dtd(PLUS_DTD), "<a><b>1</b></a>",
     "/a: <c> occurs 0 times, expected 1"),
    (lambda: schema_from_dtd(PLUS_DTD), "<a><c>x</c><b>1</b></a>",
     "/a: sequence order violated"),
    (lambda: schema_from_dtd(PLUS_DTD), "<a><c>x</c></a>",
     "/a: <b> occurs 0 times, expected at least 1"),
    (lambda: schema_from_dtd(EITHER_DTD), "<a><b>1</b><c>x</c></a>",
     "/a: choice group with 2 children"),
    (all_schema, "<a><b>1</b><c>x</c><b>2</b></a>",
     "/a: <b> occurs 2 times, expected 1"),
    (lambda: schema_from_dtd(DEPT_DTD),
     "<dept><dname>A</dname><employees><emp><empno>1</empno>"
     "<ename>N</ename><sal>2</sal><bogus/></emp></employees></dept>",
     "/dept/employees/emp: unexpected child <bogus>"),
    (lambda: schema_from_dtd(DEPT_DTD),
     "<dept><dname>A</dname><employees><emp><empno>1</empno>"
     "<sal>2</sal></emp></employees></dept>",
     "/dept/employees/emp: <ename> occurs 0 times, expected 1"),
    (lambda: schema_from_dtd(DEPT_DTD), "<other/>",
     "root is <other>, expected <dept>"),
]


# Valid against the DTD as written, but not against the flattened model
# (`schema/dtd.py` turns `(b | c)*` into a choice of b*, c* and
# `(b, (c | d)*)` into the sequence b, c*, d*): per-type child tables cannot
# keep siblings of different types interleaved — the parent commit's stream
# door stored these and gave them back as b b c / b c d.  Until the layout can
# hold them (ROADMAP item 7) every door says no rather than reorder.
INTERLEAVED = [
    (lambda: schema_from_dtd("<!ELEMENT a (b | c)*><!ELEMENT b (#PCDATA)>"
                             "<!ELEMENT c (#PCDATA)>"),
     "<a><b>1</b><c>2</c><b>3</b></a>", "/a: choice group with 3 children"),
    (lambda: schema_from_dtd("<!ELEMENT a (b, (c | d)*)><!ELEMENT b (#PCDATA)>"
                             "<!ELEMENT c (#PCDATA)><!ELEMENT d (#PCDATA)>"),
     "<a><b>1</b><d>2</d><c>3</c></a>", "/a: sequence order violated"),
]


def big_dept(rows, broken):
    """A dept of *rows* emps; emp number *broken* has no <sal>."""
    return "<dept><dname>BIG</dname><employees>%s</employees></dept>" % (
        "".join("<emp><empno>%d</empno><ename>E</ename>%s</emp>"
                % (number, "" if number == broken else "<sal>1</sal>")
                for number in range(1, rows + 1)))


class TestConformanceAtBothDoors:
    @pytest.mark.parametrize("make_schema, text, wrong",
                             NONCONFORMING + INTERLEAVED)
    def test_every_door_rejects_and_stores_nothing(self, make_schema, text,
                                                   wrong):
        schema = make_schema()
        assert schema.validate(parse_document(text))[0] == wrong
        empty = or_state(ObjectRelationalStorage(Database(), schema, "s"))
        message = "document does not conform to schema: " + wrong
        for door in ("load", "text", 1, 7, 256):
            storage = ObjectRelationalStorage(Database(), schema, "s")
            with pytest.raises(DatabaseError) as caught:
                if door == "load":
                    storage.load(parse_document(text))
                elif door == "text":
                    storage.load_stream(text)
                else:
                    storage.load_stream(chunks(text, door))
            assert str(caught.value) == message, door
            assert or_state(storage) == empty, door
            assert storage.document_ids() == [] and storage._doc_counter == 0

    def test_load_is_all_or_nothing_at_any_size(self, monkeypatch):
        from repro.rdb import storage as or_module
        monkeypatch.setattr(or_module, "_BATCH_ROWS", 3)
        storage = ObjectRelationalStorage(
            Database(), schema_from_dtd(DEPT_DTD), "s")
        storage.create_value_index("ename")
        storage.load(parse_document(DEPT_DOC))
        before = or_state(storage)
        with pytest.raises(DatabaseError, match="/dept/employees/emp: <sal>"):
            storage.load(parse_document(big_dept(4000, broken=3000)))
        assert or_state(storage) == before
        assert storage.load(parse_document(big_dept(7, broken=None))) == 2
        assert len(storage.db.table("s_emp")) == 2 + 7

    def test_a_late_error_leaves_a_streams_flushed_batches(self, monkeypatch):
        # the bounded-memory contract (DESIGN §17.3): rows that left for
        # the tables before the offending element closed stay there, as
        # they do for a syntax error or an unexpected child
        from repro.rdb import storage as or_module
        monkeypatch.setattr(or_module, "_BATCH_ROWS", 3)
        storage = ObjectRelationalStorage(
            Database(), schema_from_dtd(DEPT_DTD), "s")
        with pytest.raises(DatabaseError, match="/dept/employees/emp: <sal>"):
            storage.load_stream(big_dept(40, broken=30), chunk_size=64)
        assert len(storage.db.table("s_emp")) == 27  # nine batches of 3
        assert len(storage.db.table("s_dept")) == 0
        assert len(storage.db.find_index("s_emp", "$parent")) == 27


# -- the replaced shredders, as references ----------------------------------------------


def reference_or_load(storage, document):
    """``ObjectRelationalStorage.load`` as it was: validate, then read
    every column value out of the element tree."""
    db = storage.db
    violations = storage.schema.validate(document)
    if violations:
        raise DatabaseError(
            "document does not conform to schema: %s" % violations[0])
    storage._doc_counter += 1
    doc_id = storage._doc_counter

    def _next_row_id(table_binding):
        return len(db.table(table_binding.table_name)) + 1

    def _column_values(element, decl, table):
        return [_find_value(element, decl, binding)
                for binding in storage._columns[id(table)]]

    def _find_value(element, decl, binding):
        if binding.is_attribute:
            owner = (element if decl is binding.decl
                     else _find_holder(element, decl, binding.decl))
            if owner is None:
                return None
            return owner.get_attribute(binding.attr_name)
        if isinstance(binding, PresenceBinding):
            holder = _find_holder(element, decl, binding.decl)
            return 1 if holder is not None else 0
        if isinstance(storage.bindings[id(binding.decl)], ColumnBinding):
            holder = _find_holder(element, decl, binding.decl)
            if holder is None:
                return None
            return holder.string_value()
        return None

    def _find_holder(element, decl, target_decl):
        if decl is target_decl:
            return element
        for particle in decl.particles:
            if not particle.at_most_one:
                continue
            child_element = element.find(particle.decl.name)
            if particle.decl is target_decl:
                return child_element
            if child_element is not None and not particle.decl.is_leaf:
                found = _find_holder(child_element, particle.decl,
                                     target_decl)
                if found is not None:
                    return found
        return None

    def _insert_element(element, decl, row_id):
        table = storage.bindings[id(decl)]
        assert not isinstance(table, InlineBinding)
        values = [row_id]
        values.extend(_column_values(element, decl, table))
        db.insert(table.table_name, tuple(values))
        _insert_repeating(element, decl, row_id)

    def _insert_repeating(element, decl, parent_row_id):
        for particle in decl.particles:
            child = particle.decl
            if particle.at_most_one:
                if not child.is_leaf:
                    child_element = element.find(child.name)
                    if child_element is not None:
                        _insert_repeating(child_element, child,
                                          parent_row_id)
                continue
            child_table = storage.bindings[id(child)]
            for seq, child_element in enumerate(element.findall(child.name)):
                row_id = _next_row_id(child_table)
                values = [row_id, parent_row_id, seq]
                if child.is_leaf:
                    values.append(child_element.string_value())
                    for binding in storage._columns[id(child_table)][1:]:
                        values.append(
                            _find_value(child_element, child, binding))
                else:
                    values.extend(
                        _column_values(child_element, child, child_table))
                db.insert(child_table.table_name, tuple(values))
                _insert_repeating(child_element, child, row_id)

    _insert_element(document.document_element, storage.schema.root, doc_id)
    return doc_id


def reference_tree_load(storage, document):
    """``TreeStorage.load`` as it was: one recursive ``_insert_node`` per
    node."""
    db = storage.db
    storage._doc_counter += 1
    doc_id = storage._doc_counter

    def _insert_node(node, parent_id, seq):
        storage._node_counter += 1
        node_id = storage._node_counter
        kind = node.kind
        if kind == NodeKind.ELEMENT:
            db.insert(
                storage.table_name,
                (node_id, doc_id, parent_id, seq, "element",
                 node.name.local, None))
            position = 0
            for attribute in node.attributes:
                storage._node_counter += 1
                db.insert(
                    storage.table_name,
                    (storage._node_counter, doc_id, node_id, position,
                     "attribute", attribute.name.local, attribute.value))
                position += 1
            for child in node.children:
                _insert_node(child, node_id, position)
                position += 1
        else:
            name = node.target if kind == NodeKind.PI else None
            stored_kind = {NodeKind.TEXT: "text", NodeKind.COMMENT: "comment",
                           NodeKind.PI: "pi"}[kind]
            db.insert(storage.table_name,
                      (node_id, doc_id, parent_id, seq, stored_kind, name,
                       node.value))

    for seq, child in enumerate(document.children):
        _insert_node(child, 0, seq)
    return doc_id


LIBRARY_DTD = """
<!ELEMENT lib (meta?, shelf*, tag*)>
<!ATTLIST lib owner CDATA #IMPLIED>
<!ELEMENT meta (title, info?)>
<!ATTLIST meta lang CDATA #IMPLIED>
<!ELEMENT title (#PCDATA)>
<!ATTLIST title short CDATA #IMPLIED>
<!ELEMENT info (note?)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT shelf (book*, label?)>
<!ATTLIST shelf no CDATA #IMPLIED>
<!ELEMENT book (name, year?)>
<!ATTLIST book isbn CDATA #IMPLIED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT label (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
<!ATTLIST tag weight CDATA #IMPLIED>
"""
LIBRARY_DOCS = [
    "<lib/>",
    "<!--before--><lib owner='me'><meta lang='en'><title short='t'>T&amp;"
    "<!--split-->itle</title><info><note><![CDATA[<n>]]> tail</note></info>"
    "</meta><shelf no='1'><book isbn='x1'><name>One</name><year>1999</year>"
    "</book><?pi here?><book><name/></book><label/></shelf><shelf/>"
    "<tag weight='3'>red</tag><tag>blue<!--c-->ish</tag></lib><!--after-->",
    "<lib><meta><title>only</title><info/></meta><shelf><label>L</label>"
    "</shelf><tag weight='7'/></lib>",
    "<lib><meta><title>t</title><info></info></meta><shelf><book><name>n"
    "</name></book></shelf><tag>plain</tag><tag/></lib>",
]


def case_storage(case):
    return ObjectRelationalStorage(
        Database(), schema_from_dtd(case.dtd), "s",
        column_types=case.column_types)


SHREDDABLE_CASES = [case for case in ALL_CASES
                    if not schema_from_dtd(case.dtd).is_recursive()]


class TestAgainstTheReplacedShredders:
    @pytest.mark.parametrize("case", SHREDDABLE_CASES,
                             ids=lambda case: case.name)
    def test_object_relational_rows_on_the_xsltmark_corpora(self, case):
        reference = case_storage(case)
        loaded = case_storage(case)
        streamed = case_storage(case)
        for name in case.indexed_elements:
            for storage in (reference, loaded, streamed):
                storage.create_value_index(name)
        for size in (0, 1, 12):
            text = serialize(case.make_document(size))
            reference_or_load(reference, parse_document(text))
            loaded.load(parse_document(text))
            streamed.load_stream(text, chunk_size=64)
        assert or_state(loaded) == or_state(reference)
        assert or_state(streamed) == or_state(reference)

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
    def test_tree_rows_on_the_xsltmark_corpora(self, case):
        reference = TreeStorage(Database(), "t")
        loaded = TreeStorage(Database(), "t")
        streamed = TreeStorage(Database(), "t")
        for size in (0, 1, 12):
            text = serialize(case.make_document(size))
            reference_tree_load(reference, parse_document(text))
            loaded.load(parse_document(text))
            streamed.load_stream(text, chunk_size=64)
        assert tree_state(loaded) == tree_state(reference)
        assert tree_state(streamed) == tree_state(reference)

    @given(pair=schema_and_document())
    @settings(max_examples=100, deadline=None)
    def test_object_relational_rows_on_random_schemas(self, pair):
        schema, document = pair
        reference = ObjectRelationalStorage(Database(), schema, "s")
        loaded = ObjectRelationalStorage(Database(), schema, "s")
        for _ in range(2):
            reference_or_load(reference, document)
            loaded.load(document)
        assert or_state(loaded) == or_state(reference)

    @given(text=documents())
    @settings(max_examples=100, deadline=None)
    def test_tree_rows_on_generated_documents(self, text):
        reference = TreeStorage(Database(), "t")
        loaded = TreeStorage(Database(), "t")
        for _ in range(2):
            reference_tree_load(reference, parse_document(text))
            loaded.load(parse_document(text))
        assert tree_state(loaded) == tree_state(reference)

    def test_every_binding_kind_on_a_hand_written_schema(self):
        # attributes on the row element, on column leaves, on an inline
        # wrapper and on a repeating leaf; optional and nested wrappers
        # (presence columns); typed columns; comments, processing
        # instructions, CDATA and split text inside leaves
        def storage():
            return ObjectRelationalStorage(
                Database(), schema_from_dtd(LIBRARY_DTD), "s",
                column_types={"year": INT, "weight": INT})

        reference, loaded, streamed = storage(), storage(), storage()
        for text in LIBRARY_DOCS:
            reference_or_load(reference, parse_document(text))
            loaded.load(parse_document(text))
            streamed.load_stream(text, chunk_size=9)
        assert or_state(loaded) == or_state(reference)
        assert or_state(streamed) == or_state(reference)
        assert [serialize(streamed.materialize(doc_id))
                for doc_id in streamed.document_ids()] == [
            serialize(reference.materialize(doc_id))
            for doc_id in reference.document_ids()]

    def test_declaration_shared_by_two_wrappers_of_one_row(self):
        # <name> is one declaration stored twice in the row of <a>: the
        # replaced shredder found the first instance for both columns
        dtd = ("<!ELEMENT a (b, c)><!ELEMENT b (name)><!ELEMENT c (name)>"
               "<!ELEMENT name (#PCDATA)>")
        text = "<a><b><name>1</name></b><c><name>2</name></c></a>"
        states = []
        for load in (reference_or_load,
                     ObjectRelationalStorage.load,
                     lambda storage, document: storage.load_stream(text)):
            storage = ObjectRelationalStorage(
                Database(), schema_from_dtd(dtd), "s")
            load(storage, parse_document(text))
            states.append(or_state(storage))
        assert states[1] == states[0] and states[2] == states[0]

    def test_batches_flush_mid_document(self, monkeypatch):
        # rows leave for the table while elements are still open: ids
        # stay consecutive
        from repro.rdb import storage as or_module, treestorage
        monkeypatch.setattr(treestorage, "_BATCH_ROWS", 7)
        monkeypatch.setattr(or_module, "_BATCH_ROWS", 3)
        text = tree_xml(2)
        reference = TreeStorage(Database(), "t")
        streamed = TreeStorage(Database(), "t")
        for _ in range(2):
            reference_tree_load(reference, parse_document(text))
            streamed.load_stream(text, chunk_size=32)
        assert tree_state(streamed) == tree_state(reference)
        case = SHREDDABLE_CASES[0]
        reference, streamed = case_storage(case), case_storage(case)
        text = serialize(case.make_document(20))
        for _ in range(2):
            reference_or_load(reference, parse_document(text))
            streamed.load_stream(text, chunk_size=32)
        assert or_state(streamed) == or_state(reference)


# -- a leaf event is its start, text and end events -------------------------------------


def expanded_or_load(storage, text):
    """``load_stream`` with every leaf spelled out as three events."""
    return storage._shred(
        expand_leaves(stream_events(text)),
        float("inf"))[0]


def expanded_tree_load(storage, text):
    return storage._shred(expand_leaves(stream_events(text)))


class TestLeafEventsAgainstTheirExpansion:
    """Each shredder takes a leaf in one step; fed the same stream with
    the leaves spelled out it must store exactly the same."""

    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
    def test_the_xsltmark_corpora_at_chunk_sizes_1_and_7(self, case):
        texts = [serialize(case.make_document(size)) for size in (0, 1, 12)]
        doors = [expanded_tree_load,
                 lambda storage, text: storage.load(parse_document(text))]
        doors += [lambda storage, text, size=size: storage.load_stream(
            chunks(text, size)) for size in (1, 7)]
        states = []
        for door in doors:
            storage = TreeStorage(Database(), "t")
            for text in texts:
                door(storage, text)
            states.append(tree_state(storage))
        assert all(state == states[0] for state in states[1:])
        if case not in SHREDDABLE_CASES:
            return
        doors[0] = expanded_or_load
        states = []
        for door in doors:
            storage = case_storage(case)
            for name in case.indexed_elements:
                storage.create_value_index(name)
            for text in texts:
                door(storage, text)
            states.append(or_state(storage))
        assert all(state == states[0] for state in states[1:])

    @given(pair=schema_and_document())
    @settings(max_examples=60, deadline=None)
    def test_random_schemas(self, pair):
        schema, document = pair
        text = serialize(document)
        expanded = ObjectRelationalStorage(Database(), schema, "s")
        fused = ObjectRelationalStorage(Database(), schema, "s")
        for _ in range(2):
            expanded_or_load(expanded, text)
            fused.load_stream(text)
        assert or_state(fused) == or_state(expanded)

    def test_leaves_that_open_a_row_or_a_wrapper(self):
        # <lib/> is the root row, <shelf/> a row of a non-leaf type,
        # <tag>plain</tag> and <tag/> rows of a leaf type, <info></info>
        # an inline wrapper: all go through the start and end code
        leaves = {event[1] for text in LIBRARY_DOCS
                  for event in stream_events(text) if event[0] == "leaf"}
        assert {"lib", "shelf", "tag", "info", "label", "name"} <= leaves

        def storage():
            return ObjectRelationalStorage(
                Database(), schema_from_dtd(LIBRARY_DTD), "s",
                column_types={"year": INT, "weight": INT})

        expanded, fused = storage(), storage()
        for text in LIBRARY_DOCS:
            expanded_or_load(expanded, text)
            fused.load_stream(text, chunk_size=7)
        assert or_state(fused) == or_state(expanded)


# -- replaced, not forked ---------------------------------------------------------------


class TestOneMaintenancePath:
    """Greps over ``src/repro``: ingest feeds every index family whole
    runs, and conformance has one definition."""

    @staticmethod
    def sources():
        import pathlib
        import repro

        root = pathlib.Path(repro.__file__).parent
        return {str(path.relative_to(root)): path.read_text()
                for path in root.rglob("*.py")}

    def test_only_the_btree_enters_single_index_entries(self):
        import re

        for name, source in self.sources().items():
            if name == "rdb/btree.py":
                continue
            for match in re.finditer(r"(\w+)\.insert\((\w*)", source):
                # Database DML, or a list insert at a literal position
                assert (match.group(1) in ("db", "database")
                        or match.group(2).isdigit()), (name, match.group(0))
            assert "._insert(" not in source, name

    def test_ingest_modules_hand_indexes_whole_runs(self):
        assert ".extend(" in self.sources()["rdb/table.py"]

    def test_a_stored_tuple_is_never_rewritten(self):
        # HeapTable.extend is the one row writer: no module assigns into a
        # table's row list, directly or through a name bound to it
        import re

        for name, source in self.sources().items():
            assert not re.search(r"\.rows\[.*\]\s*=(?!=)", source), name
            for alias in re.findall(r"(\w+)\s*=\s*.*\.rows\b", source):
                assert not re.search(
                    r"\b%s\[.*\]\s*=(?!=)" % alias, source), (name, alias)

    def test_row_at_a_time_coercion_is_gone(self):
        for name, source in self.sources().items():
            assert "coerce_row" not in source, name

    def test_the_storage_does_not_validate_in_a_second_walk(self):
        source = self.sources()["rdb/storage.py"]
        assert "validate(" not in source
        assert "content_model(" in source


# -- what one load costs --------------------------------------------------------------


class TestIngestStaysLean:
    """A load writes each row once and keeps only what something reads
    (no path/value index run, no label counter, no stored tuple
    rewritten), and the scanner sweeps: no per-token ``find``, match
    accessor call or name-cache ``get``.  Python calls (``sys.setprofile``
    call and c_call events) of one warm ``load``/``load_stream`` of the
    128-row db document per storage: or 7 478 / 5 879, tree 6 182 /
    4 583 (9 529 / 15 996 and 8 233 / 14 700 before the sweep, with one
    ``find``, ``match``, ``group`` and ``end`` per token); the caps are
    5 % above."""

    CAPS = {("or", "load"): 7852, ("or", "load_stream"): 6173,
            ("tree", "load"): 6491, ("tree", "load_stream"): 4812}

    @pytest.mark.parametrize("kind, door", sorted(CAPS))
    def test_python_calls_per_load(self, kind, door):
        import sys

        from repro.xsltmark import generator

        text = serialize(generator.make_db_document(128))
        document = parse_document(text)
        schema = schema_from_dtd(generator.DB_DTD)
        stores = {
            "or": lambda: ObjectRelationalStorage(
                Database(), schema, "bm",
                column_types=generator.DB_COLUMN_TYPES),
            "tree": lambda: TreeStorage(Database(), "bm"),
        }

        def calls(make, door):
            count = [0]

            def counter(frame, event, arg):
                if event in ("call", "c_call"):
                    count[0] += 1
            sys.setprofile(counter)
            storage = make()
            if door == "load":
                storage.load(document)
            else:
                storage.load_stream(text)
            sys.setprofile(None)
            return count[0]

        calls(stores[kind], door)
        count = calls(stores[kind], door)
        assert count <= self.CAPS[kind, door], (kind, door, count)
