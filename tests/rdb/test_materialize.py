"""The no-rewrite path's materialiser, pinned node for node.

``ObjectRelationalStorage.materialize`` runs an emit program compiled once
from the schema.  The reference here is the algorithm it replaced — one
``{column: value}`` dict per row, the bindings consulted per particle, every
node written through :class:`TreeBuilder` — kept in this file so the two can
be compared on kind, name, value, attribute list, parent pointer and
``order`` of every node, and on the work counters.
"""

import re
import sys
import threading
from pathlib import Path

import pytest

from repro import Engine
from repro.api import TransformOptions
from repro.errors import DatabaseError
from repro.rdb import Database, FLOAT, INT
from repro.rdb.plan import ExecutionStats
from repro.rdb.storage import (
    PARENT_ID,
    ROW_ID,
    SEQ,
    VALUE,
    ClobStorage,
    ColumnBinding,
    InlineBinding,
    ObjectRelationalStorage,
)
from repro.rdb.treestorage import TreeStorage
from repro.schema import schema_from_dtd
from repro.xpath.datamodel import number_to_string
from repro.xmlmodel import (
    Element,
    NodeKind,
    TreeBuilder,
    parse_document,
    serialize,
)
from repro.xsltmark import ALL_CASES, get_case
from repro.xsltmark.generator import SALES_DTD
from repro.xsltmark.runner import prepare_case

# -- the reference: the replaced algorithm, verbatim in behaviour -------------------


def reference_materialize(storage, doc_id, stats=None):
    db = storage.db
    root_binding = storage.tables[0]
    root_table = db.table(root_binding.table_name)
    row = None
    for _, raw in root_table.scan():
        if stats is not None:
            stats.rows_scanned += 1
        if raw[0] == doc_id:
            row = root_table.row_dict(raw)
            break
    if row is None:
        raise DatabaseError("no document %d" % doc_id)
    if stats is not None:
        stats.docs_materialized += 1
    grouped_tables = {}
    for binding in storage.tables[1:]:
        if db.find_index(binding.table_name, PARENT_ID):
            continue
        table = db.table(binding.table_name)
        grouped = {}
        for _, raw in table.scan():
            if stats is not None:
                stats.rows_scanned += 1
            grouped.setdefault(raw[1], []).append(table.row_dict(raw))
        for rows in grouped.values():
            rows.sort(key=lambda r: r[SEQ])
        grouped_tables[id(binding)] = grouped

    def child_rows(binding, parent_id):
        if id(binding) in grouped_tables:
            return grouped_tables[id(binding)].get(parent_id, [])
        table = db.table(binding.table_name)
        index = db.find_index(binding.table_name, PARENT_ID)
        rows = []
        for row_id in index.lookup_eq(parent_id, stats=stats):
            if stats is not None:
                stats.rows_scanned += 1
            rows.append(table.row_dict(table.fetch(row_id)))
        rows.sort(key=lambda r: r[SEQ])
        return rows

    def emit_attributes(owner_decl, table_binding, row):
        for attribute in owner_decl.attributes:
            binding = storage._attr_binding(table_binding, owner_decl,
                                            attribute)
            if binding is not None and row.get(binding.column_name) is not None:
                builder.attribute(attribute, as_text(row[binding.column_name]))

    def emit_content(decl, table_binding, row):
        emit_attributes(decl, table_binding, row)
        for particle in decl.particles:
            child = particle.decl
            binding = storage.bindings[id(child)]
            if isinstance(binding, ColumnBinding):
                value = row.get(binding.column_name)
                if value is not None:
                    builder.start_element(child.name)
                    emit_attributes(child, table_binding, row)
                    builder.text(as_text(value))
                    builder.end_element()
            elif isinstance(binding, InlineBinding):
                if (binding.presence_column is not None
                        and not row.get(binding.presence_column)):
                    continue
                builder.start_element(child.name)
                emit_content(child, table_binding, row)
                builder.end_element()
            else:
                for child_row in child_rows(binding, row[ROW_ID]):
                    builder.start_element(child.name)
                    if child.is_leaf:
                        emit_attributes(child, binding, child_row)
                        builder.text(as_text(child_row.get(VALUE)))
                    else:
                        emit_content(child, binding, child_row)
                    builder.end_element()

    builder = TreeBuilder()
    builder.start_element(storage.schema.root.name)
    emit_content(storage.schema.root, root_binding, row)
    builder.end_element()
    return builder.finish()


def as_text(value):
    if value is None:
        return ""
    if isinstance(value, float):  # the one spelling both paths print
        return number_to_string(value)
    return str(value)


# -- node-for-node comparison -----------------------------------------------------------


def signature(document):
    """Every node of ``document`` in document order, attributes after their
    element: (depth, kind, (uri, local, prefix), value, order)."""
    out = []

    def visit(node, depth):
        name = node.name
        out.append((
            depth, node.kind,
            None if name is None else (name.uri, name.local, name.prefix),
            getattr(node, "value", None), node.order,
        ))
        if node.kind == NodeKind.ELEMENT:
            for attribute in node.attributes:
                assert attribute.parent is node
                visit(attribute, depth + 1)
        for child in node.children:
            assert child.parent is node
            visit(child, depth + 1)

    visit(document, 0)
    return out


def assert_same_dom(actual, expected):
    assert signature(actual) == signature(expected)
    # and the next node attached later continues the numbering
    assert actual.append(Element("x")).order == \
        expected.append(Element("x")).order


COUNTERS = ("rows_scanned", "docs_materialized", "index_probes",
            "btree_node_visits", "index_entries")


def counters(stats):
    return {name: getattr(stats, name) for name in COUNTERS}


def assert_matches_reference(storage):
    """Every document, DOM and counters, through both public forms."""
    doc_ids = storage.document_ids()
    for doc_id in doc_ids:
        got_stats, want_stats = ExecutionStats(), ExecutionStats()
        got = storage.materialize(doc_id, stats=got_stats)
        want = reference_materialize(storage, doc_id, stats=want_stats)
        assert counters(got_stats) == counters(want_stats)
        assert_same_dom(got, want)
    together = list(storage.materialize_all())
    assert len(together) == len(doc_ids)
    for doc_id, got in zip(doc_ids, together):
        assert_same_dom(got, reference_materialize(storage, doc_id))


def drop_parent_indexes(storage):
    """The catalog has no DROP INDEX; the un-indexed materialise path is
    still reachable (a table created by hand, an index not yet built)."""
    indexes = storage.db._indexes
    for name in [name for name, index in indexes.items()
                 if index.column_name == PARENT_ID]:
        del indexes[name]


# -- a schema exercising every step kind ---------------------------------------------

SHOP_DTD = """
<!ELEMENT shop (title, note?, meta?, info, tag*, dept*)>
<!ATTLIST shop region CDATA #IMPLIED code CDATA #IMPLIED>
<!ELEMENT title (#PCDATA)>
<!ATTLIST title lang CDATA #IMPLIED>
<!ELEMENT note (#PCDATA)>
<!ELEMENT meta (owner, phone?)>
<!ATTLIST meta kind CDATA #IMPLIED>
<!ELEMENT owner (#PCDATA)>
<!ELEMENT phone (#PCDATA)>
<!ELEMENT info (since, rating?)>
<!ELEMENT since (#PCDATA)>
<!ELEMENT rating (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
<!ATTLIST tag weight CDATA #IMPLIED>
<!ELEMENT dept (dname, emp*)>
<!ATTLIST dept no CDATA #REQUIRED>
<!ELEMENT dname (#PCDATA)>
<!ELEMENT emp (ename, sal, skill*)>
<!ATTLIST emp id CDATA #IMPLIED>
<!ELEMENT ename (#PCDATA)>
<!ELEMENT sal (#PCDATA)>
<!ELEMENT skill (#PCDATA)>
"""

SHOP_TYPES = {"sal": FLOAT, "since": INT, "rating": FLOAT, "no": INT}

FULL = (
    '<shop region="north" code="7"><title lang="en">Tools</title>'
    "<note>open late</note>"
    '<meta kind="k"><owner>Ann</owner><phone>555</phone></meta>'
    "<info><since>1999</since><rating>4.5</rating></info>"
    '<tag weight="3">steel</tag><tag>wood</tag><tag weight="1"></tag>'
    '<dept no="10"><dname>SALES</dname>'
    '<emp id="e1"><ename>CLARK</ename><sal>2450</sal>'
    "<skill>sql</skill><skill>xml</skill></emp>"
    "<emp><ename>KING</ename><sal>1300.5</sal></emp>"
    '<emp id="e3"><ename>FORD</ename><sal>3000</sal><skill>c</skill></emp>'
    "</dept>"
    '<dept no="20"><dname>OPS</dname>'
    '<emp id="e4"><ename>SMITH</ename><sal>800</sal></emp></dept>'
    '<dept no="30"><dname>EMPTY</dname></dept>'
    "</shop>"
)
# nullable leaf absent, optional wrapper absent, no attributes, no child rows
BARE = ("<shop><title>Bare</title><info><since>2001</since></info></shop>")
# wrapper present with its optional leaf absent; empty-string column text;
# integral float rating
SPARSE = (
    '<shop code="0"><title lang="">T</title><note></note>'
    "<meta><owner>Bob</owner></meta>"
    "<info><since>7</since><rating>3</rating></info>"
    "<tag></tag>"
    '<dept no="1"><dname></dname><emp><ename>A</ename><sal>0</sal>'
    "<skill></skill></emp></dept></shop>"
)


def shop_storage(*sources, indexed=True):
    storage = ObjectRelationalStorage(
        Database(), schema_from_dtd(SHOP_DTD), "s", column_types=SHOP_TYPES)
    if not indexed:
        drop_parent_indexes(storage)
    for source in sources:
        storage.load(parse_document(source))
    return storage


class TestDifferential:
    @pytest.mark.parametrize("indexed", [True, False])
    @pytest.mark.parametrize("sources", [
        (FULL,), (BARE,), (SPARSE,), (FULL, BARE, SPARSE, FULL),
    ])
    def test_shop_documents(self, sources, indexed):
        assert_matches_reference(shop_storage(*sources, indexed=indexed))

    def test_round_trips_where_text_survives_typing(self):
        # BARE stores nothing that typing rewrites: byte-identical
        storage = shop_storage(BARE)
        assert serialize(storage.materialize(1)) == BARE

    def test_float_and_empty_text(self):
        shop = shop_storage(SPARSE).materialize(1).document_element
        assert shop.find("note").children == []
        assert shop.find("info").find("rating").string_value() == "3"
        assert shop.find("title").get_attribute("lang") == ""
        assert shop.find("tag").children == []
        emp = shop.find("dept").find("emp")
        assert emp.find("sal").string_value() == "0"
        full = shop_storage(FULL).materialize(1).document_element
        sals = [emp.find("sal").string_value()
                for emp in full.find("dept").findall("emp")]
        assert sals == ["2450", "1300.5", "3000"]

    def test_presence_flag(self):
        storage = shop_storage(BARE, SPARSE)
        bare, sparse = (d.document_element for d in storage.materialize_all())
        assert bare.find("meta") is None
        assert [c.name.local for c in sparse.find("meta").children] == ["owner"]

    def test_attribute_owners(self):
        """root / inline / column-leaf / child-table-leaf / child-table."""
        shop = shop_storage(FULL).materialize(1).document_element

        def attrs(element):
            return [(a.name.local, a.value, a.order) for a in
                    element.attributes]

        assert attrs(shop) == [("region", "north", 1), ("code", "7", 1)]
        assert attrs(shop.find("title")) == [("lang", "en", 2)]
        assert attrs(shop.find("meta")) == [
            ("kind", "k", shop.find("meta").order)]
        tags = shop.findall("tag")
        assert [attrs(tag) for tag in tags] == [
            [("weight", "3", tags[0].order)], [],
            [("weight", "1", tags[2].order)]]
        assert attrs(shop.find("dept")) == [
            ("no", "10", shop.find("dept").order)]

    def test_unattributed_elements_share_one_empty_tuple(self):
        shop = shop_storage(BARE).materialize(1).document_element
        assert shop.attributes == ()
        assert shop.attributes is shop.find("title").attributes

    @pytest.mark.parametrize("size", [0, 1, 7, 50])
    @pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
    def test_xsltmark_documents(self, case, size):
        prepared = prepare_case(case, size)
        storage = prepared.storage
        if isinstance(storage, ObjectRelationalStorage):
            assert_matches_reference(storage)
            drop_parent_indexes(storage)
            assert_matches_reference(storage)
        else:
            assert serialize(storage.materialize(1)) == serialize(
                case.make_document(size))

    def test_missing_document_counts_the_scan_and_nothing_else(self):
        storage = shop_storage(FULL, BARE)
        stats = ExecutionStats()
        with pytest.raises(DatabaseError):
            storage.materialize(9, stats=stats)
        assert counters(stats) == dict.fromkeys(COUNTERS, 0) | {
            "rows_scanned": 2}


class TestInlineWrapperAttributes:
    """An inline wrapper's stored attributes are in the storage view as
    well as in the materialised DOM, so a path through one rewrites."""

    SHEET = (
        '<xsl:stylesheet version="1.0" '
        'xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
        '<xsl:template match="/"><o><xsl:value-of select="shop/meta/@kind"/>'
        '|<xsl:value-of select="shop/meta/owner"/></o></xsl:template>'
        "</xsl:stylesheet>")

    def test_rewrite_reads_the_wrapper_attribute(self):
        # FULL has the attribute, SPARSE the wrapper only, BARE neither
        storage = shop_storage(FULL, SPARSE, BARE)
        engine = Engine(storage.db)
        rewritten = engine.transform(storage, self.SHEET)
        functional = engine.transform(
            storage, self.SHEET,
            options=TransformOptions(strategy="functional"))
        assert rewritten.strategy == "sql-rewrite", rewritten.fallback_reason
        assert rewritten.serialized_rows() == functional.serialized_rows() \
            == ["<o>k|Ann</o>", "<o>|Bob</o>", "<o>|</o>"]

    def test_copy_of_the_wrapper_keeps_its_attribute(self):
        # the constructed wrapper used to drop kind="k" without falling back
        sheet = self.SHEET.replace(
            '<o><xsl:value-of select="shop/meta/@kind"/>'
            '|<xsl:value-of select="shop/meta/owner"/></o>',
            '<o><xsl:copy-of select="shop/meta"/></o>')
        storage = shop_storage(FULL, SPARSE, BARE)
        engine = Engine(storage.db)
        rewritten = engine.transform(storage, sheet)
        functional = engine.transform(
            storage, sheet, options=TransformOptions(strategy="functional"))
        assert rewritten.strategy == "sql-rewrite", rewritten.fallback_reason
        assert rewritten.serialized_rows() == functional.serialized_rows() \
            == ['<o><meta kind="k"><owner>Ann</owner><phone>555</phone>'
                "</meta></o>",
                "<o><meta><owner>Bob</owner></meta></o>", "<o/>"]


def price_storage(*prices):
    """SALES_DTD with a FLOAT price column, one product per price text."""
    storage = ObjectRelationalStorage(
        Database(), schema_from_dtd(SALES_DTD), "p",
        column_types={"price": FLOAT})
    storage.load_stream("<sales>%s</sales>" % "".join(
        "<product><name>n</name><quantity>1</quantity><price>%s</price>"
        "<region>r</region></product>" % price for price in prices))
    return storage


class TestFloatText:
    """A stored FLOAT renders one way on both paths — the rewrite's and
    the VM's ``number_to_string`` — and NaN / infinities materialise."""

    VALUE_OF = (
        '<xsl:stylesheet version="1.0" '
        'xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
        '<xsl:template match="sales"><o><xsl:for-each select="product">'
        '<p><xsl:value-of select="price"/></p></xsl:for-each></o>'
        "</xsl:template></xsl:stylesheet>")
    SPELLED = [("NaN", "NaN"), ("INF", "Infinity"), ("-INF", "-Infinity"),
               ("1e20", "100000000000000000000"),
               ("-2.5e17", "-250000000000000000"), ("1e-7", "0.0000001"),
               ("2.5", "2.5"), ("3", "3")]

    @pytest.mark.parametrize("text,spelled", SPELLED)
    def test_rewrite_and_functional_print_the_same(self, text, spelled):
        storage = price_storage(text)
        engine = Engine(storage.db)
        rewritten = engine.transform(storage, self.VALUE_OF)
        functional = engine.transform(
            storage, self.VALUE_OF,
            options=TransformOptions(strategy="functional"))
        assert rewritten.strategy == "sql-rewrite"
        assert rewritten.serialized_rows() == functional.serialized_rows() \
            == ["<o><p>%s</p></o>" % spelled]

    def test_printed_numbers_read_back_as_themselves(self):
        """``number(string(x)) = x`` on both paths: the functional path
        reads the materialised text back in a numeric context, the
        rewrite reads the FLOAT column — with no exponent in the text,
        both see the stored number."""
        texts = ["1e20", "-2.5e17", "1e-7", "1.5e300", "0.1", "2.5"]
        storage = price_storage(*texts)
        engine = Engine(storage.db)
        sheet = self.VALUE_OF.replace('select="price"',
                                      'select="price * 1"')
        rewritten = engine.transform(storage, sheet)
        functional = engine.transform(
            storage, sheet, options=TransformOptions(strategy="functional"))
        assert rewritten.strategy == "sql-rewrite"
        assert rewritten.serialized_rows() == functional.serialized_rows() \
            == ["<o>%s</o>" % "".join(
                "<p>%s</p>" % number_to_string(float(text))
                for text in texts)]
        same = engine.transform(
            storage, self.VALUE_OF.replace(
                'select="price"', 'select="number(string(price)) = price"'),
            options=TransformOptions(strategy="functional"))
        assert same.serialized_rows() == ["<o>%s</o>"
                                          % ("<p>true</p>" * len(texts))]

    @pytest.mark.parametrize("case", ["total", "metric", "chart"])
    def test_special_values_no_longer_crash_the_functional_path(self, case):
        storage = price_storage("NaN", "INF", "-INF", "1e20")
        result = Engine(storage.db).transform(
            storage, get_case(case).stylesheet,
            options=TransformOptions(strategy="functional"))
        assert result.rows

    def test_materialize_round_trip(self):
        texts = [text for text, _ in self.SPELLED]
        storage = price_storage(*texts)
        document = storage.materialize(1)
        prices = [product.find("price").string_value() for product in
                  document.document_element.findall("product")]
        assert prices == [spelled for _, spelled in self.SPELLED]
        again = ObjectRelationalStorage(
            Database(), storage.schema, "q", column_types={"price": FLOAT})
        again.load_stream(serialize(document))

        def stored(source):
            table = source.db.table(source.tables[1].table_name)
            column = table.schema.position_of("price")
            return [repr(row[column]) for _, row in table.scan()]

        assert stored(again) == stored(storage)
        assert serialize(again.materialize(1)) == serialize(document)


class TestIndexDecidedPerCall:
    def test_index_created_after_first_materialise(self):
        storage = shop_storage(FULL, SPARSE, indexed=False)
        before_stats = ExecutionStats()
        before = storage.materialize(1, stats=before_stats)
        assert before_stats.index_probes == 0
        for binding in storage.tables[1:]:
            storage.db.create_index(binding.table_name, PARENT_ID)
        after_stats = ExecutionStats()
        after = storage.materialize(1, stats=after_stats)
        assert after_stats.index_probes > 0
        # probes touch this document's rows only; the scan touched SPARSE's too
        assert after_stats.rows_scanned < before_stats.rows_scanned
        assert signature(after) == signature(before)
        assert_matches_reference(storage)

    def test_mixed_indexed_and_scanned_tables(self):
        storage = shop_storage(FULL, SPARSE, indexed=False)
        storage.db.create_index(storage.tables[-1].table_name, PARENT_ID)
        assert_matches_reference(storage)


class TestManyDocuments:
    SHEET = ('<xsl:stylesheet version="1.0" xmlns:xsl='
             '"http://www.w3.org/1999/XSL/Transform">'
             '<xsl:template match="/"><n><xsl:value-of select="count(//emp)"/>'
             "</n></xsl:template></xsl:stylesheet>")

    @staticmethod
    def total_rows(storage):
        return sum(len(storage.db.table(binding.table_name))
                   for binding in storage.tables)

    @pytest.mark.parametrize("indexed", [True, False])
    @pytest.mark.parametrize("documents", [1, 8, 64])
    def test_rows_scanned_is_linear_in_rows(self, documents, indexed):
        sources = [(FULL, BARE, SPARSE)[i % 3] for i in range(documents)]
        storage = shop_storage(*sources, indexed=indexed)
        stats = ExecutionStats()
        built = list(storage.materialize_all(stats))
        assert len(built) == documents
        assert stats.docs_materialized == documents
        # every stored row is read exactly once, however many documents
        assert stats.rows_scanned == self.total_rows(storage)

    @pytest.mark.parametrize("indexed", [True, False])
    def test_functional_paths_use_it(self, indexed):
        storage = shop_storage(*[FULL, BARE] * 32, indexed=indexed)
        options = TransformOptions(strategy="functional")
        engine = Engine(storage.db)
        result = engine.transform(storage, self.SHEET, options=options)
        assert result.strategy == "functional"
        assert result.stats.docs_materialized == 64
        assert result.stats.rows_scanned == self.total_rows(storage)
        assert result.serialized_rows() == ["<n>4</n>", "<n>0</n>"] * 32
        stream = engine.transform_stream(storage, self.SHEET, options=options)
        assert "".join(stream) == "<n>4</n><n>0</n>" * 32
        assert stream.stats.rows_scanned == self.total_rows(storage)

    def test_documents_loaded_mid_iteration_are_not_half_built(self):
        storage = shop_storage(FULL, indexed=False)
        iterator = storage.materialize_all()
        first = next(iterator)
        storage.load(parse_document(FULL))
        assert list(iterator) == []  # the snapshot held one document
        assert signature(first) == signature(storage.materialize(2))


class TestConcurrent:
    def test_four_threads_share_one_program(self):
        storage = shop_storage(FULL, BARE, SPARSE)
        expected = {doc_id: signature(reference_materialize(storage, doc_id))
                    for doc_id in storage.document_ids()}
        failures = []

        def worker(offset):
            try:
                for round_ in range(50):
                    doc_id = 1 + (offset + round_) % 3
                    stats = ExecutionStats()
                    got = storage.materialize(doc_id, stats=stats)
                    if signature(got) != expected[doc_id]:
                        failures.append(("dom", offset, round_))
                    if stats.docs_materialized != 1:
                        failures.append(("stats", offset, round_))
            except Exception as error:  # surfaced below, not lost in a thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestOtherStoragesUnchanged:
    SOURCE = ('<a x="1" y="2"><!--c--><b z="3">t</b><?p q?><b/>tail</a>')

    def test_tree_storage_numbers_like_the_builder(self):
        storage = TreeStorage(Database(), "t")
        doc_id = storage.load(parse_document(self.SOURCE))
        rebuilt = storage.materialize(doc_id)
        assert serialize(rebuilt) == self.SOURCE
        # attributes written through the builder share their element's slot
        assert [row[1:] for row in signature(rebuilt)] == [
            (NodeKind.DOCUMENT, None, None, 0),
            (NodeKind.ELEMENT, (None, "a", None), None, 1),
            (NodeKind.ATTRIBUTE, (None, "x", None), "1", 1),
            (NodeKind.ATTRIBUTE, (None, "y", None), "2", 1),
            (NodeKind.COMMENT, None, "c", 2),
            (NodeKind.ELEMENT, (None, "b", None), None, 3),
            (NodeKind.ATTRIBUTE, (None, "z", None), "3", 3),
            (NodeKind.TEXT, None, "t", 4),
            (NodeKind.PI, (None, "p", None), "q", 5),
            (NodeKind.ELEMENT, (None, "b", None), None, 6),
            (NodeKind.TEXT, None, "tail", 7),
        ]

    def test_clob_storage_numbers_like_the_parser(self):
        storage = ClobStorage(Database(), "c")
        doc_id = storage.load(parse_document(self.SOURCE))
        rebuilt = storage.materialize(doc_id)
        assert serialize(rebuilt) == self.SOURCE
        assert signature(rebuilt) == signature(parse_document(self.SOURCE))
        # parsed attributes are adopted with their element: own slots
        assert [row[-1] for row in signature(rebuilt)] == [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


class TestOnePath:
    def test_storage_module_has_no_per_row_dicts_or_thread_locals(self):
        import repro.rdb.storage as module

        source = Path(module.__file__).read_text()
        for gone in ("row_dict", "_child_cache", "threading.local", "_tls",
                     "_fetch_row", "_child_rows"):
            assert gone not in source, gone
        assert not re.search(r"def _emit(_content)?\(self", source)
