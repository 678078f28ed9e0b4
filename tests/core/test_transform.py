"""Tests for the XMLTransform() front door: strategies and fallback."""

import gc

import pytest

from repro.api import Engine, TransformOptions
from repro.core import (
    STRATEGY_FUNCTIONAL,
    STRATEGY_SQL,
    xml_transform,
)
from repro.rdb import Database, INT
from repro.rdb.sqlxml import Markup
from repro.rdb.storage import ClobStorage, ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document
from repro.xsltmark import ALL_CASES
from repro.xsltmark.runner import prepare_case

from .paper_example import (
    DEPT_DTD,
    DEPT_DOC_1,
    DEPT_DOC_2,
    EXAMPLE1_STYLESHEET,
    EXPECTED_ROW1,
    EXPECTED_ROW2,
    dept_emp_view_query,
    make_database,
)

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'
FUNCTIONAL = TransformOptions(strategy="functional")


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


class TestViewTransform:
    def test_rewrite_strategy(self):
        db = make_database()
        result = xml_transform(db, dept_emp_view_query(), EXAMPLE1_STYLESHEET)
        assert result.strategy == STRATEGY_SQL
        assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_functional_strategy(self):
        db = make_database()
        result = xml_transform(
            db, dept_emp_view_query(), EXAMPLE1_STYLESHEET, options=FUNCTIONAL
        )
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_strategies_agree(self):
        db = make_database()
        with_rewrite = xml_transform(
            db, dept_emp_view_query(), EXAMPLE1_STYLESHEET
        )
        without = xml_transform(
            db, dept_emp_view_query(), EXAMPLE1_STYLESHEET, options=FUNCTIONAL
        )
        assert with_rewrite.serialized_rows() == without.serialized_rows()

    def test_rewrite_rows_are_markup_not_nodes(self):
        """The rewrite path builds no result DOM: its row items are
        serialized markup strings; functional rows are markup too, the
        VM's result serialized once per document."""
        db = make_database()
        rewritten = xml_transform(db, dept_emp_view_query(),
                                  EXAMPLE1_STYLESHEET)
        assert rewritten.strategy == STRATEGY_SQL
        items = [item for row in rewritten.rows for item in row]
        assert items and all(isinstance(item, str) for item in items)
        assert ["".join(row) for row in rewritten.rows] \
            == [EXPECTED_ROW1, EXPECTED_ROW2]
        functional = xml_transform(db, dept_emp_view_query(),
                                   EXAMPLE1_STYLESHEET, options=FUNCTIONAL)
        assert functional.rows == [[EXPECTED_ROW1], [EXPECTED_ROW2]]
        assert all(type(item) is Markup
                   for row in functional.rows for item in row)

    @pytest.mark.parametrize("method", ["html", "text"])
    def test_non_xml_methods_on_rewrite_result(self, method):
        """html/text need the tree back: a sql-rewrite row's markup is
        re-parsed, and the answer matches the functional path's."""
        db = make_database()
        body = (
            '<xsl:template match="dept"><p><br/>'
            '<xsl:value-of select="dname"/> &amp; co</p></xsl:template>'
        )
        rewritten = xml_transform(db, dept_emp_view_query(), sheet(body))
        functional = xml_transform(db, dept_emp_view_query(), sheet(body),
                                   options=FUNCTIONAL)
        assert rewritten.strategy == STRATEGY_SQL
        assert rewritten.serialized_rows(method=method) \
            == functional.serialized_rows(method=method)
        expected = {"html": "<p><br>ACCOUNTING &amp; co</p>",
                    "text": "ACCOUNTING & co"}[method]
        assert rewritten.serialized_rows(method=method)[0] == expected

    @pytest.mark.parametrize("level", ["cost", "off"])
    @pytest.mark.parametrize("body", [
        "",
        '<xsl:template match="/"><xsl:value-of select="a"/></xsl:template>',
    ], ids=["built-in-only", "root-value-of"])
    def test_top_level_text_is_escaped_at_every_door(self, body, level):
        """Text the rewritten plan returns at the top level of a row is
        character data, escaped as the VM escapes it — at the front
        door, through a compiled plan, streamed, and piece by piece."""
        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd("<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)>",
                                "a"), "esc")
        for document in ("<a><b>x &amp; y</b><b>1 &lt; 2</b></a>",
                         "<a><b>p &gt; q</b></a>"):
            storage.load_stream(document)
        engine = Engine(db)
        options = TransformOptions(optimizer_level=level)
        expected = engine.transform(storage, sheet(body),
                                    options=FUNCTIONAL).serialized_rows()
        assert expected == ["x &amp; y1 &lt; 2", "p &gt; q"]
        front = engine.transform(storage, sheet(body), options=options)
        assert front.strategy == STRATEGY_SQL
        assert front.serialized_rows() == expected
        compiled = engine.compile(storage, sheet(body), options=options)
        assert engine.execute(storage, compiled).serialized_rows() \
            == expected
        assert engine.transform_stream(storage, sheet(body),
                                       options=options).text() \
            == "".join(expected)
        assert "".join(compiled.query.stream_pieces(db)) == "".join(expected)

    def test_outcome_attached_on_rewrite(self):
        db = make_database()
        result = xml_transform(db, dept_emp_view_query(), EXAMPLE1_STYLESHEET)
        assert result.outcome is not None
        assert result.outcome.inline_mode
        assert "XMLElement" in result.outcome.sql_text()
        assert "declare variable" in result.outcome.xquery_text()

    def test_fallback_on_unsupported_construct(self):
        db = make_database()
        # xsl:number cannot be rewritten: must fall back, still correct.
        body = (
            '<xsl:template match="emp"><i><xsl:number value="42"/></i>'
            "</xsl:template>"
        )
        result = xml_transform(db, dept_emp_view_query(), sheet(body))
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.fallback_reason
        assert "<i>42</i>" in result.serialized_rows()[0]

    def test_params_force_functional(self):
        db = make_database()
        body = (
            '<xsl:param name="p"/>'
            '<xsl:template match="dept"><xsl:value-of select="$p"/></xsl:template>'
        )
        result = xml_transform(
            db, dept_emp_view_query(), sheet(body), params={"p": "X"}
        )
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.serialized_rows() == ["X", "X"]


class TestStorageTransform:
    def make_storage(self):
        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(DEPT_DTD), "xd",
            column_types={"sal": INT, "empno": INT},
        )
        storage.load(parse_document(DEPT_DOC_1))
        storage.load(parse_document(DEPT_DOC_2))
        return db, storage

    def test_rewrite_over_storage(self):
        db, storage = self.make_storage()
        result = xml_transform(db, storage, EXAMPLE1_STYLESHEET)
        assert result.strategy == STRATEGY_SQL
        assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_functional_over_storage(self):
        db, storage = self.make_storage()
        result = xml_transform(db, storage, EXAMPLE1_STYLESHEET,
                               options=FUNCTIONAL)
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_functional_scans_everything(self):
        db, storage = self.make_storage()
        storage.create_value_index("sal")
        rewritten = xml_transform(db, storage, EXAMPLE1_STYLESHEET)
        functional = xml_transform(
            db, storage, EXAMPLE1_STYLESHEET, options=FUNCTIONAL
        )
        # the rewrite probes the value index and fetches only qualifying
        # rows; functional materialisation reads every row of the document
        # (it may use the parent-key index to find them, but it cannot
        # skip any).
        assert rewritten.stats.index_probes > 0
        assert functional.stats.rows_scanned > rewritten.stats.rows_scanned

    def test_clob_storage_always_functional(self):
        db = Database()
        storage = ClobStorage(db, "c")
        storage.load(parse_document(DEPT_DOC_1))
        result = xml_transform(db, storage, EXAMPLE1_STYLESHEET)
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.fallback_reason
        assert result.serialized_rows() == [EXPECTED_ROW1]

    def test_tree_storage_always_functional(self):
        from repro.rdb.treestorage import TreeStorage

        db = Database()
        storage = TreeStorage(db, "t")
        storage.load(parse_document(DEPT_DOC_1))
        result = xml_transform(db, storage, EXAMPLE1_STYLESHEET)
        # schema-less: no structure for the rewrite to exploit
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.serialized_rows() == [EXPECTED_ROW1]


class TestColdRequestsLeaveLittleCyclicGarbage:
    """A cold request (compile, execute, render) frees what it made by
    reference counting: no failed rewrite's traceback, no closure that
    calls itself, no parsed stylesheet DOM is left for the collector.
    Cyclic objects a request leaves here, over the 40 XSLTMark cases:
    71 (183 before the tracebacks, closures and DOM were let go); the
    cap is ~10 % above."""

    CAP = 78

    def test_cyclic_objects_per_cold_request(self):
        targets = []
        for case in ALL_CASES:
            prepared = prepare_case(case, 10)
            targets.append((Engine(prepared.db), prepared.storage,
                            case.stylesheet))
        for engine, storage, stylesheet in targets:  # first-ever costs
            engine.transform(storage, stylesheet).serialized_rows()
        gc.collect()
        gc.disable()
        try:
            for engine, storage, stylesheet in targets:
                engine.transform(storage, stylesheet).serialized_rows()
            found = gc.collect()
        finally:
            gc.enable()
        assert found <= self.CAP * len(targets), found / len(targets)
