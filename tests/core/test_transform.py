"""Tests for the XMLTransform() front door: strategies and fallback."""

import pytest

from repro.api import TransformOptions
from repro.core import (
    STRATEGY_FUNCTIONAL,
    STRATEGY_SQL,
    xml_transform,
)
from repro.rdb import Database, INT
from repro.rdb.storage import ClobStorage, ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document

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
        serialized markup strings; functional rows stay nodes."""
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
        assert all(hasattr(item, "kind")
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
