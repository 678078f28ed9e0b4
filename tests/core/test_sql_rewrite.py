"""Tests for the XQuery → SQL/XML merge (paper §2.1, Tables 7 and 11)."""

import pytest

from repro.api import TransformOptions
from repro.errors import RewriteError
from repro.rdb import IndexScan
from repro.rdb.infer import infer_view_structure
from repro.schema import schema_from_dtd
from repro.xmlmodel import serialize
from repro.xmlmodel.nodes import Node
from repro.xslt import compile_stylesheet
from repro.core.partial_eval import partially_evaluate
from repro.core.pipeline import XsltRewriter
from repro.core.sql_rewrite import rewrite_to_sql
from repro.core.xquery_gen import generate_xquery

from .paper_example import (
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


def row_markup(value):
    if isinstance(value, list):
        return "".join(
            serialize(item) if isinstance(item, Node) else str(item)
            for item in value
        )
    if isinstance(value, Node):
        return serialize(value)
    return "" if value is None else str(value)


def rewrite(stylesheet_text, view_query):
    return XsltRewriter().rewrite_view(stylesheet_text, view_query)


class TestExample1SqlRewrite:
    def test_produces_table6_output(self, paper_db=None):
        db = make_database()
        outcome = rewrite(EXAMPLE1_STYLESHEET, dept_emp_view_query())
        rows, _ = db.execute(outcome.sql_query)
        assert row_markup(rows[0][0]) == EXPECTED_ROW1
        assert row_markup(rows[1][0]) == EXPECTED_ROW2

    def test_sql_contains_no_xml_navigation(self):
        outcome = rewrite(EXAMPLE1_STYLESHEET, dept_emp_view_query())
        sql = outcome.sql_text()
        # Table 7: only generation functions, a plain relational predicate.
        assert "XMLElement" in sql
        assert "XMLAgg" in sql
        assert '"EMP"."SAL" > 2000' in sql
        assert "XMLQuery" not in sql and "XMLTransform" not in sql

    def test_predicate_pushed_to_index(self):
        db = make_database()
        db.create_index("emp", "sal")
        outcome = rewrite(EXAMPLE1_STYLESHEET, dept_emp_view_query())
        optimized = db.optimize(outcome.sql_query)
        rows, stats = optimized.execute(db)
        # decorrelation makes the emp side a build-once grouped aggregate,
        # so the sal residual probes the index a single time in total
        # (under decorrelate=False it would probe once per dept row)
        assert stats.index_probes == 1
        assert stats.index_entries == 2
        assert row_markup(rows[0][0]) == EXPECTED_ROW1

    def test_unnecessary_rows_never_fetched(self):
        db = make_database()
        db.create_index("emp", "sal")
        outcome = rewrite(EXAMPLE1_STYLESHEET, dept_emp_view_query())
        _, stats = db.execute(outcome.sql_query)
        # MILLER (1300) is below the index range: never read from the heap.
        # 2 dept rows + the 2 matching emp rows, fetched once for the
        # decorrelated hash build rather than once per dept row.
        assert stats.rows_scanned == 2 + 2

    def test_rewrite_matches_functional_without_index(self):
        db = make_database()
        view_query = dept_emp_view_query()
        outcome = rewrite(EXAMPLE1_STYLESHEET, view_query)
        sql_rows, _ = db.execute(outcome.sql_query)

        from repro.core.transform import xml_transform

        functional = xml_transform(
            db, view_query, EXAMPLE1_STYLESHEET, options=FUNCTIONAL
        )
        assert [row_markup(r[0]) for r in sql_rows] == (
            functional.serialized_rows()
        )


class TestSqlRewriteShapes:
    def make(self, body):
        view_query = dept_emp_view_query()
        structure = infer_view_structure(view_query)
        compiled = compile_stylesheet(sheet(body))
        pe = partially_evaluate(compiled, structure.schema)
        module = generate_xquery(pe)
        return rewrite_to_sql(module, view_query, structure), view_query

    def run(self, body):
        db = make_database()
        query, _ = self.make(body)
        rows, stats = db.execute(query)
        return [row_markup(row[0]) for row in rows], stats

    def test_leaf_string_becomes_column(self):
        rows, _ = self.run(
            '<xsl:template match="dept"><d><xsl:value-of select="dname"/></d>'
            "</xsl:template>"
        )
        assert rows == ["<d>ACCOUNTING</d>", "<d>OPERATIONS</d>"]

    def test_count_becomes_aggregate_subquery(self):
        query, _ = self.make(
            '<xsl:template match="dept">'
            '<n><xsl:value-of select="count(employees/emp)"/></n>'
            "</xsl:template>"
        )
        assert "COUNT(*)" in query.to_sql()
        db = make_database()
        rows, _ = db.execute(query)
        assert [row_markup(r[0]) for r in rows] == ["<n>2</n>", "<n>1</n>"]

    def test_sum_becomes_aggregate_subquery(self):
        rows, _ = self.run(
            '<xsl:template match="dept">'
            '<s><xsl:value-of select="sum(employees/emp/sal)"/></s>'
            "</xsl:template>"
        )
        assert rows == ["<s>3750</s>", "<s>4900</s>"]

    def test_conditional_becomes_case_when(self):
        query, _ = self.make(
            '<xsl:template match="dept">'
            '<xsl:choose><xsl:when test="count(employees/emp) &gt; 1"><many/></xsl:when>'
            "<xsl:otherwise><few/></xsl:otherwise></xsl:choose>"
            "</xsl:template>"
        )
        assert "CASE WHEN" in query.to_sql()
        db = make_database()
        rows, _ = db.execute(query)
        assert [row_markup(r[0]) for r in rows] == ["<many/>", "<few/>"]

    def test_copy_of_embeds_view_construction(self):
        rows, _ = self.run(
            '<xsl:template match="dept"><xsl:copy-of select="dname"/></xsl:template>'
        )
        assert rows == ["<dname>ACCOUNTING</dname>", "<dname>OPERATIONS</dname>"]

    def test_copy_of_repeating_subtree(self):
        rows, _ = self.run(
            '<xsl:template match="dept">'
            '<xsl:copy-of select="employees/emp"/></xsl:template>'
        )
        assert "CLARK" in rows[0] and "MILLER" in rows[0]
        assert "SMITH" in rows[1]

    def test_builtin_only_string_join(self):
        rows, _ = self.run("")
        # concatenated text of the whole document per row
        assert rows[0] == "ACCOUNTINGNEW YORK7782CLARK24507934MILLER1300"
        assert rows[1] == "OPERATIONSBOSTON7954SMITH4900"

    def test_sorted_iteration(self):
        rows, _ = self.run(
            '<xsl:template match="employees">'
            '<xsl:apply-templates select="emp"><xsl:sort select="ename"'
            ' order="descending"/></xsl:apply-templates></xsl:template>'
            '<xsl:template match="emp"><e><xsl:value-of select="ename"/></e>'
            "</xsl:template>"
        )
        assert rows[0] == "ACCOUNTINGNEW YORK<e>MILLER</e><e>CLARK</e>"

    def test_nested_constructors(self):
        rows, _ = self.run(
            '<xsl:template match="emp">'
            '<row empno="{empno}"><cell><xsl:value-of select="ename"/></cell></row>'
            "</xsl:template>"
        )
        assert '<row empno="7782"><cell>CLARK</cell></row>' in rows[0]

    def test_non_inline_module_rejected(self):
        body = (
            '<xsl:template match="/"><xsl:call-template name="r"/></xsl:template>'
            '<xsl:template name="r">'
            '<xsl:if test="false()"><xsl:call-template name="r"/></xsl:if>'
            "</xsl:template>"
        )
        with pytest.raises(RewriteError):
            self.make(body)


class TestStorageBackedRewrite:
    """The same pipeline over object-relationally stored XMLType."""

    def setup_storage(self):
        from repro.rdb import Database, INT
        from repro.rdb.storage import ObjectRelationalStorage
        from repro.xmlmodel import parse_document
        from .paper_example import DEPT_DTD, DEPT_DOC_1, DEPT_DOC_2

        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(DEPT_DTD), "xd",
            column_types={"sal": INT, "empno": INT},
        )
        storage.load(parse_document(DEPT_DOC_1))
        storage.load(parse_document(DEPT_DOC_2))
        return db, storage

    def test_rewrite_over_reconstruction_view(self):
        db, storage = self.setup_storage()
        view_query = storage.make_view_query()
        outcome = XsltRewriter().rewrite_view(EXAMPLE1_STYLESHEET, view_query)
        rows, _ = db.execute(outcome.sql_query)
        assert row_markup(rows[0][0]) == EXPECTED_ROW1
        assert row_markup(rows[1][0]) == EXPECTED_ROW2

    def test_value_index_used(self):
        db, storage = self.setup_storage()
        storage.create_value_index("sal")
        view_query = storage.make_view_query()
        outcome = XsltRewriter().rewrite_view(EXAMPLE1_STYLESHEET, view_query)
        _, stats = db.execute(outcome.sql_query)
        # one probe for the whole decorrelated hash build
        assert stats.index_probes == 1
        assert stats.index_entries == 2
