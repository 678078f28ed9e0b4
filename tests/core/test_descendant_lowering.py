"""Descendant-axis lowering in the SQL merge (``//name`` → child hops).

When the inferred view schema gives a *unique* root-to-name path, the
rewriter expands ``//name`` (and ``descendant::name``) into plain child
steps, so the descendant axis costs exactly what the explicit path
costs — no functional fallback, no runtime tree walk.  Zero or multiple
candidate paths must refuse the rewrite (the front door then falls back).
"""

import pytest

from repro.core.pipeline import XsltRewriter
from repro.errors import RewriteError
from repro.rdb import Filter, Query, Scan
from repro.rdb.expressions import ScalarSubquery, col, eq
from repro.rdb.sqlxml import XMLAgg, XMLElement
from repro.xmlmodel import serialize
from repro.xmlmodel.nodes import Node

from .paper_example import dept_emp_view_query, make_database

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'

DESCENDANT_SHEET = """<xsl:stylesheet version="1.0" %s>
<xsl:template match="dept">
<out><xsl:apply-templates select="%s"/></out>
</xsl:template>
<xsl:template match="emp">
<e><xsl:value-of select="ename"/>:<xsl:value-of select=".//sal"/></e>
</xsl:template>
</xsl:stylesheet>""" % (XSL, "%s")


def rewrite(select):
    return XsltRewriter().rewrite_view(
        DESCENDANT_SHEET % select, dept_emp_view_query())


def markup(value):
    if isinstance(value, list):
        return "".join(
            serialize(item) if isinstance(item, Node) else str(item)
            for item in value)
    return serialize(value) if isinstance(value, Node) else str(value)


def ambiguous_view_query():
    """A view where <name> occurs both under dept and under emp."""
    emp_agg = Query(
        Filter(Scan("emp"), eq(col("deptno", "emp"), col("deptno", "dept"))),
        [(None, XMLAgg(XMLElement(
            "emp", XMLElement("name", col("ename", "emp")))))],
    )
    content = XMLElement(
        "dept",
        XMLElement("name", col("dname", "dept")),
        XMLElement("employees", ScalarSubquery(emp_agg)),
    )
    return Query(Scan("dept"), [("dept_content", content)])


class TestDescendantLowering:
    def test_double_slash_lowered_to_child_steps(self):
        db = make_database()
        outcome = rewrite("//emp")
        rows, _ = db.execute(outcome.sql_query)
        assert markup(rows[0][0]) == \
            "<out><e>CLARK:2450</e><e>MILLER:1300</e></out>"
        assert markup(rows[1][0]) == "<out><e>SMITH:4900</e></out>"

    def test_lowered_sql_is_pure_generation(self):
        outcome = rewrite("//emp")
        sql = outcome.sql_text()
        assert "XMLAgg" in sql and "FROM EMP" in sql
        assert "XMLQuery" not in sql and "XMLTransform" not in sql

    def test_explicit_descendant_axis(self):
        db = make_database()
        outcome = rewrite("descendant::emp")
        rows, _ = db.execute(outcome.sql_query)
        assert markup(rows[1][0]) == "<out><e>SMITH:4900</e></out>"

    def test_matches_explicit_path(self):
        db = make_database()
        lowered, _ = db.execute(rewrite("//emp").sql_query)
        explicit, _ = db.execute(rewrite("employees/emp").sql_query)
        assert [markup(row[0]) for row in lowered] == \
            [markup(row[0]) for row in explicit]

    def test_absent_name_refused(self):
        sheet = """<xsl:stylesheet version="1.0" %s>
<xsl:template match="dept"><n><xsl:value-of select="//bonus"/></n>
</xsl:template></xsl:stylesheet>""" % XSL
        with pytest.raises(RewriteError, match="no descendant"):
            XsltRewriter().rewrite_view(sheet, dept_emp_view_query())

    def test_ambiguous_name_refused(self):
        sheet = """<xsl:stylesheet version="1.0" %s>
<xsl:template match="dept"><n><xsl:value-of select="//name"/></n>
</xsl:template></xsl:stylesheet>""" % XSL
        with pytest.raises(RewriteError, match="ambiguous"):
            XsltRewriter().rewrite_view(sheet, ambiguous_view_query())
