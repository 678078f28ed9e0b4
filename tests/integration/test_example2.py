"""Integration test: the paper's example 2 (Tables 9–11) — combined
optimisation of an XQuery over an XSLT view."""

import pytest

from tests.core.paper_example import (
    EXAMPLE1_STYLESHEET,
    dept_emp_view_query,
    make_database,
)

from repro.api import TransformOptions
from repro.core import rewrite_combined, rewrite_xquery_over_view
from repro.core.pipeline import XsltRewriter
from repro.rdb.sqlxml import content_markup as row_markup
from repro.xmlmodel import serialize

FUNCTIONAL = TransformOptions(strategy="functional")

# Table 10: the user XQuery over the XSLT view's result.
USER_XQUERY = "for $tr in ./table/tr return $tr"


class TestExample2Combined:
    def test_table11_sql(self):
        combined, _ = rewrite_combined(
            EXAMPLE1_STYLESHEET, dept_emp_view_query(), USER_XQUERY
        )
        sql = combined.to_sql()
        # Table 11, verbatim shape: a single correlated XMLAgg subquery
        # over emp with both predicates, selected per dept row.
        assert sql == (
            'SELECT (SELECT XMLAgg(XMLElement("tr", '
            'XMLElement("td", "EMP"."EMPNO"), '
            'XMLElement("td", "EMP"."ENAME"), '
            'XMLElement("td", "EMP"."SAL"))) '
            'FROM EMP WHERE "EMP"."DEPTNO" = "DEPT"."DEPTNO" '
            'AND "EMP"."SAL" > 2000) FROM DEPT'
        )

    def test_combined_results(self):
        db = make_database()
        combined, _ = rewrite_combined(
            EXAMPLE1_STYLESHEET, dept_emp_view_query(), USER_XQUERY
        )
        rows, _ = db.execute(combined)
        assert [row_markup(r[0]) for r in rows] == [
            "<tr><td>7782</td><td>CLARK</td><td>2450</td></tr>",
            "<tr><td>7954</td><td>SMITH</td><td>4900</td></tr>",
        ]

    def test_combined_uses_index(self):
        db = make_database()
        db.create_index("emp", "sal")
        combined, _ = rewrite_combined(
            EXAMPLE1_STYLESHEET, dept_emp_view_query(), USER_XQUERY
        )
        _, stats = db.execute(combined)
        # one probe for the decorrelated build (was one per dept row)
        assert stats.index_probes == 1
        assert stats.index_entries == 2

    def test_combined_matches_two_step_evaluation(self):
        """The optimal query must produce what evaluating the XQuery over
        the materialised XSLT output would."""
        db = make_database()
        from repro.core import xml_transform
        from repro.xquery import evaluate_xquery
        from repro.xmlmodel.builder import TreeBuilder

        combined, _ = rewrite_combined(
            EXAMPLE1_STYLESHEET, dept_emp_view_query(), USER_XQUERY
        )
        combined_rows, _ = db.execute(combined)

        functional = xml_transform(
            db, dept_emp_view_query(), EXAMPLE1_STYLESHEET, options=FUNCTIONAL
        )
        expected = []
        for row in functional.rows:
            builder = TreeBuilder()
            for item in row:
                builder.copy_node(item)
            fragment = builder.finish()
            sequence = evaluate_xquery(USER_XQUERY, fragment)
            expected.append("".join(serialize(node) for node in sequence))
        assert [row_markup(r[0]) for r in combined_rows] == expected

    def test_xquery_over_plain_view(self):
        """The generic XMLQuery() rewrite over a (non-XSLT) XMLType view."""
        db = make_database()
        query = rewrite_xquery_over_view(
            "for $e in ./dept/employees/emp return $e/ename",
            dept_emp_view_query(),
        )
        rows, _ = db.execute(query)
        texts = [row_markup(r[0]) for r in rows]
        assert texts == [
            "<ename>CLARK</ename><ename>MILLER</ename>",
            "<ename>SMITH</ename>",
        ]

    def test_user_predicate_pushed_down(self):
        db = make_database()
        db.create_index("emp", "sal")
        query = rewrite_xquery_over_view(
            "for $e in ./dept/employees/emp[sal > 2000] return $e/empno",
            dept_emp_view_query(),
        )
        rows, stats = db.execute(query)
        # one probe for the decorrelated build (was one per dept row)
        assert stats.index_probes == 1
        assert stats.index_entries == 2
        assert [row_markup(r[0]) for r in rows] == [
            "<empno>7782</empno>", "<empno>7954</empno>",
        ]
