"""Integration test: the paper's example 1 end-to-end (Tables 1–8).

Relational tables → SQL/XML view → XSLT rewrite → XQuery → SQL/XML query,
checked at every stage against the paper's listings.
"""

from tests.core.paper_example import (
    EXAMPLE1_STYLESHEET,
    EXPECTED_ROW1,
    EXPECTED_ROW2,
    dept_emp_view_query,
    make_database,
)

from repro.api import TransformOptions
from repro.core import XsltRewriter, xml_transform
from repro.rdb.infer import infer_view_structure
from repro.xmlmodel import serialize

FUNCTIONAL = TransformOptions(strategy="functional")


class TestExample1EndToEnd:
    def test_table4_view_rows(self):
        """The dept_emp view produces the two Table-4 XML instances."""
        db = make_database()
        rows, _ = db.execute(dept_emp_view_query())
        assert len(rows) == 2
        first = serialize(rows[0][0])
        assert first.startswith("<dept><dname>ACCOUNTING</dname>")
        assert "<emp><empno>7934</empno><ename>MILLER</ename>" in first

    def test_structural_inference_from_view(self):
        """§3.2: structure derived from the relational schema of the view."""
        structure = infer_view_structure(dept_emp_view_query())
        schema = structure.schema
        assert schema.root.name == "dept"
        assert schema.root.group == "sequence"
        assert schema.unique_parent("empno") == "emp"
        employees = schema.root.particle_for("employees").decl
        assert employees.particle_for("emp").occurs == "*"

    def test_table8_xquery(self):
        """The generated XQuery has the Table-8 structure."""
        outcome = XsltRewriter().rewrite_view(
            EXAMPLE1_STYLESHEET, dept_emp_view_query()
        )
        text = outcome.xquery_text()
        assert text.startswith("declare variable $var000 := .;")
        assert "let $var002 := $var000/dept" in text
        assert "emp[sal > 2000]" in text
        assert outcome.inline_mode

    def test_table7_sql(self):
        """The merged SQL consists solely of generation functions and a
        relational predicate — Table 7."""
        outcome = XsltRewriter().rewrite_view(
            EXAMPLE1_STYLESHEET, dept_emp_view_query()
        )
        sql = outcome.sql_text()
        assert sql.startswith("SELECT XMLConcat(")
        assert "XMLElement(\"H1\", 'HIGHLY PAID DEPT EMPLOYEES')" in sql
        assert '"EMP"."SAL" > 2000' in sql
        assert '"EMP"."DEPTNO" = "DEPT"."DEPTNO"' in sql

    def test_table6_results_via_both_strategies(self):
        db = make_database()
        db.create_index("emp", "sal")
        rewritten = xml_transform(db, dept_emp_view_query(), EXAMPLE1_STYLESHEET)
        functional = xml_transform(
            db, dept_emp_view_query(), EXAMPLE1_STYLESHEET, options=FUNCTIONAL
        )
        assert rewritten.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]
        assert functional.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]
        # the decorrelated hash build probes the sal index once in total
        assert rewritten.stats.index_probes == 1
