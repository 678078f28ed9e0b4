#!/usr/bin/env python
"""Quickstart: the paper's example 1, end to end.

Creates the dept/emp tables (Tables 1–2), the dept_emp SQL/XML view
(Table 3), and applies the Table-5 stylesheet through ``Engine`` —
first with the XSLT rewrite (partial evaluation → XQuery → SQL/XML), then
functionally — showing the generated XQuery (Table 8), the merged SQL
(Table 7), the transformation results (Table 6), and the execution
statistics that make the rewrite fast.

Run:  python examples/quickstart.py
"""

from repro import Engine, TransformOptions
from repro.rdb import Database

STYLESHEET = """<?xml version="1.0"?><xsl:stylesheet version="1.0"
 xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept">
<H1>HIGHLY PAID DEPT EMPLOYEES</H1>
<xsl:apply-templates/>
</xsl:template>
<xsl:template match="dname">
<H2>Department name: <xsl:value-of select="."/></H2>
</xsl:template>
<xsl:template match="loc">
<H2>Department location: <xsl:value-of select="."/></H2>
</xsl:template>
<xsl:template match="employees">
<H2>Employees Table</H2>
<table border="2">
<td><b>EmpNo</b></td>
<td><b>Name</b></td>
<td><b>Weekly Salary</b></td>
<xsl:apply-templates select="emp[sal &gt; 2000]"/>
</table>
</xsl:template>
<xsl:template match="emp">
<tr>
<td><xsl:value-of select="empno"/></td>
<td><xsl:value-of select="ename"/></td>
<td><xsl:value-of select="sal"/></td>
</tr>
</xsl:template>
<xsl:template match="text()">
<xsl:value-of select="."/>
</xsl:template>
</xsl:stylesheet>"""


def build_database():
    """Tables 1 and 2, plus the sal index, in plain SQL."""
    db = Database()
    db.sql("CREATE TABLE dept (deptno INT, dname TEXT, loc TEXT)")
    db.sql(
        "CREATE TABLE emp (empno INT, ename TEXT, job TEXT, sal INT,"
        " deptno INT)"
    )
    db.sql(
        "INSERT INTO dept VALUES (10, 'ACCOUNTING', 'NEW YORK'),"
        " (40, 'OPERATIONS', 'BOSTON')"
    )
    db.sql(
        "INSERT INTO emp VALUES"
        " (7782, 'CLARK', 'MANAGER', 2450, 10),"
        " (7934, 'MILLER', 'CLERK', 1300, 10),"
        " (7954, 'SMITH', 'VP', 4900, 40)"
    )
    db.sql("CREATE INDEX ON emp (sal)")
    return db


def dept_emp_view(db=None):
    """Table 3 — verbatim: the XMLType view over dept and emp."""
    query_db = db or build_database()
    query_db.sql("""
        CREATE VIEW dept_emp AS
        SELECT
          XMLElement("dept",
            XMLElement("dname", dname),
            XMLElement("loc", loc),
            XMLElement("employees",
              (SELECT XMLAgg(XMLElement("emp",
                 XMLElement("empno", empno),
                 XMLElement("ename", ename),
                 XMLElement("sal", sal)))
               FROM emp
               WHERE emp.deptno = dept.deptno))) AS dept_content
        FROM dept
    """)
    return query_db.view("dept_emp").query


def main():
    db = build_database()
    view = dept_emp_view(db)

    print("=" * 72)
    print("XSLT rewrite path (partial evaluation -> XQuery -> SQL/XML)")
    print("=" * 72)
    engine = Engine(db)
    result = engine.transform(view, STYLESHEET)
    print("strategy:", result.strategy)
    print()
    print("--- generated XQuery (paper Table 8) ---")
    print(result.outcome.xquery_text())
    print("--- merged SQL/XML query (paper Table 7) ---")
    print(result.outcome.sql_text())
    print()
    print("--- results (paper Table 6) ---")
    for row in result.serialized_rows(method="html"):
        print(row)
        print()
    print("execution statistics:", result.stats)

    print("=" * 72)
    print("Functional (no-rewrite) path for comparison")
    print("=" * 72)
    functional = engine.transform(
        view, STYLESHEET, options=TransformOptions(strategy="functional"))
    print("strategy:", functional.strategy)
    print("execution statistics:", functional.stats)
    print()
    print("outputs identical:",
          result.serialized_rows() == functional.serialized_rows())


if __name__ == "__main__":
    main()
