"""Tests for the SQL text front end."""

import pytest

from repro.errors import CatalogError
from repro.rdb import Database, IndexScan
from repro.rdb.sql_parser import SqlSyntaxError, parse_select, parse_sql
from repro.rdb.sqlxml import content_markup
from repro.xmlmodel import parse_fragment


@pytest.fixture
def db():
    database = Database()
    database.sql("CREATE TABLE dept (deptno INT, dname TEXT, loc TEXT)")
    database.sql(
        "CREATE TABLE emp (empno INT, ename TEXT, job TEXT, sal INT,"
        " deptno INT)"
    )
    database.sql(
        "INSERT INTO dept VALUES (10, 'ACCOUNTING', 'NEW YORK'),"
        " (40, 'OPERATIONS', 'BOSTON')"
    )
    database.sql(
        "INSERT INTO emp VALUES (7782,'CLARK','MANAGER',2450,10),"
        "(7934,'MILLER','CLERK',1300,10),(7954,'SMITH','VP',4900,40)"
    )
    return database


class TestDdlDml:
    def test_create_table_and_insert(self, db):
        rows, _ = db.sql("SELECT dname FROM dept")
        assert [row[0] for row in rows] == ["ACCOUNTING", "OPERATIONS"]

    def test_column_types_applied(self, db):
        assert db.table("emp").schema.column("sal").type == "int"
        assert db.table("emp").schema.column("ename").type == "text"

    def test_varchar_length_spec_swallowed(self):
        database = Database()
        database.sql("CREATE TABLE t (name VARCHAR2(30), n NUMBER)")
        assert database.table("t").schema.column("name").type == "text"

    def test_create_index(self, db):
        db.sql("CREATE INDEX ON emp (sal)")
        assert db.find_index("emp", "sal") is not None

    def test_create_named_index(self, db):
        db.sql("CREATE INDEX sal_idx ON emp (sal)")
        assert db.index("sal_idx") is not None

    def test_insert_null_and_negative(self):
        database = Database()
        database.sql("CREATE TABLE t (a INT, b TEXT)")
        database.sql("INSERT INTO t VALUES (-5, NULL)")
        assert database.table("t").fetch(0) == (-5, None)

    def test_drop_table(self, db):
        db.sql("DROP TABLE emp")
        with pytest.raises(CatalogError):
            db.table("emp")

    def test_string_escape(self):
        database = Database()
        database.sql("CREATE TABLE t (s TEXT)")
        database.sql("INSERT INTO t VALUES ('it''s')")
        assert database.table("t").fetch(0) == ("it's",)


class TestSelect:
    def test_where_and_order_by(self, db):
        rows, _ = db.sql(
            "SELECT ename FROM emp WHERE sal > 2000 ORDER BY sal DESC"
        )
        assert [row[0] for row in rows] == ["SMITH", "CLARK"]

    def test_expressions_and_aliases(self, db):
        rows, _ = db.sql("SELECT ename, sal * 2 AS twice FROM emp WHERE empno = 7782")
        assert rows == [("CLARK", 4900)]

    def test_concat_operator(self, db):
        rows, _ = db.sql(
            "SELECT dname || '/' || loc FROM dept WHERE deptno = 10"
        )
        assert rows == [("ACCOUNTING/NEW YORK",)]

    def test_aggregates(self, db):
        rows, _ = db.sql("SELECT COUNT(*), SUM(sal), MAX(sal) FROM emp")
        assert rows == [(3.0, 8650.0, 4900)]

    def test_case_when(self, db):
        rows, _ = db.sql(
            "SELECT CASE WHEN sal > 2000 THEN 'high' ELSE 'low' END FROM emp"
            " ORDER BY empno"
        )
        assert [row[0] for row in rows] == ["high", "low", "high"]

    def test_join_with_where(self, db):
        rows, _ = db.sql(
            "SELECT d.dname, e.ename FROM dept d, emp e"
            " WHERE d.deptno = e.deptno AND e.sal > 2000 ORDER BY e.empno"
        )
        assert rows == [("ACCOUNTING", "CLARK"), ("OPERATIONS", "SMITH")]

    def test_correlated_scalar_subquery(self, db):
        rows, _ = db.sql(
            "SELECT dname, (SELECT COUNT(*) FROM emp e"
            " WHERE e.deptno = d.deptno) FROM dept d"
        )
        assert rows == [("ACCOUNTING", 2.0), ("OPERATIONS", 1.0)]

    def test_is_null(self, db):
        db.sql("CREATE TABLE n (v INT)")
        db.sql("INSERT INTO n VALUES (1), (NULL)")
        rows, _ = db.sql("SELECT COUNT(*) FROM n WHERE v IS NULL")
        assert rows == [(1.0,)]
        rows, _ = db.sql("SELECT COUNT(*) FROM n WHERE v IS NOT NULL")
        assert rows == [(1.0,)]

    def test_parsed_query_is_optimizable(self, db):
        db.sql("CREATE INDEX ON emp (sal)")
        query = parse_select("SELECT ename FROM emp WHERE sal > 2000")
        optimized = db.optimize(query)
        assert isinstance(optimized.plan, IndexScan)

    def test_comments_ignored(self, db):
        rows, _ = db.sql(
            "SELECT dname -- the department name\n"
            "FROM dept /* both of them */ ORDER BY deptno"
        )
        assert len(rows) == 2

    def test_scalar_functions(self, db):
        rows, _ = db.sql(
            "SELECT UPPER('x'), LENGTH(dname), SUBSTR(dname, 1, 3)"
            " FROM dept WHERE deptno = 10"
        )
        assert rows == [("X", 10.0, "ACC")]


class TestSqlXml:
    def test_xmlelement_with_attributes(self, db):
        rows, _ = db.sql(
            "SELECT XMLElement(\"d\", XMLAttributes(deptno AS \"no\"), dname)"
            " FROM dept WHERE deptno = 10"
        )
        assert rows[0][0] == '<d no="10">ACCOUNTING</d>'

    def test_xmlforest(self, db):
        rows, _ = db.sql(
            'SELECT XMLForest(dname AS "n", loc AS "l") FROM dept'
            " WHERE deptno = 40"
        )
        assert content_markup(rows[0][0]) == (
            "<n>OPERATIONS</n><l>BOSTON</l>"
        )

    def test_xmlforest_default_names(self, db):
        rows, _ = db.sql(
            "SELECT XMLForest(dname, loc) FROM dept WHERE deptno = 40"
        )
        assert content_markup(rows[0][0]) == (
            "<dname>OPERATIONS</dname><loc>BOSTON</loc>"
        )

    def test_xmlagg_with_order(self, db):
        rows, _ = db.sql(
            'SELECT XMLAgg(XMLElement("e", ename) ORDER BY sal DESC) FROM emp'
        )
        names = [node.string_value() for node in
                 parse_fragment(content_markup(rows[0][0])).children]
        assert names == ["SMITH", "CLARK", "MILLER"]

    def test_paper_table3_view(self, db):
        db.sql(
            'CREATE VIEW dept_emp AS SELECT XMLElement("dept",'
            ' XMLElement("dname", dname), XMLElement("loc", loc),'
            ' XMLElement("employees",'
            "  (SELECT XMLAgg(XMLElement(\"emp\","
            '    XMLElement("empno", empno), XMLElement("ename", ename),'
            '    XMLElement("sal", sal)))'
            "   FROM emp WHERE emp.deptno = dept.deptno))) AS dept_content"
            " FROM dept"
        )
        rows, _ = db.execute(db.view("dept_emp").query)
        first = content_markup(rows[0][0])
        assert first.startswith("<dept><dname>ACCOUNTING</dname>")
        assert "<sal>2450</sal>" in first

    def test_sql_defined_view_feeds_xslt_rewrite(self, db):
        from repro.core import xml_transform
        from tests.core.paper_example import (
            EXAMPLE1_STYLESHEET,
            EXPECTED_ROW1,
        )

        db.sql("CREATE INDEX ON emp (sal)")
        db.sql(
            'CREATE VIEW dept_emp AS SELECT XMLElement("dept",'
            ' XMLElement("dname", dname), XMLElement("loc", loc),'
            ' XMLElement("employees",'
            "  (SELECT XMLAgg(XMLElement(\"emp\","
            '    XMLElement("empno", empno), XMLElement("ename", ename),'
            '    XMLElement("sal", sal)))'
            "   FROM emp WHERE emp.deptno = dept.deptno))) AS dept_content"
            " FROM dept"
        )
        result = xml_transform(db, db.view("dept_emp"), EXAMPLE1_STYLESHEET)
        assert result.strategy == "sql-rewrite"
        assert result.serialized_rows()[0] == EXPECTED_ROW1
        assert result.stats.index_probes == 2

    def test_xmlconcat_and_comment(self, db):
        rows, _ = db.sql(
            'SELECT XMLConcat(XMLElement("a", dname), XMLComment(loc))'
            " FROM dept WHERE deptno = 10"
        )
        assert content_markup(rows[0][0]) == (
            "<a>ACCOUNTING</a><!--NEW YORK-->"
        )


class TestErrors:
    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT",                          # nothing selected
            "SELECT a FROM",                   # no table
            "UPDATE t SET a = 1",              # unsupported statement
            "SELECT a FROM t WHERE",           # dangling where
            "CREATE TABLE t (a BLOB)",         # unknown type
            "INSERT INTO t VALUES (1",         # unterminated
            "SELECT 'oops",                    # unterminated string
            "SELECT a FROM t; SELECT b FROM t",  # two statements
        ],
    )
    def test_syntax_errors(self, statement):
        with pytest.raises(SqlSyntaxError):
            parse_sql(statement)

    def test_keywords_case_insensitive(self, db):
        rows, _ = db.sql("select DNAME from DEPT where DEPTNO = 10")
        assert rows == [("ACCOUNTING",)]
