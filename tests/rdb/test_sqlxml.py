"""Tests for SQL/XML publishing functions and XMLType views —
reproducing the paper's Tables 3, 4 and 7 as executable checks."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.errors import DatabaseError
from repro.rdb import INT, TEXT, Database, ExecutionStats, Filter, Query, Scan
from repro.rdb.binding import Binder, Layout
from repro.rdb.expressions import (
    CaseWhen,
    ScalarSubquery,
    col,
    concat,
    const,
    and_,
    eq,
    gt,
)
from repro.rdb.sqlxml import (
    AggCall,
    Markup,
    XMLAgg,
    XMLComment,
    XMLConcat,
    XMLElement,
    XMLForest,
    _render,
    content_markup,
)
from repro.xmlmodel import parse_document, parse_fragment


def dept_emp_view_query():
    """The paper's Table 3 view definition, programmatically."""
    emp_agg = Query(
        Filter(
            Scan("emp"),
            eq(col("deptno", "emp"), col("deptno", "dept")),
        ),
        [(None, XMLAgg(XMLElement(
            "emp",
            XMLElement("empno", col("empno", "emp")),
            XMLElement("ename", col("ename", "emp")),
            XMLElement("sal", col("sal", "emp")),
        )))],
    )
    dept_content = XMLElement(
        "dept",
        XMLElement("dname", col("dname", "dept")),
        XMLElement("loc", col("loc", "dept")),
        XMLElement("employees", ScalarSubquery(emp_agg)),
    )
    return Query(Scan("dept"), [("dept_content", dept_content)])


class TestXmlElement:
    def test_simple_element(self, db):
        query = Query(Scan("dept"), [(None, XMLElement("d", col("dname")))])
        rows, _ = db.execute(query)
        assert rows[0][0] == "<d>ACCOUNTING</d>"

    def test_attributes(self, db):
        query = Query(
            Scan("dept"),
            [(None, XMLElement("d", attributes=[("no", col("deptno"))]))],
        )
        rows, _ = db.execute(query)
        assert rows[0][0] == '<d no="10"/>'

    def test_null_attribute_omitted(self, db):
        query = Query(
            Scan("dept"),
            [(None, XMLElement("d", attributes=[("x", const(None))]))],
        )
        rows, _ = db.execute(query)
        assert rows[0][0] == "<d/>"

    def test_nested_elements(self, db):
        query = Query(
            Scan("dept"),
            [(None, XMLElement("d", XMLElement("name", col("dname"))))],
        )
        rows, _ = db.execute(query)
        assert rows[0][0] == "<d><name>ACCOUNTING</name></d>"

    def test_mixed_scalar_content(self, db):
        query = Query(
            Scan("dept"),
            [(None, XMLElement("d", const("loc: "), col("loc")))],
        )
        rows, _ = db.execute(query)
        assert rows[0][0] == "<d>loc: NEW YORK</d>"

    def test_integer_content_renders_without_decimal(self, db):
        query = Query(Scan("emp"), [(None, XMLElement("s", col("sal")))])
        rows, _ = db.execute(query)
        assert rows[0][0] == "<s>2450</s>"

    def test_null_content_skipped(self, db):
        query = Query(Scan("dept"), [(None, XMLElement("d", const(None)))])
        rows, _ = db.execute(query)
        assert rows[0][0] == "<d/>"

    def test_to_sql(self):
        expr = XMLElement(
            "H2", concat(const("Department name: "), col("dname", "dept"))
        )
        assert expr.to_sql() == (
            "XMLElement(\"H2\", 'Department name: ' || \"DEPT\".\"DNAME\")"
        )


class TestForestConcatComment:
    def test_xml_forest(self, db):
        query = Query(
            Scan("dept"),
            [(None, XMLForest([("n", col("dname")), ("l", col("loc"))]))],
        )
        rows, _ = db.execute(query)
        assert rows[0][0] == [
            "<n>ACCOUNTING</n>", "<l>NEW YORK</l>",
        ]

    def test_forest_skips_null(self, db):
        query = Query(
            Scan("dept"),
            [(None, XMLForest([("a", const(None)), ("b", col("loc"))]))],
        )
        rows, _ = db.execute(query)
        assert len(rows[0][0]) == 1

    def test_xml_concat(self, db):
        query = Query(
            Scan("dept"),
            [(None, XMLConcat([
                XMLElement("a", col("dname")),
                XMLElement("b", col("loc")),
            ]))],
        )
        rows, _ = db.execute(query)
        assert content_markup(rows[0][0]) == (
            "<a>ACCOUNTING</a><b>NEW YORK</b>"
        )

    def test_xml_comment(self, db):
        query = Query(Scan("dept"), [(None, XMLComment(col("dname")))])
        rows, _ = db.execute(query)
        assert rows[0][0] == "<!--ACCOUNTING-->"


class TestXmlAgg:
    def test_xmlagg_collects_group(self, db):
        inner = Query(
            Filter(Scan("emp"), eq(col("deptno", "emp"), col("deptno", "dept"))),
            [(None, XMLAgg(XMLElement("e", col("ename", "emp"))))],
        )
        query = Query(Scan("dept"), [(None, ScalarSubquery(inner))])
        rows, _ = db.execute(query)
        first = content_markup(rows[0][0])
        assert first == "<e>CLARK</e><e>MILLER</e>"

    def test_xmlagg_order_by(self, db):
        inner = Query(
            Scan("emp"),
            [(None, XMLAgg(
                XMLElement("e", col("ename", "emp")),
                order_by=[(col("sal", "emp"), True)],
            ))],
        )
        rows, _ = db.execute(inner)
        names = [node.string_value() for node in
                 parse_fragment(content_markup(rows[0][0])).children]
        assert names == ["SMITH", "CLARK", "MILLER"]

    def test_aggregate_outside_aggregate_query_rejected(self, db):
        query = Query(Scan("emp"), [(None, col("sal"))])
        bad = XMLAgg(XMLElement("x", const(1)))
        with pytest.raises(DatabaseError):
            bad.evaluate({}, db, None)

    def test_agg_call_and_xmlagg_together(self, db):
        query = Query(
            Scan("emp"),
            [("n", AggCall("COUNT")),
             ("xml", XMLAgg(XMLElement("e", col("empno", "emp"))))],
        )
        rows, _ = db.execute(query)
        count, nodes = rows[0]
        assert count == 3.0
        assert len(nodes) == 3


class TestDeptEmpView:
    def test_table4_row_content(self, db):
        rows, _ = db.execute(dept_emp_view_query())
        assert len(rows) == 2
        first = content_markup(rows[0][0])
        assert first == (
            "<dept><dname>ACCOUNTING</dname><loc>NEW YORK</loc>"
            "<employees>"
            "<emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>"
            "<emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>"
            "</employees></dept>"
        )
        second = content_markup(rows[1][0])
        assert "<emp><empno>7954</empno><ename>SMITH</ename><sal>4900</sal></emp>" in second

    def test_view_registration(self, db):
        view = db.create_view("dept_emp", dept_emp_view_query())
        assert db.view("dept_emp") is view
        name, expr = view.xml_output
        assert name == "dept_content"
        assert isinstance(expr, XMLElement)

    def test_table7_rewritten_query_uses_index(self, db):
        """The paper's Table 7: the rewritten query probes the sal index."""
        db.create_index("emp", "sal")
        emp_rows = Query(
            Filter(
                Scan("emp"),
                and_(
                    gt(col("sal", "emp"), const(2000)),
                    eq(col("deptno", "emp"), col("deptno", "dept")),
                ),
            ),
            [(None, XMLAgg(XMLElement(
                "tr",
                XMLElement("td", col("empno", "emp")),
                XMLElement("td", col("ename", "emp")),
                XMLElement("td", col("sal", "emp")),
            )))],
        )
        query = Query(
            Scan("dept"),
            [(None, XMLConcat([
                XMLElement("H1", const("HIGHLY PAID DEPT EMPLOYEES")),
                XMLElement("H2", concat(const("Department name: "),
                                        col("dname", "dept"))),
                XMLElement("H2", concat(const("Department location: "),
                                        col("loc", "dept"))),
                ScalarSubquery(emp_rows),
            ]))],
        )
        optimized = db.optimize(query, decorrelate=False)
        rows, stats = optimized.execute(db)
        assert stats.index_probes == 2      # one probe per dept row
        # 2 dept rows + per dept the 2 emp rows with sal > 2000 fetched via
        # the index (the deptno residual filters after the fetch); MILLER's
        # row is never read.
        assert stats.rows_scanned == 2 + 4
        output = content_markup(rows[0][0])
        assert "<tr><td>7782</td><td>CLARK</td><td>2450</td></tr>" in output
        assert "MILLER" not in output
        # decorrelated by default: identical markup, no per-row subqueries
        rows, stats = db.execute(query)
        assert stats.subquery_executions == 0
        assert content_markup(rows[0][0]) == output


class TestViewStructureInference:
    def test_dept_emp_structure(self, db):
        from repro.rdb.infer import infer_view_structure

        structure = infer_view_structure(dept_emp_view_query())
        root = structure.schema.root
        assert root.name == "dept"
        assert root.child_names() == ["dname", "loc", "employees"]
        employees = root.particle_for("employees").decl
        assert root.particle_for("employees").occurs == "1"
        assert employees.particle_for("emp").occurs == "*"
        emp = employees.particle_for("emp").decl
        assert emp.child_names() == ["empno", "ename", "sal"]

    def test_unique_parent_of_empno(self, db):
        from repro.rdb.infer import infer_view_structure

        structure = infer_view_structure(dept_emp_view_query())
        # the §3.5 fact: empno's only possible parent is emp
        assert structure.schema.unique_parent("empno") == "emp"

    def test_sources_recorded(self, db):
        from repro.rdb.infer import infer_view_structure

        structure = infer_view_structure(dept_emp_view_query())
        emp_decl = structure.schema.find_decl("emp")
        source = structure.source_of(emp_decl)
        assert source.subquery is not None
        sal_decl = structure.schema.find_decl("sal")
        sal_source = structure.source_of(sal_decl)
        assert sal_source.text_expr is not None
        assert sal_source.text_expr.to_sql() == '"EMP"."SAL"'

    def test_forest_members_optional(self, db):
        from repro.rdb.infer import infer_view_structure

        query = Query(
            Scan("dept"),
            [("x", XMLElement("d", XMLForest([("a", col("dname"))])))],
        )
        structure = infer_view_structure(query)
        assert structure.schema.root.particle_for("a").occurs == "?"

    def test_non_element_output_rejected(self, db):
        from repro.errors import RewriteError
        from repro.rdb.infer import infer_view_structure

        query = Query(Scan("dept"), [("x", col("dname"))])
        with pytest.raises(RewriteError):
            infer_view_structure(query)


#: every kind of value a template leaf can meet
LEAF_VALUES = st.one_of(
    st.none(), st.just(""), st.text(alphabet='<&"\n\t%ab>', max_size=6),
    st.integers(), st.booleans(), st.just(-0.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.just([Markup("<i/>"), Markup("t&amp;")]),
    st.just(parse_document("<n k='1'>x<m/></n>").children[0]),
)

#: leaves: ``a`` (attribute), ``c0`` (content), ``b`` (nested attribute),
#: ``c1`` (nested content), evaluated in that order
NEST = XMLElement(
    "e", col("c0", "t"),
    XMLElement("f", col("c1", "t"), attributes=[("b", col("b", "t"))]),
    const("tail & 100%"),
    attributes=[("a", col("a", "t")), ("k", const("%s"))])


class TestTemplateFastPath:
    @given(st.tuples(LEAF_VALUES, LEAF_VALUES, LEAF_VALUES, LEAF_VALUES))
    def test_the_generated_template_agrees_with_render(self, values):
        """Whatever the leaves hold, the generated function's text and
        element count are ``_render``'s for the same values."""
        c0, a, c1, b = values
        template = NEST.bind(Binder(None),
                             Layout().extend("t", ["c0", "a", "c1", "b"]))
        fast = ExecutionStats()
        text = template((c0, a, c1, b), fast)
        # the template's factory takes its nest as ``_k0``
        nest = dict(zip(template.__code__.co_freevars,
                        (cell.cell_contents
                         for cell in template.__closure__)))["_k0"]
        slow = ExecutionStats()
        assert text == _render(nest, (a, c0, b, c1), slow)
        assert fast.xml_elements == slow.xml_elements == 2


class TestEscapingIsDecidedPerValue:
    """A prepared plan's binding outlives DML (it is checked against the
    catalog and schemas, not the statistics), so whether a value needs
    escaping can only be decided when the value is seen."""

    def test_a_row_inserted_after_compile_comes_out_escaped(self):
        from repro.api import Engine, TransformOptions
        from repro.xsltmark import get_case
        from repro.xsltmark.runner import prepare_case

        case = get_case("avts")
        prepared = prepare_case(case, 3)
        engine = Engine(prepared.db)
        compiled = engine.compile(prepared.storage, case.stylesheet)
        before = engine.execute(prepared.storage, compiled)
        assert before.strategy == "sql-rewrite"
        assert "&amp;" not in before.serialized_rows()[0]

        hostile = '<&"\n\t'
        # $id, $parent, $seq, id, firstname, lastname, street, city,
        # state, zip
        prepared.db.insert("bm_row", (4, 1, 3, 4, "Di", hostile, "1 St",
                                      hostile, "NY", 10111))
        after = engine.execute(prepared.storage, compiled)
        assert compiled.query.runtime.binds == 1
        output = after.serialized_rows()[0]
        assert 'title="&lt;&amp;&quot;&#10;&#9;"' in output
        assert '>&lt;&amp;"\n\t</span>' in output
        functional = engine.transform(
            prepared.storage, case.stylesheet,
            options=TransformOptions(strategy="functional"))
        assert after.serialized_rows() == functional.serialized_rows()


class TestMarkupLeafStaysInTheFormat:
    """A content leaf holding non-empty markup (a ``CaseWhen`` choosing
    between two elements) is passed through by the template's format; an
    empty one still leaves it, so its element self-closes."""

    def test_markup_branches_render_nothing_apart(self):
        db = Database()
        db.create_table("t", [("id", INT), ("v", INT), ("s", TEXT)])
        for row in [(1, 0, None), (2, 5, ""), (3, 9, "x"), (4, 1, "y"),
                    (5, 0, "z")]:
            db.insert("t", row)
        element = XMLElement(
            "r",
            CaseWhen([(gt(col("v", "t"), const(1)),
                       XMLElement("vip", col("id", "t"))),
                      (eq(col("v", "t"), const(0)),
                       XMLConcat([col("s", "t")]))],
                     XMLElement("l")),
            attributes=[("id", col("id", "t"))])
        query = Query(Scan("t"), [("x", element)])
        query.execute(db)
        calls = [0]

        def count(frame, event, arg):
            if event == "call" and frame.f_code is _render.__code__:
                calls[0] += 1

        sys.setprofile(count)
        try:
            rows, _ = query.execute(db)
        finally:
            sys.setprofile(None)
        assert [row[0] for row in rows] == [
            '<r id="1"/>', '<r id="2"><vip>2</vip></r>',
            '<r id="3"><vip>3</vip></r>', '<r id="4"><l/></r>',
            '<r id="5">z</r>']
        # row 1 only: its concat of NULL, and the element holding the empty
        # result (at the parent: one per row besides, 6)
        assert calls[0] == 2
