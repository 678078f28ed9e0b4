"""The central property (DESIGN.md §5): for schema-conforming documents,

    functional XSLT ≡ generated XQuery ≡ merged SQL/XML plan

checked over randomly generated dept/emp-style data and a pool of
stylesheets covering the rewrite's supported feature mix."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partial_eval import partially_evaluate
from repro.core.pipeline import XsltRewriter
from repro.core.xquery_gen import generate_xquery
from repro.rdb import Database, INT
from repro.rdb.sqlxml import row_items
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document, serialize, serialize_children
from repro.xmlmodel.builder import TreeBuilder
from repro.xquery.evaluator import evaluate_module, sequence_to_document
from repro.xslt import compile_stylesheet, transform

DTD = """
<!ELEMENT dept (dname, loc, employees)>
<!ELEMENT dname (#PCDATA)>
<!ELEMENT loc (#PCDATA)>
<!ELEMENT employees (emp*)>
<!ELEMENT emp (empno, ename, sal)>
<!ELEMENT empno (#PCDATA)>
<!ELEMENT ename (#PCDATA)>
<!ELEMENT sal (#PCDATA)>
"""

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'

STYLESHEETS = [
    # value predicate + inlined templates (the paper's example shape)
    '<xsl:template match="dept"><d><xsl:apply-templates/></d></xsl:template>'
    '<xsl:template match="dname"><n><xsl:value-of select="."/></n></xsl:template>'
    '<xsl:template match="loc"><l><xsl:value-of select="."/></l></xsl:template>'
    '<xsl:template match="employees">'
    '<xsl:apply-templates select="emp[sal &gt; 500]"/></xsl:template>'
    '<xsl:template match="emp"><e><xsl:value-of select="ename"/>:'
    '<xsl:value-of select="sal"/></e></xsl:template>',
    # aggregates and conditionals
    '<xsl:template match="dept">'
    '<s><xsl:value-of select="sum(employees/emp/sal)"/></s>'
    '<c><xsl:value-of select="count(employees/emp)"/></c>'
    '<xsl:if test="count(employees/emp) &gt; 2"><big/></xsl:if>'
    "</xsl:template>",
    # sorting
    '<xsl:template match="dept">'
    '<xsl:for-each select="employees/emp">'
    '<xsl:sort select="sal" data-type="number" order="descending"/>'
    '<r><xsl:value-of select="empno"/></r></xsl:for-each></xsl:template>',
    # AVTs and copy-of
    '<xsl:template match="dept"><out name="{dname}">'
    '<xsl:copy-of select="employees/emp"/></out></xsl:template>',
    # empty stylesheet: built-in templates only
    "",
    # choose / variables
    '<xsl:template match="dept">'
    '<xsl:variable name="n" select="count(employees/emp)"/>'
    '<xsl:choose><xsl:when test="$n = 0"><none/></xsl:when>'
    '<xsl:otherwise><some n="{$n}"/></xsl:otherwise></xsl:choose>'
    "</xsl:template>",
]

name_text = st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=8)
salaries = st.integers(min_value=0, max_value=5000)


@st.composite
def dept_documents(draw):
    builder = TreeBuilder()
    builder.start_element("dept")
    for leaf, value in (("dname", draw(name_text)), ("loc", draw(name_text))):
        builder.start_element(leaf)
        builder.text(value)
        builder.end_element()
    builder.start_element("employees")
    for index in range(draw(st.integers(0, 6))):
        builder.start_element("emp")
        for leaf, value in (
            ("empno", str(1000 + index)),
            ("ename", draw(name_text)),
            ("sal", str(draw(salaries))),
        ):
            builder.start_element(leaf)
            builder.text(value)
            builder.end_element()
        builder.end_element()
    builder.end_element()
    builder.end_element()
    return builder.finish()


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


_MODULES = {}


def module_for(body):
    if body not in _MODULES:
        compiled = compile_stylesheet(sheet(body))
        partial = partially_evaluate(compiled, schema_from_dtd(DTD))
        _MODULES[body] = (compiled, generate_xquery(partial))
    return _MODULES[body]


def row_markup(value):
    """A row's value as text: constructed XML is markup already."""
    return "".join(_atom(item) for item in row_items(value))


def _atom(value):
    if value is None:
        return ""
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


class TestVmXQueryEquivalence:
    @pytest.mark.parametrize("body", STYLESHEETS, ids=range(len(STYLESHEETS)))
    @given(document=dept_documents())
    @settings(max_examples=25, deadline=None)
    def test_vm_equals_generated_xquery(self, body, document):
        compiled, module = module_for(body)
        vm_out = serialize_children(transform(compiled, document))
        xq_out = serialize_children(
            sequence_to_document(evaluate_module(module, document))
        )
        assert xq_out == vm_out


class TestSqlEquivalence:
    @pytest.mark.parametrize("body", STYLESHEETS, ids=range(len(STYLESHEETS)))
    @given(documents=st.lists(dept_documents(), min_size=1, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_vm_equals_merged_sql(self, body, documents):
        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(DTD), "p",
            column_types={"sal": INT, "empno": INT},
        )
        for document in documents:
            storage.load(document)
        storage.create_value_index("sal")
        outcome = XsltRewriter().rewrite_view(
            compile_stylesheet(sheet(body)), storage.make_view_query()
        )
        rows, _ = db.execute(outcome.sql_query)
        compiled = compile_stylesheet(sheet(body))
        for row, document in zip(rows, documents):
            vm_out = serialize_children(transform(compiled, document))
            assert row_markup(row[0]) == vm_out


class TestConservativeness:
    """Partial evaluation must trace a superset of what can fire."""

    @given(document=dept_documents())
    @settings(max_examples=25, deadline=None)
    def test_fired_templates_subset_of_traced(self, document):
        from repro.xslt import XsltVM
        from repro.xslt.trace import TraceRecorder

        body = STYLESHEETS[0]
        compiled = compile_stylesheet(sheet(body))
        partial = partially_evaluate(compiled, schema_from_dtd(DTD))
        trace = TraceRecorder()
        vm = XsltVM(compiled, trace=trace)
        vm.transform_document(document)
        fired = trace.instantiated_templates()
        assert fired <= partial.instantiated_templates


class TestStorageRoundTripProperty:
    @given(document=dept_documents())
    @settings(max_examples=25, deadline=None)
    def test_shred_materialize_roundtrip(self, document):
        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(DTD), "rt", column_types={"sal": INT}
        )
        doc_id = storage.load(document)
        assert serialize(storage.materialize(doc_id)) == serialize(document)

    @given(document=dept_documents())
    @settings(max_examples=20, deadline=None)
    def test_reconstruction_view_equals_original(self, document):
        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(DTD), "rv", column_types={"sal": INT}
        )
        storage.load(document)
        rows, _ = db.execute(storage.make_view_query())
        assert row_markup(rows[0][0]) == serialize(document)
