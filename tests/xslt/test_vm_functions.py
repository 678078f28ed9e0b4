"""Tests for the VM's XSLT function library corners."""

import pytest

from repro.errors import XsltRuntimeError
from repro.xslt import transform_to_string

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


def run(expr, source="<a/>"):
    body = (
        '<xsl:template match="/"><xsl:value-of select="%s"/></xsl:template>'
        % expr.replace('"', "&quot;")
    )
    return transform_to_string(sheet(body), source)


class TestAvailabilityFunctions:
    def test_element_available_known(self):
        assert run("element-available('xsl:for-each')") == "true"

    def test_element_available_unknown(self):
        assert run("element-available('xsl:frobnicate')") == "false"

    def test_function_available_core(self):
        assert run("function-available('concat')") == "true"

    def test_function_available_xslt(self):
        assert run("function-available('key')") == "true"

    def test_function_available_unknown(self):
        assert run("function-available('made-up')") == "false"

    def test_function_available_fn_prefix(self):
        assert run("function-available('fn:string-join')") == "true"


class TestSystemProperties:
    def test_version(self):
        assert run("system-property('xsl:version')") == "1.0"

    def test_vendor(self):
        assert "xsltvm" in run("system-property('xsl:vendor')")

    def test_unknown_property_empty(self):
        assert run("system-property('xsl:nope')") == ""

    def test_unparsed_entity_uri_empty(self):
        assert run("unparsed-entity-uri('pic')") == ""


#: one generate-id() per node and attribute of the source, space-separated
ALL_IDS = (
    '<xsl:template match="/"><xsl:for-each select="//node() | //@*">'
    '<xsl:value-of select="generate-id()"/><xsl:text> </xsl:text>'
    "</xsl:for-each></xsl:template>"
)


class TestGenerateId:
    def test_empty_node_set_empty_string(self):
        assert run("generate-id(//nothing)") == ""

    def test_no_argument_uses_context(self):
        assert run("generate-id()") != ""

    def test_non_node_set_rejected(self):
        with pytest.raises(XsltRuntimeError):
            run("generate-id('text')")

    def test_distinct_across_siblings(self):
        body = (
            '<xsl:template match="/">'
            '<xsl:value-of select="generate-id(/r/a) != generate-id(/r/b)"/>'
            "</xsl:template>"
        )
        assert transform_to_string(sheet(body), "<r><a/><b/></r>") == "true"

    def test_every_node_and_attribute_of_a_built_document_has_its_own_id(self):
        # TreeBuilder lends an element's order slot to its attributes
        from repro.xmlmodel import TreeBuilder, serialize_children
        from repro.xslt import compile_stylesheet, transform

        builder = TreeBuilder()
        builder.start_element("r")
        builder.attribute("x", "1")
        builder.attribute("y", "2")
        builder.start_element("a")
        builder.attribute("z", "3")
        builder.text("t")
        builder.end_element()
        builder.start_element("b")
        builder.end_element()
        builder.end_element()
        ids = serialize_children(transform(
            compile_stylesheet(sheet(ALL_IDS)), builder.finish())).split()
        assert len(ids) == 7  # r, @x, @y, a, @z, t, b
        assert len(set(ids)) == len(ids)
        # elements and text keep the ids they always had
        assert [ids[0], ids[3], ids[5], ids[6]] == ["id1", "id2", "id3", "id4"]


class TestKeyFunction:
    SOURCE = (
        '<l><i k="x">1</i><i k="y">2</i><i k="x">3</i></l>'
    )

    def test_key_with_node_set_values(self):
        # key() over a node-set argument unions the per-value lookups
        body = (
            '<xsl:key name="by" match="i" use="@k"/>'
            '<xsl:template match="/">'
            "<xsl:for-each select=\"key('by', /l/i/@k)\">"
            '<xsl:value-of select="."/></xsl:for-each></xsl:template>'
        )
        assert transform_to_string(sheet(body), self.SOURCE) == "123"

    def test_key_results_in_document_order(self):
        body = (
            '<xsl:key name="by" match="i" use="@k"/>'
            '<xsl:template match="/">'
            "<xsl:for-each select=\"key('by', 'x')\">"
            '<xsl:value-of select="."/></xsl:for-each></xsl:template>'
        )
        assert transform_to_string(sheet(body), self.SOURCE) == "13"

    def test_key_index_cached_per_document(self):
        from repro.xslt import XsltVM, compile_stylesheet
        from repro.xmlmodel import parse_document

        compiled = compile_stylesheet(sheet(
            '<xsl:key name="by" match="i" use="@k"/>'
            '<xsl:template match="/">'
            "<xsl:value-of select=\"count(key('by', 'x'))\"/>"
            "<xsl:value-of select=\"count(key('by', 'y'))\"/>"
            "</xsl:template>"
        ))
        vm = XsltVM(compiled)
        vm.transform_document(parse_document(self.SOURCE))
        assert len(vm._key_indexes) == 1

    def test_key_index_holds_document_root(self):
        # The cache entry must keep a live reference to the document
        # root: identity-only keys (id(root)) alias a freed document's
        # index onto whatever object reuses its address.
        from repro.xslt import XsltVM, compile_stylesheet
        from repro.xmlmodel import parse_document

        compiled = compile_stylesheet(sheet(
            '<xsl:key name="by" match="i" use="@k"/>'
            '<xsl:template match="/">'
            "<xsl:value-of select=\"count(key('by', 'x'))\"/>"
            "</xsl:template>"
        ))
        vm = XsltVM(compiled)
        document = parse_document(self.SOURCE)
        vm.transform_document(document)
        root, _ = vm._key_indexes["by"]
        assert root is document

    def test_key_index_evicted_with_document(self):
        # Moving to a new document replaces the cached index (no stale
        # per-document entries accumulate), and each document sees only
        # its own matches.
        from repro.xslt import XsltVM, compile_stylesheet
        from repro.xmlmodel import parse_document
        from repro.xmlmodel.serializer import serialize

        compiled = compile_stylesheet(sheet(
            '<xsl:key name="by" match="i" use="@k"/>'
            '<xsl:template match="/">'
            "<xsl:for-each select=\"key('by', 'x')\">"
            '<xsl:value-of select="."/></xsl:for-each></xsl:template>'
        ))
        vm = XsltVM(compiled)

        def result_text(document):
            result = vm.transform_document(document)
            return "".join(serialize(child) for child in result.children)

        doc_one = parse_document(self.SOURCE)
        doc_two = parse_document('<l><i k="x">9</i></l>')
        assert result_text(doc_one) == "13"
        assert result_text(doc_two) == "9"
        assert len(vm._key_indexes) == 1
        cached_root, _ = vm._key_indexes["by"]
        assert cached_root is doc_two
        # returning to the first document rebuilds — never aliases
        assert result_text(doc_one) == "13"


class TestCurrentFunction:
    def test_current_equals_context_at_top_level(self):
        body = (
            '<xsl:template match="r">'
            '<xsl:value-of select="count(current()) = count(.)"/>'
            "</xsl:template>"
        )
        assert transform_to_string(sheet(body), "<r/>") == "true"

    def test_current_differs_inside_predicate(self):
        # select items whose value equals the current row's @want
        source = '<r want="b"><i>a</i><i>b</i></r>'
        body = (
            '<xsl:template match="r">'
            '<xsl:value-of select="i[. = current()/@want]"/>'
            "</xsl:template>"
        )
        assert transform_to_string(sheet(body), source) == "b"


class TestFormatNumberEdge:
    def test_third_argument_accepted(self):
        assert run("format-number(5, '0', 'whatever')") == "5"

    def test_large_grouping(self):
        assert run("format-number(1234567.891, '#,##0.0')") == "1,234,567.9"
