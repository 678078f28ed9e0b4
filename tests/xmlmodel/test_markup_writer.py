"""The markup writer against the tree builder.

The XSLT VM writing through :class:`MarkupWriter` must produce exactly
what ``serialize`` makes of the tree it builds through
:class:`TreeBuilder` from the same calls — on the forty XSLTMark cases
and on stylesheets aimed at each rule the writer keeps by itself: the
start tag held open until content, attribute replacement, namespace
order, the escapers, and the errors.
"""

import re

import pytest

from repro.errors import ReproError
from repro.xmlmodel import QName, parse_document, serialize
from repro.xmlmodel.builder import MarkupWriter, TreeBuilder
from repro.xslt import compile_stylesheet
from repro.xslt.vm import XsltVM
from repro.xsltmark.cases import ALL_CASES

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (
        XSL, body)


def both(stylesheet, document):
    """``(serialize(tree), markup)`` of one stylesheet over one document."""
    stylesheet = compile_stylesheet(stylesheet)
    if isinstance(document, str):
        document = parse_document(document)
    tree = serialize(XsltVM(stylesheet).transform_document(document))
    markup = XsltVM(stylesheet).transform_document(
        document, output=MarkupWriter())
    return tree, markup


def raised(stylesheet, document, output):
    with pytest.raises(ReproError) as info:
        XsltVM(compile_stylesheet(stylesheet)).transform_document(
            parse_document(document), output=output)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("rows", [0, 1, 12])
@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_xsltmark_case(case, rows):
    tree, markup = both(case.stylesheet, case.make_document(rows))
    assert markup == tree


ROOT = '<xsl:template match="/">%s</xsl:template>'

#: (stylesheet body, source document, the markup both must write)
TARGETED = {
    "duplicate_attribute_replaced_in_place": (
        ROOT % '<out a="1" b="2"><xsl:attribute name="c">3</xsl:attribute>'
               '<xsl:attribute name="a">4</xsl:attribute></out>',
        "<r/>", '<out a="4" b="2" c="3"/>'),
    "replacing_attribute_keeps_the_first_prefix": (
        ROOT % '<out><xsl:copy-of select="r/s/@*"/>'
               '<xsl:copy-of select="r/t/@*"/></out>',
        '<r xmlns:p="urn:x" xmlns:q="urn:x"><s p:a="1"/><t q:a="2"/></r>',
        '<out p:a="2"/>'),
    "empty_value_of_self_closes": (
        ROOT % '<out><e><xsl:value-of select="\'\'"/></e>'
               '<xsl:value-of select="r/missing"/></out>',
        "<r/>", "<out><e/></out>"),
    "comment_only": (
        ROOT % "<out><xsl:comment>c--</xsl:comment></out>",
        "<r/>", "<out><!--c- - --></out>"),
    "empty_comment_is_content": (
        ROOT % "<out><xsl:comment/></out>", "<r/>", "<out><!----></out>"),
    "pi_only": (
        ROOT % '<out><xsl:processing-instruction name="p">v?&gt;'
               "</xsl:processing-instruction></out>",
        "<r/>", "<out><?p v? >?></out>"),
    "literal_namespaces_sorted_before_attributes": (
        ROOT % '<out z="1" xmlns:b="urn:b" xmlns:a="urn:a"><in/></out>',
        "<r/>",
        '<out xmlns:a="urn:a" xmlns:b="urn:b" z="1"><in/></out>'),
    "copy_of_an_attribute": (
        ROOT % '<out><xsl:copy-of select="r/@a"/>x</out>',
        '<r a="&quot;1&amp;"/>', '<out a="&quot;1&amp;">x</out>'),
    "copy_of_the_root": (
        ROOT % '<out><xsl:copy-of select="/"/></out>',
        '<r a="1"><!--c--><?p v?>t<e/></r>',
        '<out><r a="1"><!--c--><?p v?>t<e/></r></out>'),
    "copy_of_a_result_tree_fragment": (
        '<xsl:variable name="v"><e a="1">t<f/></e>u</xsl:variable>'
        + ROOT % '<out><xsl:copy-of select="$v"/></out>',
        "<r/>", '<out><e a="1">t<f/></e>u</out>'),
    "copy_of_every_node_kind": (
        '<xsl:template match="@*|node()"><xsl:copy>'
        '<xsl:apply-templates select="@*|node()"/></xsl:copy>'
        "</xsl:template>",
        '<r xmlns:n="urn:n" a="1"><n:e n:b="2"/>t<!--c--><?p v?><f/></r>',
        '<r xmlns:n="urn:n" a="1"><n:e n:b="2"/>t<!--c--><?p v?><f/></r>'),
    "copy_of_the_document_node": (
        '<xsl:template match="/"><xsl:copy><out/></xsl:copy>'
        "</xsl:template>", "<r/>", "<out/>"),
    "special_characters_escaped": (
        ROOT % '<out a="{r}"><xsl:value-of select="r"/></out>',
        '<r>a&amp;b&lt;c&gt;d"e</r>',
        '<out a="a&amp;b&lt;c>d&quot;e">a&amp;b&lt;c&gt;d"e</out>'),
    "top_level_text_and_comment": (
        ROOT % "<xsl:text>a&lt;</xsl:text><xsl:comment>c</xsl:comment><e/>",
        "<r/>", "a&lt;<!--c--><e/>"),
}


@pytest.mark.parametrize("name", sorted(TARGETED))
def test_targeted(name):
    body, document, expected = TARGETED[name]
    tree, markup = both(sheet(body), document)
    assert tree == expected
    assert markup == expected


@pytest.mark.parametrize("body, message", [
    (ROOT % '<out>x<xsl:attribute name="a">1</xsl:attribute></out>',
     "written after child content"),
    (ROOT % '<out><e/><xsl:attribute name="a">1</xsl:attribute></out>',
     "written after child content"),
    (ROOT % '<xsl:attribute name="a">1</xsl:attribute>',
     "attribute written outside an element"),
    (ROOT % '<out/><xsl:attribute name="a">1</xsl:attribute>',
     "attribute written outside an element"),
])
def test_misplaced_attribute_raises_the_same_error(body, message):
    tree = raised(sheet(body), "<r/>", TreeBuilder())
    assert message in tree[1]
    assert raised(sheet(body), "<r/>", MarkupWriter()) == tree


class TestHandlerCalls:
    """The same calls on both handlers, outside the VM."""

    @staticmethod
    def drive(output, calls):
        for name, *args in calls:
            getattr(output, name)(*args)
        return output.finish()

    def test_string_and_qname_attribute_names_are_one_name(self):
        calls = [("start_element", "e"), ("attribute", "a", "1"),
                 ("attribute", QName("a"), "2"), ("text", ""),
                 ("attribute", "b", "3"), ("end_element",)]
        tree = serialize(self.drive(TreeBuilder(), calls))
        assert tree == '<e a="2" b="3"/>'
        assert self.drive(MarkupWriter(), calls) == tree

    @pytest.mark.parametrize("calls, message", [
        ([("end_element",)], "end_element with no open element"),
        ([("start_element", "e")], "1 element(s) left open"),
    ])
    def test_unbalanced_calls_raise_the_same_error(self, calls, message):
        for output in (TreeBuilder(), MarkupWriter()):
            with pytest.raises(ReproError, match=re.escape(message)):
                self.drive(output, calls)
