"""Unit tests for TreeBuilder and the serializer."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.xmlmodel import (
    NodeKind,
    TreeBuilder,
    doc,
    elem,
    parse_document,
    serialize,
    serialize_children,
    text,
)
from repro.xmlmodel.serializer import escape_attribute, escape_text


class TestTreeBuilder:
    def test_simple_build(self):
        builder = TreeBuilder()
        builder.start_element("dept")
        builder.attribute("deptno", "10")
        builder.start_element("dname")
        builder.text("ACCOUNTING")
        builder.end_element()
        builder.end_element()
        document = builder.finish()
        assert serialize(document) == '<dept deptno="10"><dname>ACCOUNTING</dname></dept>'

    def test_adjacent_text_merged(self):
        builder = TreeBuilder()
        builder.start_element("a")
        builder.text("one")
        builder.text("two")
        builder.end_element()
        document = builder.finish()
        children = document.document_element.children
        assert len(children) == 1
        assert children[0].value == "onetwo"

    def test_empty_text_ignored(self):
        builder = TreeBuilder()
        builder.start_element("a")
        builder.text("")
        builder.end_element()
        assert builder.finish().document_element.children == []

    def test_attribute_after_content_rejected(self):
        builder = TreeBuilder()
        builder.start_element("a")
        builder.text("x")
        with pytest.raises(ReproError):
            builder.attribute("k", "v")

    def test_attribute_at_top_level_rejected(self):
        builder = TreeBuilder()
        with pytest.raises(ReproError):
            builder.attribute("k", "v")

    def test_unbalanced_end_rejected(self):
        builder = TreeBuilder()
        with pytest.raises(ReproError):
            builder.end_element()

    def test_finish_with_open_elements_rejected(self):
        builder = TreeBuilder()
        builder.start_element("a")
        with pytest.raises(ReproError):
            builder.finish()

    def test_document_order_stamped(self):
        builder = TreeBuilder()
        builder.start_element("a")
        builder.start_element("b")
        builder.end_element()
        builder.start_element("c")
        builder.end_element()
        builder.end_element()
        document = builder.finish()
        orders = [n.order for n in document.iter_descendants()]
        assert orders == sorted(orders)

    def test_copy_node_deep(self):
        source = parse_document('<a x="1"><b>t</b><!--c--></a>')
        builder = TreeBuilder()
        builder.start_element("wrap")
        builder.copy_node(source.document_element)
        builder.end_element()
        result = builder.finish()
        assert serialize(result) == '<wrap><a x="1"><b>t</b><!--c--></a></wrap>'

    def test_copy_node_does_not_alias(self):
        source = parse_document("<a><b/></a>")
        builder = TreeBuilder()
        builder.copy_node(source.document_element)
        copied = builder.finish().document_element
        assert copied is not source.document_element
        assert copied.children[0] is not source.document_element.children[0]

    def test_comment_and_pi(self):
        builder = TreeBuilder()
        builder.start_element("a")
        builder.comment("note")
        builder.processing_instruction("t", "d")
        builder.end_element()
        assert serialize(builder.finish()) == "<a><!--note--><?t d?></a>"


class TestXmlSerialization:
    def test_escaping_in_text(self):
        assert serialize(doc(elem("a", "x<y&z>"))) == "<a>x&lt;y&amp;z&gt;</a>"

    def test_escaping_in_attribute(self):
        element = elem("a")
        element.set_attribute("k", 'a"b<c&d')
        assert serialize(doc(element)) == '<a k="a&quot;b&lt;c&amp;d"/>'

    def test_self_closing_empty(self):
        assert serialize(doc(elem("a"))) == "<a/>"

    def test_namespace_declarations(self):
        source = '<p:a xmlns:p="urn:p"><p:b/></p:a>'
        assert serialize(parse_document(source)) == source

    def test_default_namespace_declaration(self):
        source = '<a xmlns="urn:d"/>'
        assert serialize(parse_document(source)) == source

    def test_serialize_children_only(self):
        document = parse_document("<a><b/>text</a>")
        assert serialize_children(document.document_element) == "<b/>text"


class TestHtmlSerialization:
    def test_void_element(self):
        assert serialize(doc(elem("br")), method="html") == "<br>"

    def test_non_void_empty_element_gets_end_tag(self):
        assert serialize(doc(elem("td")), method="html") == "<td></td>"

    def test_table_structure(self):
        tree = doc(elem("table", elem("tr", elem("td", "x")), border="2"))
        assert (
            serialize(tree, method="html")
            == '<table border="2"><tr><td>x</td></tr></table>'
        )

    def test_script_content_not_escaped(self):
        tree = doc(elem("script", "if (a < b) call();"))
        assert serialize(tree, method="html") == "<script>if (a < b) call();</script>"


class TestTextSerialization:
    def test_text_method_is_string_value(self):
        tree = doc(elem("a", elem("b", "one"), text("two")))
        assert serialize(tree, method="text") == "onetwo"

    def test_text_method_ignores_comments(self):
        tree = doc(elem("a", "x"))
        tree.document_element.append(elem("b", "y"))
        assert serialize(tree, method="text") == "xy"


# -- escaping is decided per value ----------------------------------------------


def _full_text_escape(value):
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _full_attribute_escape(value):
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace('"', "&quot;").replace("\n", "&#10;")
            .replace("\t", "&#9;"))


#: the characters escaping replaces, their neighbours, and text outside
#: the basic multilingual plane
_ESCAPABLE = st.text(
    st.one_of(st.sampled_from('&<>"\n\t\r\'; a#\U0001f600é'),
              st.characters()))


@given(_ESCAPABLE)
def test_escaping_equals_the_full_replace_chain(value):
    """The fast path (nothing to escape: the value itself) never
    differs from replacing every special character."""
    assert escape_text(value) == _full_text_escape(value)
    assert escape_attribute(value) == _full_attribute_escape(value)
