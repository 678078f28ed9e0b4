"""Unit tests for the from-scratch XML parser."""

import pytest

from repro.errors import XmlSyntaxError
from repro.xmlmodel import NodeKind, parse_document, parse_fragment, serialize
from repro.xmlmodel.stream_ingest import MAX_ELEMENT_DEPTH, stream_events


class TestBasicParsing:
    def test_single_element(self):
        document = parse_document("<a/>")
        assert document.document_element.name.local == "a"

    def test_nested_elements(self):
        document = parse_document("<a><b><c/></b></a>")
        a = document.document_element
        assert a.find("b").find("c") is not None

    def test_text_content(self):
        document = parse_document("<a>hello</a>")
        assert document.document_element.string_value() == "hello"

    def test_mixed_content(self):
        document = parse_document("<a>one<b>two</b>three</a>")
        kinds = [c.kind for c in document.document_element.children]
        assert kinds == [NodeKind.TEXT, NodeKind.ELEMENT, NodeKind.TEXT]
        assert document.document_element.string_value() == "onetwothree"

    def test_attributes(self):
        document = parse_document('<a x="1" y="two"/>')
        element = document.document_element
        assert element.get_attribute("x") == "1"
        assert element.get_attribute("y") == "two"

    def test_single_quoted_attribute(self):
        document = parse_document("<a x='1'/>")
        assert document.document_element.get_attribute("x") == "1"

    def test_xml_declaration(self):
        document = parse_document('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert document.document_element.name.local == "a"

    def test_whitespace_in_tags(self):
        document = parse_document('<a  x = "1" ></a >')
        assert document.document_element.get_attribute("x") == "1"

    def test_document_order_assigned(self):
        document = parse_document("<a><b/>text<c><d/></c></a>")
        orders = [n.order for n in document.iter_descendants()]
        assert orders == sorted(orders)


class TestEntities:
    def test_predefined_entities(self):
        document = parse_document("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert document.document_element.string_value() == "<&>\"'"

    def test_decimal_character_reference(self):
        document = parse_document("<a>&#65;</a>")
        assert document.document_element.string_value() == "A"

    def test_hex_character_reference(self):
        document = parse_document("<a>&#x41;</a>")
        assert document.document_element.string_value() == "A"

    def test_entity_in_attribute(self):
        document = parse_document('<a x="a&amp;b"/>')
        assert document.document_element.get_attribute("x") == "a&b"

    def test_undefined_entity_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a>&nope;</a>")

    def test_entities_merge_into_single_text_node(self):
        document = parse_document("<a>x&amp;y</a>")
        children = document.document_element.children
        assert len(children) == 1
        assert children[0].value == "x&y"


class TestSpecialConstructs:
    def test_comment(self):
        document = parse_document("<a><!-- note --></a>")
        child = document.document_element.children[0]
        assert child.kind == NodeKind.COMMENT
        assert child.value == " note "

    def test_top_level_comment(self):
        document = parse_document("<!-- before --><a/>")
        assert document.children[0].kind == NodeKind.COMMENT

    def test_processing_instruction(self):
        document = parse_document("<a><?target some data?></a>")
        child = document.document_element.children[0]
        assert child.kind == NodeKind.PI
        assert child.target == "target"
        assert child.value == "some data"

    def test_cdata(self):
        document = parse_document("<a><![CDATA[<raw>&]]></a>")
        assert document.document_element.string_value() == "<raw>&"

    def test_doctype_skipped(self):
        document = parse_document("<!DOCTYPE a><a/>")
        assert document.document_element.name.local == "a"

    def test_doctype_internal_subset_captured(self):
        source = "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>"
        document = parse_document(source)
        assert "<!ELEMENT a (#PCDATA)>" in document.internal_subset


class TestNamespaces:
    def test_default_namespace(self):
        document = parse_document('<a xmlns="urn:d"><b/></a>')
        a = document.document_element
        assert a.name.uri == "urn:d"
        assert a.children[0].name.uri == "urn:d"

    def test_prefixed_namespace(self):
        document = parse_document('<p:a xmlns:p="urn:p"/>')
        assert document.document_element.name.uri == "urn:p"
        assert document.document_element.name.prefix == "p"

    def test_unprefixed_attribute_has_no_namespace(self):
        document = parse_document('<a xmlns="urn:d" x="1"/>')
        attribute = document.document_element.attributes[0]
        assert attribute.name.uri is None

    def test_prefixed_attribute(self):
        document = parse_document('<a xmlns:p="urn:p" p:x="1"/>')
        attribute = document.document_element.attributes[0]
        assert attribute.name.uri == "urn:p"

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<p:a/>")

    def test_namespace_shadowing(self):
        source = '<a xmlns:p="urn:outer"><b xmlns:p="urn:inner"><p:c/></b></a>'
        document = parse_document(source)
        c = document.document_element.find("b").children[0]
        assert c.name.uri == "urn:inner"

    def test_xml_prefix_predeclared(self):
        document = parse_document('<a xml:lang="en"/>')
        attribute = document.document_element.attributes[0]
        assert attribute.name.uri == "http://www.w3.org/XML/1998/namespace"


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "<a>",                    # unterminated
            "<a></b>",                # mismatched end tag
            "<a x=1/>",               # unquoted attribute
            "<a><b></a></b>",         # interleaved
            "",                        # empty
            "just text",               # no element
            "<a/><b/>",               # two document elements
            '<a x="<"/>',             # literal < in attribute
            "<a>&#xZZ;</a>",          # bad char ref
            "<!-- unterminated <a/>", # unterminated comment
        ],
    )
    def test_rejects_malformed(self, source):
        with pytest.raises(XmlSyntaxError):
            parse_document(source)

    def test_error_carries_location(self):
        with pytest.raises(XmlSyntaxError) as excinfo:
            parse_document("<a>\n<b></a>")
        assert excinfo.value.line == 2


# (input, message, line, column): one scanner, so one verdict whichever door
# the text comes through (tests/rdb/test_stream_ingest.py pushes the same
# table through both storages' load_stream).
MALFORMED = [
    ("<a><b></a>", "mismatched end tag </a>, expected </b>", 1, 7),
    ("<a>\n<b>\n </c></a>", "mismatched end tag </c>, expected </b>", 3, 2),
    ("<a>&nope;</a>", "undefined entity &nope;", 1, 4),
    ("<a>\n\n  <b x='&bad;'/></a>", "undefined entity &bad;", 3, 9),
    ("<a>&#xZZ;</a>", "bad character reference &#xZZ;", 1, 4),
    ("<a>&amp</a>", "unterminated entity reference", 1, 4),
    ("<a x='<'/>", "'<' in attribute value", 1, 7),
    ("<a/><b/>", "multiple top-level elements", 1, 5),
    ("<a>", "unterminated element <a>", 1, 4),
    ("</a>", "unexpected end tag", 1, 1),
    ("<a b=c/>", "expected quoted attribute value", 1, 6),
    ("<a b/>", "expected '='", 1, 5),
    ("<1a/>", "expected a name", 1, 2),
    ("<a><?1x?></a>", "expected a name", 1, 6),
    ("<a x=\"1/>", "unterminated start tag", 1, 1),
    ("<a></a", "unterminated end tag", 1, 4),
    ("<a><!-- never closed</a>", "unterminated comment", 1, 4),
    ("<a><![CDATA[ never closed</a>", "unterminated CDATA section", 1, 4),
    ("<a><?pi never closed</a>",
     "unterminated processing instruction", 1, 4),
    ("<!DOCTYPE a [ never closed <a/>",
     "unterminated DOCTYPE declaration", 1, 1),
    # a name is never cut short into a tag name plus an attribute name
    ("<abc=\"1\"/>", "expected a name", 1, 5),
    ("<ab=\"1\">x</ab>", "expected a name", 1, 4),
    ("<a/><!DOCTYPE a>", "unexpected DOCTYPE declaration", 1, 5),
    ("<a/>\ntrailing", "text content outside the document element", 2, 1),
    ("leading<a/>", "text content outside the document element", 1, 1),
    ("<a/><![CDATA[x]]>",
     "CDATA section outside the document element", 1, 5),
    ("", "no document element", 1, 1),
    ("<a x='1' x='2'><b/></a>", "duplicate attribute 'x'", 1, 10),
    ("<a xmlns:p='u' xmlns:q='u' p:x='1' q:x='2'/>",
     "duplicate attribute (two prefixes, one namespace)", 1, 3),
    ("<p:a/>", "undeclared namespace prefix 'p'", 1, 2),
    ("<a p:x='1'/>", "undeclared namespace prefix 'p'", 1, 4),
    # an attribute's place is found only once its prefix fails: after
    # a line break, a resolved name, a reference, a declaration, or the
    # same text inside a value
    ("<a b='1'\n   p:x='2'/>", "undeclared namespace prefix 'p'", 2, 4),
    ("<a xmlns:q='u' q:y='1'  p:x='2'/>",
     "undeclared namespace prefix 'p'", 1, 25),
    ("<a   p:x='&amp;'/>", "undeclared namespace prefix 'p'", 1, 6),
    ("<a xmlns:p='u' p:x='1'\n r:y='2'/>",
     "undeclared namespace prefix 'r'", 2, 2),
    ("<a x='p:x' p:x='1'/>", "undeclared namespace prefix 'p'", 1, 12),
    ("<a>" * (MAX_ELEMENT_DEPTH + 1) + "</a>" * (MAX_ELEMENT_DEPTH + 1),
     "elements nested deeper than %d" % MAX_ELEMENT_DEPTH,
     1, 3 * MAX_ELEMENT_DEPTH + 1),
    # what expat rejects too: "]]>" in character data (in a leaf and in a
    # text run), references to non-Chars, "--" inside a comment
    ("<a>x ]]> y</a>", "']]>' in character data", 1, 6),
    ("<a x='1'>\n ]]></a>", "']]>' in character data", 2, 2),
    ("<a>&#0;</a>", "reference to a non-XML character &#0;", 1, 4),
    ("<a>&#xD800;</a>", "reference to a non-XML character &#xD800;", 1, 4),
    ("<a>t&#xFFFE;</a>", "reference to a non-XML character &#xFFFE;", 1, 5),
    ("<a x='&#1;'/>", "reference to a non-XML character &#1;", 1, 7),
    ("<a><!-- x -- y --></a>", "'--' in comment", 1, 11),
    ("<a><!-- x ---></a>", "'--' in comment", 1, 11),
    ("<!-- a -- b --><a/>", "'--' in comment", 1, 8),
]


def verdict(door, source):
    with pytest.raises(XmlSyntaxError) as excinfo:
        door(source)
    error = excinfo.value
    message = "%s (line %d, column %d)" % (
        str(error).rsplit(" (line", 1)[0], error.line, error.column)
    assert str(error) == message  # the location is in the text as well
    return message


class TestOneScannerOneVerdict:
    DOORS = [
        parse_document,
        lambda source: list(stream_events(source)),
        # newlines and columns are counted across chunk boundaries
        lambda source: list(stream_events(source, chunk_size=1)),
        lambda source: list(stream_events(source, chunk_size=3)),
    ]

    @pytest.mark.parametrize("source, message, line, column", MALFORMED)
    def test_same_message_and_location_from_every_door(
            self, source, message, line, column):
        expected = "%s (line %d, column %d)" % (message, line, column)
        for door in self.DOORS:
            assert verdict(door, source) == expected

    def test_location_survives_buffer_compaction(self):
        # ~40 KB of lines in 1 KB chunks: the consumed prefix is dropped
        # several times before the error
        source = "<a>\n" + "<b>text</b>\n" * 3000 + "  <c></d></a>"
        with pytest.raises(XmlSyntaxError) as excinfo:
            list(stream_events(source, chunk_size=1024))
        assert (excinfo.value.line, excinfo.value.column) == (3002, 6)

    def test_hostile_depth_is_a_syntax_error_not_a_recursion_error(self):
        with pytest.raises(XmlSyntaxError, match="nested deeper"):
            parse_document("<a>" * 200_000 + "</a>" * 200_000)

    def test_a_document_at_the_cap_survives_the_recursive_consumers(self):
        import sys
        source = "<a>" * MAX_ELEMENT_DEPTH + "t" + "</a>" * MAX_ELEMENT_DEPTH
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            document = parse_document(source)
            assert serialize(document) == source
            document.renumber()  # Document.stamp
        finally:
            sys.setrecursionlimit(limit)

    def test_fragments_get_the_same_checks(self):
        assert verdict(parse_fragment, "<a x='1' x='2'/><b/>") == (
            "duplicate attribute 'x' (line 1, column 10)")
        assert verdict(parse_fragment, "text</a>") == (
            "unexpected end tag (line 1, column 5)")

    def test_patterns_keep_to_the_python_39_regex_grammar(self):
        # the package supports Python 3.9, whose `re` rejects atomic groups
        # and possessive quantifiers (both arrived in 3.11)
        import re
        from repro.xmlmodel import stream_ingest
        for value in vars(stream_ingest).values():
            if isinstance(value, re.Pattern):
                assert not re.search(r"\(\?>|[*+?}]\+", value.pattern), (
                    value.pattern)


class TestWhitespaceHandling:
    def test_whitespace_preserved_by_default(self):
        document = parse_document("<a>\n  <b/>\n</a>")
        kinds = [c.kind for c in document.document_element.children]
        assert kinds == [NodeKind.TEXT, NodeKind.ELEMENT, NodeKind.TEXT]

    def test_strip_whitespace_drops_blank_text(self):
        document = parse_document("<a>\n  <b/>\n</a>", strip_whitespace=True)
        kinds = [c.kind for c in document.document_element.children]
        assert kinds == [NodeKind.ELEMENT]

    def test_strip_keeps_significant_text(self):
        document = parse_document("<a> x <b/></a>", strip_whitespace=True)
        assert document.document_element.children[0].value == " x "


class TestFragments:
    def test_multiple_top_level_elements(self):
        document = parse_fragment("<a/><b/>", strip_whitespace=True)
        names = [c.name.local for c in document.children]
        assert names == ["a", "b"]

    def test_fragment_with_text(self):
        document = parse_fragment("one<b/>two")
        assert document.string_value() == "onetwo"

    def test_paper_table4_two_dept_rows(self):
        # The dept_emp view produces two top-level <dept> instances.
        source = (
            "<dept><dname>ACCOUNTING</dname></dept>"
            "<dept><dname>OPERATIONS</dname></dept>"
        )
        document = parse_fragment(source)
        assert len(document.findall("dept") if hasattr(document, "findall")
                   else [c for c in document.children]) == 2


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "<a/>",
            '<a x="1"/>',
            "<a>text</a>",
            "<a><b>x</b><c/>tail</a>",
            "<a>&lt;escaped&gt;</a>",
            "<a><!--c--><?pi data?></a>",
        ],
    )
    def test_parse_serialize_roundtrip(self, source):
        document = parse_document(source)
        assert serialize(document) == source

    def test_roundtrip_is_stable(self):
        source = '<a q="v&amp;w"><b>x &amp; y</b></a>'
        once = serialize(parse_document(source))
        twice = serialize(parse_document(once))
        assert once == twice
