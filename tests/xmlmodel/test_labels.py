"""Containment labels and the streaming tokenizer they pair with."""

import pytest

from repro.errors import XmlSyntaxError
from repro.xmlmodel import parse_document
from repro.xmlmodel.labels import Label, assign_labels
from repro.xmlmodel.stream_ingest import StreamParser, stream_events


class TestLabels:
    def test_document_is_level_zero(self):
        doc = parse_document("<a><b/></a>")
        assign_labels(doc)
        assert doc.label == Label(1, 3, 0)

    def test_preorder_numbering(self):
        doc = parse_document("<a><b>t</b><c/></a>")
        assign_labels(doc)
        a = doc.document_element
        b, c = a.findall("b")[0], a.findall("c")[0]
        assert a.label.as_tuple() == (2, 5, 1)
        assert b.label.as_tuple() == (3, 4, 2)
        assert b.children[0].label.as_tuple() == (4, 4, 3)
        assert c.label.as_tuple() == (5, 5, 2)

    def test_attributes_take_slots(self):
        doc = parse_document('<a x="1" y="2"><b/></a>')
        assign_labels(doc)
        a = doc.document_element
        assert a.label.as_tuple() == (2, 5, 1)
        assert [attr.label.as_tuple() for attr in a.attributes] == [
            (3, 3, 2), (4, 4, 2)]
        assert a.find("b").label.as_tuple() == (5, 5, 2)

    def test_containment_is_strict(self):
        doc = parse_document("<a><b><c/></b></a>")
        assign_labels(doc)
        a = doc.document_element
        b = a.find("b")
        c = b.find("c")
        assert a.label.contains(b.label)
        assert a.label.contains(c.label)
        assert b.label.contains(c.label)
        assert not b.label.contains(a.label)
        assert not a.label.contains(a.label)  # proper ancestry only

    def test_relabelling_is_idempotent(self):
        doc = parse_document("<a><b/><b/></a>")
        assign_labels(doc)
        first = [b.label.as_tuple() for b in doc.document_element.findall("b")]
        assign_labels(doc)
        second = [b.label.as_tuple()
                  for b in doc.document_element.findall("b")]
        assert first == second


def events(text, **kwargs):
    """The shredder-facing view: a start or leaf event's first three
    fields."""
    return [event[:3] for event in stream_events(text, **kwargs)]


class TestStreamParser:
    def test_simple_events(self):
        # <b>t</b> is a leaf: one event for its start, text and end
        assert events("<a><b>t</b><c/><d></d></a>") == [
            ("start", "a", []),
            ("leaf", "b", "t"),
            ("leaf", "c", None),
            ("leaf", "d", None),
            ("end", "a"),
        ]

    def test_leaf_event_carries_the_dom_fields(self):
        _, (_, local, text, name, line), _ = stream_events(
            '\n\n<p:a xmlns:p="u"><p:b\n>x</p:b ></p:a>')
        assert (local, text, line) == ("b", "x", 3)
        assert (name.local, name.uri, name.prefix) == ("b", "u", "p")

    def test_what_is_not_a_leaf(self):
        # attributes, references, CDATA, comments, PIs and child elements
        # keep the start / content / end events
        for text in ('<a x="1">t</a>', "<a>x&amp;y</a>", "<a>&#65;</a>",
                     "<a><![CDATA[t]]></a>", "<a><!--c--></a>",
                     "<a><?p?></a>", "<a><b/></a>", '<a x="1"/>'):
            kinds = [event[0] for event in stream_events(text)]
            assert kinds[0] == "start" and kinds[-1] == "end", text

    def test_mismatched_end_tag_is_not_a_leaf(self):
        with pytest.raises(XmlSyntaxError,
                           match=r"mismatched end tag </b>, expected </a> "
                                 r"\(line 1, column 5\)"):
            events("<a>x</b>")

    def test_a_leaf_cut_by_a_chunk_boundary_waits_for_its_end(self):
        # cut anywhere inside <b>text</b>, the scanner buffers on rather
        # than emit a start event it would not emit for the whole text
        text = "<a><b>some text</b  ><c>t<d/></c><e>x</e>tail</a>"
        whole = list(stream_events(text))
        for cut in range(1, len(text)):
            parts = iter([text[:cut], text[cut:]])
            assert list(stream_events(parts)) == whole, cut

    def test_attributes_and_self_closing(self):
        assert events('<a x="1"><b y="&lt;"/></a>') == [
            ("start", "a", [("x", "1")]),
            ("start", "b", [("y", "<")]),
            ("end", "b"),
            ("end", "a"),
        ]

    def test_adjacent_text_merged(self):
        got = events("<a>x&amp;y z<!-- boundary -->!</a>")
        assert got == [("start", "a", []), ("text", "x&y z"),
                       ("comment", " boundary "), ("text", "!"),
                       ("end", "a")]

    def test_cdata_is_a_text_node_boundary(self):
        # Mirrors the DOM parser: text before CDATA is its own node; the
        # CDATA content (never entity-expanded) merges with what follows.
        got = events("<a>x&amp;y<![CDATA[&z]]>!</a>")
        assert got == [("start", "a", []), ("text", "x&y"),
                       ("text", "&z!"), ("end", "a")]

    def test_comment_pi_doctype(self):
        got = events(
            "<?xml version='1.0'?><!DOCTYPE a [<!ELEMENT a ANY>]>"
            "<!-- hi --><a><?tgt data?></a>")
        assert got == [
            ("comment", " hi "),
            ("start", "a", []),
            ("pi", "tgt", "data"),
            ("end", "a"),
        ]

    def test_strip_whitespace(self):
        got = events("<a>\n  <b/>\n</a>", strip_whitespace=True)
        assert got == [("start", "a", []), ("leaf", "b", None), ("end", "a")]
        assert events("<a><b> \n</b></a>", strip_whitespace=True) == [
            ("start", "a", []), ("leaf", "b", None), ("end", "a")]
        assert events("<a><b> \n</b></a>") == [
            ("start", "a", []), ("leaf", "b", " \n"), ("end", "a")]

    def test_namespace_prefixes_stripped(self):
        got = events('<p:a xmlns:p="u" p:x="1"><p:b/></p:a>')
        assert got == [
            ("start", "a", [("x", "1")]),
            ("leaf", "b", None),
            ("end", "a"),
        ]

    def test_start_event_carries_the_dom_fields(self):
        (_, local, attributes, name, attribute_names, namespaces,
         line), *_ = stream_events('\n<p:a xmlns:p="u" p:x="1" y="2"/>')
        assert (local, attributes) == ("a", [("x", "1"), ("y", "2")])
        assert (name.local, name.uri, name.prefix) == ("a", "u", "p")
        assert [(q.local, q.uri, q.prefix) for q in attribute_names] == [
            ("x", "u", "p"), ("y", None, None)]
        assert namespaces == {"p": "u"}
        assert line == 2

    def test_chunk_boundaries_do_not_matter(self):
        text = '<r a="v&#65;l"><x>one<!--c-->two</x><y/>tail text</r>'
        baseline = events(text)
        for chunk_size in (1, 2, 3, 7, 64):
            assert events(text, chunk_size=chunk_size) == baseline

    def test_file_like_source(self):
        import io
        assert events(io.StringIO("<a>t</a>")) == [("leaf", "a", "t")]

    def test_mismatched_tag_raises(self):
        with pytest.raises(XmlSyntaxError):
            events("<a></b>")

    def test_unterminated_raises(self):
        with pytest.raises(XmlSyntaxError):
            events("<a><b>")

    def test_peak_buffer_is_bounded(self):
        big = "<r>%s</r>" % "".join(
            "<i>%d</i>" % index for index in range(5000))
        parser = StreamParser(big, chunk_size=256)
        for _ in parser.events():
            pass
        # The whole document is ~53KB; the buffer high-water mark stays
        # near the compaction threshold plus one chunk, not the document
        # size.
        from repro.xmlmodel.stream_ingest import _COMPACT_THRESHOLD
        assert parser.peak_buffered_bytes <= _COMPACT_THRESHOLD + 2 * 256
        assert parser.peak_buffered_bytes >= 256
