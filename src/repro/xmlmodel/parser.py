"""The namespace-aware XML 1.0 parser: a DOM builder over the scanner.

Covers the subset of XML needed by the library and its benchmarks: elements,
attributes, namespace declarations, character data with entity and character
references, CDATA sections, comments, processing instructions, the XML
declaration, and a DOCTYPE declaration whose internal subset is captured as
raw text (the :mod:`repro.schema.dtd` module parses it further).

Tokenising, well-formedness and namespace resolution all belong to
:mod:`repro.xmlmodel.stream_ingest`; this module only turns its events into
:mod:`repro.xmlmodel.nodes`, attaching nodes strictly in document order so
document-order stamps are correct.
"""

from __future__ import annotations

from repro.xmlmodel.nodes import (
    Attribute,
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    Text,
    new_node,
)
from repro.xmlmodel.stream_ingest import StreamParser


def parse_document(source, strip_whitespace=False):
    """Parse a complete XML document string into a :class:`Document`.

    :param source: the XML text.
    :param strip_whitespace: drop text nodes that are entirely whitespace
        (handy for data-oriented documents).
    """
    return _build(source, strip_whitespace, fragment=False)


def parse_fragment(source, strip_whitespace=False):
    """Parse XML content that may have multiple top-level elements.

    Returns a :class:`Document` whose children are the fragment's items.
    """
    return _build(source, strip_whitespace, fragment=True)


def _build(source, strip_whitespace, fragment):
    # One chunk: the text is in memory already, so nothing is re-buffered.
    scanner = StreamParser(source, strip_whitespace=strip_whitespace,
                           chunk_size=max(1, len(source)))
    document = Document()
    parent = document
    siblings = document._children
    # Nodes are numbered as Document.stamp would: an element, then its
    # attributes, then its content.
    order = 1
    for event in scanner._scan(fragment):
        kind = event[0]
        if kind == "leaf" or kind == "start":
            node = new_node(Element)
            node.parent = parent
            node.order = order
            node._name = event[3]
            node.attributes = ()
            node.source_line = event[-1]
            siblings.append(node)
            if kind == "leaf":  # the element and its text child, if any
                node.namespaces = {}
                value = event[2]
                if value is None:
                    node._children = []
                    order += 1
                else:
                    text = new_node(Text)
                    text.parent = node
                    text.order = order + 1
                    text.value = value
                    node._children = [text]
                    order += 2
                continue
            _, _, attributes, _, attribute_names, namespaces, _ = event
            node.namespaces = dict(namespaces) if namespaces else {}
            order += 1
            if attributes:
                node.attributes = owned = []
                for attribute_name, (_, value) in zip(attribute_names,
                                                      attributes):
                    attribute = Attribute(attribute_name, value)
                    attribute.parent = node
                    attribute.order = order
                    order += 1
                    owned.append(attribute)
            parent = node
            siblings = node._children = []
            continue
        if kind == "end":
            parent = parent.parent
            siblings = parent._children
            continue
        if kind == "text":
            node = Text(event[1])
        elif kind == "comment":
            node = Comment(event[1])
        else:
            node = ProcessingInstruction(event[1], event[2])
        node.parent = parent
        node.order = order
        order += 1
        siblings.append(node)
    document.resume_order(order)
    document.internal_subset = scanner.internal_subset
    return document
