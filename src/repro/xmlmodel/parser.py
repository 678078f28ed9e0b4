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
    siblings = document.children
    # Nodes are numbered as Document.stamp would: an element, then its
    # attributes, then its content.
    order = 1
    for event in scanner._scan(fragment):
        kind = event[0]
        if kind == "leaf":
            # the element and its text child, if any, in one step
            _, _, value, name, line = event
            node = Element(name)
            node.source_line = line
            node.order = order
            node.parent = parent
            siblings.append(node)
            if value is None:
                order += 1
            else:
                text = Text(value)
                text.parent = node
                text.order = order + 1
                node.children.append(text)
                order += 2
            continue
        if kind == "start":
            _, _, attributes, name, attribute_names, namespaces, line = event
            node = Element(name, namespaces)
            node.source_line = line
            node.order = order
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
            node.parent = parent
            siblings.append(node)
            parent = node
            siblings = node.children
            continue
        if kind == "end":
            parent = parent.parent
            siblings = parent.children
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
