"""XML data model: DOM nodes, parser, serializer and tree builder.

This package is the storage-independent XML abstraction the rest of the
library works against (the paper's "XML Abstraction" layer in Figure 1).
It provides:

* a DOM with parent pointers and total document order (:mod:`.nodes`),
* a from-scratch, namespace-aware XML parser (:mod:`.parser`),
* a serializer for XML, HTML and text output methods (:mod:`.serializer`),
* two output handlers with one write interface: a
  :class:`~repro.xmlmodel.builder.TreeBuilder` that builds a tree and a
  :class:`~repro.xmlmodel.builder.MarkupWriter` that writes its markup,
  plus terse element/text constructors for tests.
"""

from repro.xmlmodel.nodes import (
    Attribute,
    Comment,
    Document,
    Element,
    Node,
    NodeKind,
    ProcessingInstruction,
    QName,
    Text,
    document_order_key,
)
from repro.xmlmodel.parser import parse_document, parse_fragment
from repro.xmlmodel.serializer import serialize, serialize_children
from repro.xmlmodel.builder import TreeBuilder, attr, comment, doc, elem, pi, text

__all__ = [
    "Attribute",
    "Comment",
    "Document",
    "Element",
    "Node",
    "NodeKind",
    "ProcessingInstruction",
    "QName",
    "Text",
    "TreeBuilder",
    "attr",
    "comment",
    "doc",
    "document_order_key",
    "elem",
    "parse_document",
    "parse_fragment",
    "pi",
    "serialize",
    "serialize_children",
    "text",
]
