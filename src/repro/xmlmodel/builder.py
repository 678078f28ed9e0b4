"""Result-tree construction helpers.

:class:`TreeBuilder` is the single write path used by every producer of XML
in the library — the XSLT VM, the XQuery evaluator and the SQL/XML
publishing functions — guaranteeing document-order stamps stay correct and
adjacent text is merged, as the XPath data model requires.

The module also exposes terse constructors (:func:`doc`, :func:`elem`,
:func:`text`, ...) used heavily in tests.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.xmlmodel.nodes import (
    Attribute,
    Comment,
    Document,
    Element,
    NodeKind,
    ProcessingInstruction,
    QName,
    Text,
)


class TreeBuilder:
    """Incrementally build a result tree in document order.

    Usage::

        builder = TreeBuilder()
        builder.start_element("dept")
        builder.attribute("deptno", "10")
        builder.text("ACCOUNTING")
        builder.end_element()
        result = builder.finish()   # a Document
    """

    def __init__(self):
        self._document = Document()
        self._stack = [self._document]
        self._finished = False

    @property
    def current(self):
        """The node new content is appended to."""
        return self._stack[-1]

    def _attach(self, node):
        """Append a freshly made, childless node to the open element and
        stamp it from this builder's document: the builder only ever writes
        in document order, so no walk to the root is needed."""
        parent = self._stack[-1]
        node.parent = parent
        parent._children.append(node)
        node.order = next(self._document._counter)

    def start_element(self, name, namespaces=None):
        """Open an element; ``name`` may be a string or :class:`QName`."""
        element = Element(name, namespaces=namespaces)
        self._attach(element)
        self._stack.append(element)
        return element

    def end_element(self):
        """Close the most recently opened element."""
        if len(self._stack) <= 1:
            raise ReproError("end_element with no open element")
        self._stack.pop()

    def attribute(self, name, value):
        """Add an attribute to the currently open element.

        Per XSLT semantics, adding an attribute after child content has been
        written is an error.
        """
        target = self.current
        if target.kind != NodeKind.ELEMENT:
            raise ReproError("attribute written outside an element")
        if target.children:
            raise ReproError(
                "attribute %r written after child content" % str(name)
            )
        target.set_attribute(name, value)

    def text(self, value):
        """Append character data, merging with a preceding text node."""
        if value == "":
            return
        children = self._stack[-1]._children
        if children and children[-1].kind == NodeKind.TEXT:
            children[-1].value += value
        else:
            self._attach(Text(value))

    def comment(self, value):
        self._attach(Comment(value))

    def processing_instruction(self, target, value):
        self._attach(ProcessingInstruction(target, value))

    def copy_node(self, node):
        """Deep-copy an existing node (any kind) into the result tree."""
        kind = node.kind
        if kind == NodeKind.DOCUMENT:
            for child in node.children:
                self.copy_node(child)
        elif kind == NodeKind.ELEMENT:
            self.start_element(
                QName(node.name.local, node.name.uri, node.name.prefix),
                namespaces=dict(node.namespaces),
            )
            for attribute in node.attributes:
                self.attribute(
                    QName(
                        attribute.name.local,
                        attribute.name.uri,
                        attribute.name.prefix,
                    ),
                    attribute.value,
                )
            for child in node.children:
                self.copy_node(child)
            self.end_element()
        elif kind == NodeKind.TEXT:
            self.text(node.value)
        elif kind == NodeKind.COMMENT:
            self.comment(node.value)
        elif kind == NodeKind.PI:
            self.processing_instruction(node.target, node.value)
        elif kind == NodeKind.ATTRIBUTE:
            self.attribute(
                QName(node.name.local, node.name.uri, node.name.prefix),
                node.value,
            )
        else:  # pragma: no cover - exhaustive over node kinds
            raise TypeError("cannot copy node kind %r" % kind)

    def finish(self):
        """Return the completed :class:`Document`."""
        if len(self._stack) != 1:
            raise ReproError(
                "%d element(s) left open" % (len(self._stack) - 1)
            )
        self._finished = True
        return self._document


# -- terse constructors for tests and examples -------------------------------


def doc(*children):
    """Build a :class:`Document` from child nodes."""
    document = Document()
    for child in children:
        document.append(child)
    return document


def elem(name, *children, **attributes):
    """Build an :class:`Element`; string children become text nodes.

    Keyword arguments become attributes (use :func:`attr` for namespaced
    attribute names).
    """
    element = Element(name)
    for attr_name, value in attributes.items():
        element.set_attribute(attr_name, str(value))
    for child in children:
        if isinstance(child, str):
            child = Text(child)
        elif isinstance(child, Attribute):
            element.set_attribute(child.name, child.value)
            continue
        element.append(child)
    return element


def text(value):
    """Build a text node."""
    return Text(value)


def attr(name, value):
    """Build an attribute node (for use with :func:`elem`)."""
    return Attribute(name, value)


def comment(value):
    """Build a comment node."""
    return Comment(value)


def pi(target, value):
    """Build a processing-instruction node."""
    return ProcessingInstruction(target, value)
