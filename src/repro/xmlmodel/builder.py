"""The two output handlers the producers of XML write through.

:class:`TreeBuilder` builds a tree in document order, stamping order and
merging adjacent text as the XPath data model requires, wherever the
result is read as a tree.  :class:`MarkupWriter` takes the same calls
and appends xml-method markup, byte for byte what :func:`serialize`
makes of that tree: the XSLT VM writes functional rows through it.

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
from repro.xmlmodel.serializer import (
    comment_markup, escape_text, pi_markup, start_tag)


class _Output:
    """What both handlers share: node copies, the misplaced attribute."""

    def copy_node(self, node):
        """Deep-copy an existing node (any kind) into the result."""
        kind = node.kind
        if kind == NodeKind.DOCUMENT:
            for child in node.children:
                self.copy_node(child)
        elif kind == NodeKind.ELEMENT:
            self.start_element(node.name, node.namespaces)
            for attribute in node.attributes:
                self.attribute(attribute.name, attribute.value)
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
            self.attribute(node.name, node.value)
        else:  # pragma: no cover - exhaustive over node kinds
            raise TypeError("cannot copy node kind %r" % kind)

    @staticmethod
    def _misplaced(name, in_element):  # XSLT: no attribute after content
        return ReproError("attribute %r written after child content"
                          % str(name) if in_element
                          else "attribute written outside an element")


class TreeBuilder(_Output):
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
        """Add an attribute to the currently open element."""
        target = self._stack[-1]
        if target.kind != NodeKind.ELEMENT or target.children:
            raise self._misplaced(name, target.kind == NodeKind.ELEMENT)
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

    def finish(self):
        """Return the completed :class:`Document`."""
        if len(self._stack) != 1:
            raise ReproError(
                "%d element(s) left open" % (len(self._stack) - 1))
        return self._document


class MarkupWriter(_Output):
    """Write a result as xml-method markup; :meth:`finish` returns it.
    A start tag stays open until the element's first content, so an
    element with none self-closes, and until then an attribute written
    again (an equal QName) replaces the first one's value in place."""

    def __init__(self):
        self._out = []
        self._names = []         # the open elements' tags
        self._namespaces = None  # of the start tag still open
        self._attributes = None  # QName -> value of that start tag, if open

    def _content(self, markup, end=">"):  # the open start tag ends first
        attributes = self._attributes
        if attributes is not None:
            self._attributes = None
            markup = start_tag(self._names[-1], self._namespaces,
                               attributes.items()) + end + markup
        self._out.append(markup)

    def start_element(self, name, namespaces=None):
        if self._attributes is not None:
            self._content("")
        self._names.append(name if name.__class__ is str else name.lexical)
        self._namespaces = namespaces
        self._attributes = {}

    def end_element(self):
        if not self._names:
            raise ReproError("end_element with no open element")
        if self._attributes is None:
            self._out.append("</%s>" % self._names.pop())
        else:
            self._content("", "/>")
            self._names.pop()

    def attribute(self, name, value):
        if self._attributes is None:
            raise self._misplaced(name, bool(self._names))
        self._attributes[QName(name) if type(name) is str else name] = value

    def text(self, value):
        if value:
            self._content(escape_text(value))

    def comment(self, value):
        self._content(comment_markup(value))

    def processing_instruction(self, target, value):
        self._content(pi_markup(target, value))

    def finish(self):
        """Return the markup written."""
        if self._names:
            raise ReproError("%d element(s) left open" % len(self._names))
        return "".join(self._out)


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
