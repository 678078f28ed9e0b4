"""DOM node classes with parent pointers and total document order.

The model follows the XPath 1.0 data model: a document node, elements,
attributes, text, comments and processing instructions.  Namespace nodes are
not materialised; in-scope namespace bindings live on elements.

Document order is maintained by assigning a monotonically increasing
``order`` to each node when it is attached to a tree.  The parser and the
:class:`~repro.xmlmodel.builder.TreeBuilder` attach nodes strictly in
document order, so the counter *is* document order.  Code that mutates a tree
out of order must call :meth:`Document.renumber` before relying on order
comparisons.
"""

from __future__ import annotations

import itertools


class NodeKind:
    """Symbolic node-kind constants (cheaper and clearer than an Enum here)."""

    DOCUMENT = "document"
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"
    PI = "processing-instruction"


class QName:
    """An expanded name: ``(namespace_uri, local)`` plus an optional prefix.

    Equality and hashing ignore the prefix, per the XPath data model.
    """

    __slots__ = ("uri", "local", "prefix")

    def __init__(self, local, uri=None, prefix=None):
        self.local = local
        self.uri = uri
        self.prefix = prefix

    def __eq__(self, other):
        if not isinstance(other, QName):
            return NotImplemented
        return self.local == other.local and self.uri == other.uri

    def __hash__(self):
        return hash((self.local, self.uri))

    def __repr__(self):
        return "QName(%r, uri=%r)" % (self.local, self.uri)

    @property
    def lexical(self):
        """The qualified name as written in markup, e.g. ``xsl:template``."""
        if self.prefix:
            return "%s:%s" % (self.prefix, self.local)
        return self.local


class Node:
    """Base class for all tree nodes."""

    kind = None  # overridden per subclass

    __slots__ = ("parent", "order", "label")

    def __init__(self):
        self.parent = None
        self.order = -1
        self.label = None

    # -- tree navigation ---------------------------------------------------

    @property
    def children(self):
        """Child nodes (empty tuple for leaf kinds)."""
        return ()

    def root(self):
        """The topmost ancestor (the document for attached nodes)."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self):
        """Yield parent, grandparent, ... up to and including the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def iter_descendants(self):
        """Yield all descendants (not self) in document order."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_subtree(self):
        """Yield self followed by all descendants in document order."""
        yield self
        for node in self.iter_descendants():
            yield node

    def following_siblings(self):
        """Yield siblings after this node in document order."""
        if self.parent is None or self.kind == NodeKind.ATTRIBUTE:
            return
        siblings = self.parent.children
        index = _sibling_index(siblings, self)
        for node in itertools.islice(siblings, index + 1, None):
            yield node

    def preceding_siblings(self):
        """Yield siblings before this node in reverse document order."""
        if self.parent is None or self.kind == NodeKind.ATTRIBUTE:
            return
        siblings = self.parent.children
        index = _sibling_index(siblings, self)
        for position in range(index - 1, -1, -1):
            yield siblings[position]

    # -- XPath data-model accessors ----------------------------------------

    def string_value(self):
        """The XPath string-value of the node."""
        raise NotImplementedError

    @property
    def name(self):
        """The expanded :class:`QName`, or ``None`` for unnamed kinds."""
        return None

    def __repr__(self):
        return "<%s order=%d>" % (type(self).__name__, self.order)


def _sibling_index(siblings, node):
    """Index of ``node`` in its parent's child list, by identity."""
    for index, candidate in enumerate(siblings):
        if candidate is node:
            return index
    raise ValueError("node is not among its parent's children")


class _ParentNode(Node):
    """Shared implementation for nodes that own a child list."""

    __slots__ = ("_children",)

    def __init__(self):
        super().__init__()
        self._children = []

    @property
    def children(self):
        return self._children

    def append(self, child):
        """Attach ``child`` as the last child and stamp its document order."""
        child.parent = self
        self._children.append(child)
        root = self.root()
        if isinstance(root, Document):
            root.stamp(child)
        return child

    def string_value(self):
        children = self._children
        if len(children) == 1 and children[0].kind == NodeKind.TEXT:
            return children[0].value  # the leaf shape: no walk
        parts = []
        for node in self.iter_descendants():
            if node.kind == NodeKind.TEXT:
                parts.append(node.value)
        return "".join(parts)


class Document(_ParentNode):
    """The document root.  Owns the document-order counter for its tree."""

    kind = NodeKind.DOCUMENT

    __slots__ = ("_counter", "internal_subset")

    def __init__(self):
        super().__init__()
        self.order = 0
        self._counter = itertools.count(1)
        # Raw text of the DOCTYPE internal subset, when parsed from markup.
        self.internal_subset = None

    def stamp(self, node):
        """Assign document order to ``node`` and its subtree (and attrs)."""
        node.order = next(self._counter)
        if node.kind == NodeKind.ELEMENT:
            for attribute in node.attributes:
                attribute.order = next(self._counter)
        for child in node.children:
            self.stamp(child)

    def resume_order(self, next_order):
        """Continue numbering at ``next_order``: for a builder that stamped
        the nodes it attached itself, in document order, from slot 1."""
        self._counter = itertools.count(next_order)

    def renumber(self):
        """Re-assign document order after arbitrary tree surgery."""
        self._counter = itertools.count(1)
        self.order = 0
        for child in self._children:
            self.stamp(child)

    @property
    def document_element(self):
        """The single top-level element, or ``None``."""
        for child in self._children:
            if child.kind == NodeKind.ELEMENT:
                return child
        return None


class Element(_ParentNode):
    """An element node with attributes and in-scope namespace bindings."""

    kind = NodeKind.ELEMENT

    __slots__ = ("_name", "attributes", "namespaces", "source_line")

    def __init__(self, name, namespaces=None):
        # The base initialisers are inlined in the three node kinds every
        # build path creates by the thousand: one frame per node, not three.
        self.parent = None
        self.order = -1
        self.label = None
        self._children = []
        if isinstance(name, str):
            name = QName(name)
        self._name = name
        # One shared empty tuple until the first set_attribute(): most
        # elements carry none, and the list is only ever replaced, never
        # mutated, through this reference.
        self.attributes = ()
        # prefix -> uri bindings in scope at this element (own declarations
        # merged over the parent's at parse/build time).
        self.namespaces = dict(namespaces) if namespaces else {}
        # 1-based line of the start tag in the parsed source, when known.
        self.source_line = None

    @property
    def name(self):
        return self._name

    def set_attribute(self, name, value):
        """Add or replace an attribute; returns the :class:`Attribute`."""
        if isinstance(name, str):
            name = QName(name)
        for attribute in self.attributes:
            if attribute.name == name:
                attribute.value = value
                return attribute
        attribute = Attribute(name, value)
        attribute.parent = self
        if self.attributes:
            self.attributes.append(attribute)
        else:
            self.attributes = [attribute]
        # An element already stamped by its document (order >= 0) lends
        # its slot to attributes added afterwards; attributes present when
        # a subtree is adopted get slots of their own (Document.stamp).
        # document_order_key() orders both numberings the same way.
        if self.order >= 0:
            attribute.order = self.order
        return attribute

    def get_attribute(self, local, uri=None, default=None):
        """The string value of the named attribute, or ``default``."""
        wanted = QName(local, uri)
        for attribute in self.attributes:
            if attribute.name == wanted:
                return attribute.value
        return default

    def find(self, local, uri=None):
        """First child element with the given name, or ``None``."""
        wanted = QName(local, uri)
        for child in self._children:
            if child.kind == NodeKind.ELEMENT and child.name == wanted:
                return child
        return None

    def findall(self, local, uri=None):
        """All child elements with the given name, in document order."""
        wanted = QName(local, uri)
        return [
            child
            for child in self._children
            if child.kind == NodeKind.ELEMENT and child.name == wanted
        ]

    def child_elements(self):
        """All child elements in document order."""
        return [c for c in self._children if c.kind == NodeKind.ELEMENT]

    def lookup_prefix(self, prefix):
        """Resolve a namespace prefix in scope at this element."""
        node = self
        while node is not None and node.kind == NodeKind.ELEMENT:
            if prefix in node.namespaces:
                return node.namespaces[prefix]
            node = node.parent
        return None

    def __repr__(self):
        return "<Element %s order=%d>" % (self._name.lexical, self.order)


class Attribute(Node):
    """An attribute node.  Its parent is the owning element."""

    kind = NodeKind.ATTRIBUTE

    __slots__ = ("_name", "value")

    def __init__(self, name, value):
        self.parent = None
        self.order = -1
        self.label = None
        if isinstance(name, str):
            name = QName(name)
        self._name = name
        self.value = value

    @property
    def name(self):
        return self._name

    def string_value(self):
        return self.value

    def __repr__(self):
        return "<Attribute %s=%r>" % (self._name.lexical, self.value)


class Text(Node):
    """A text node."""

    kind = NodeKind.TEXT

    __slots__ = ("value",)

    def __init__(self, value):
        self.parent = None
        self.order = -1
        self.label = None
        self.value = value

    def string_value(self):
        return self.value

    def __repr__(self):
        return "<Text %r>" % (self.value[:40],)


class Comment(Node):
    """A comment node."""

    kind = NodeKind.COMMENT

    __slots__ = ("value",)

    def __init__(self, value):
        super().__init__()
        self.value = value

    def string_value(self):
        return self.value


class ProcessingInstruction(Node):
    """A processing-instruction node (``target`` is its XPath name)."""

    kind = NodeKind.PI

    __slots__ = ("target", "value")

    def __init__(self, target, value):
        super().__init__()
        self.target = target
        self.value = value

    @property
    def name(self):
        return QName(self.target)

    def string_value(self):
        return self.value


def document_order_key(node):
    """Sort key yielding document order across a single tree.

    Attributes share their element's order slot; ties are broken by kind so
    the element sorts before its attributes, and by attribute list position.
    """
    if node.kind == NodeKind.ATTRIBUTE and node.parent is not None:
        owner = node.parent
        position = next(
            index for index, a in enumerate(owner.attributes) if a is node
        )
        return (owner.order, 1, position)
    return (node.order, 0, 0)
