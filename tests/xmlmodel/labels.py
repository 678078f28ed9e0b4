"""Containment (interval) labels for document trees.

Every node gets a label ``(start, end, level)`` where ``start`` is the node's
position in a preorder walk, ``end`` is the largest ``start`` inside the
node's subtree (``end == start`` for leaves), and ``level`` is the depth from
the document node (the document itself is level 0).

The walk order mirrors :meth:`Document.stamp`: the node itself, then its
attributes, then its children.  That makes ``start`` a document-order key, so

    ``anc`` is a proper ancestor of ``desc``
        iff  ``anc.start < desc.start <= anc.end``

with the strict lower bound excluding self-pairs.  Both shredders stamp the
same numbers in their own single pass (the tree node table's
``start``/``end``/``level`` columns, the object-relational
``$start``/``$end``/``$level`` columns); this is the reference the tests
check those columns against.
"""

from __future__ import annotations


class Label:
    """An interval label. Immutable by convention."""

    __slots__ = ("start", "end", "level")

    def __init__(self, start, end, level):
        self.start = start
        self.end = end
        self.level = level

    def contains(self, other):
        """True when *other* lies strictly inside this node's subtree."""
        return self.start < other.start <= self.end

    def as_tuple(self):
        return (self.start, self.end, self.level)

    def __eq__(self, other):
        if not isinstance(other, Label):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return "Label(start=%d, end=%d, level=%d)" % (
            self.start, self.end, self.level)


def assign_labels(document):
    """Containment labels over *document*'s whole tree: ``{node: Label}``.

    The counter visits node, attributes, then children — the same order
    as :meth:`Document.stamp` — so ``start`` sorts nodes in document
    order.  Iterative: depth costs heap, not stack.
    """
    labels = {}
    counter = 1
    # One (node, start, remaining children) entry per open ancestor, so an
    # entry's position in the stack is its node's level.
    open_nodes = [(document, 1, iter(document.children))]
    while open_nodes:
        node, start, remaining = open_nodes[-1]
        level = len(open_nodes)
        for child in remaining:
            counter += 1
            child_start = counter
            for attribute in getattr(child, "attributes", ()):
                counter += 1
                labels[attribute] = Label(counter, counter, level + 1)
            if child.children:
                open_nodes.append((child, child_start, iter(child.children)))
                break
            labels[child] = Label(child_start, counter, level)
        else:
            open_nodes.pop()
            labels[node] = Label(start, counter, level - 1)
    return labels
