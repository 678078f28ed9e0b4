"""Deterministic xsltmark-style tree corpus for huge-document ingest tests.

The xsltmark generators (:mod:`repro.xsltmark.generator`) produce the
seed-size documents.  This module scales that corpus up — 10x, 100x, any
integer factor — **without materializing the scaled document**:
:func:`iter_tree_xml` is a generator of markup chunks, so a 100x document
can be streamed into
:meth:`~repro.rdb.treestorage.TreeStorage.load_stream` while the full
text never exists in memory at once.  Everything is a pure function of
``(scale, depth, fanout)``: two runs, or the DOM and streaming ingest
paths, always see byte-identical input.

The document shape follows the xsltmark ``TREE_DTD``::

    <tree> ( <node> <label>text</label> <node>* </node> )* </tree>

with one independent depth-``depth`` subtree per unit of scale, so
element counts grow linearly with ``scale``.
"""

# Scale 1 mirrors the seed workload: a depth-4 / fanout-3 subtree
# (1+3+9+27 = 40 <node> elements and 40 <label> leaves per subtree).
DEFAULT_DEPTH = 4
DEFAULT_FANOUT = 3


def iter_tree_xml(scale, depth=DEFAULT_DEPTH, fanout=DEFAULT_FANOUT):
    """Yield the scaled corpus as markup chunks (one tag-ish per chunk).

    Deterministic: labels encode the (section, path) coordinates, so the
    same arguments always produce the same bytes.
    """
    yield "<tree>"
    for section in range(scale):
        for chunk in _subtree(section, "0", 1, depth, fanout):
            yield chunk
    yield "</tree>"


def _subtree(section, path, level, depth, fanout):
    yield "<node>"
    yield "<label>s%d-n%s</label>" % (section, path)
    if level < depth:
        for branch in range(fanout):
            for chunk in _subtree(section, "%s.%d" % (path, branch),
                                  level + 1, depth, fanout):
                yield chunk
    yield "</node>"


def tree_xml(scale, depth=DEFAULT_DEPTH, fanout=DEFAULT_FANOUT):
    """The scaled corpus as one string (for DOM-path comparisons)."""
    return "".join(iter_tree_xml(scale, depth, fanout))
