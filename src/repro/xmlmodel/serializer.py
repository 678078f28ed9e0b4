"""Serialize DOM trees back to markup.

Supports the three XSLT 1.0 output methods:

* ``xml`` — escaped markup, self-closing empty elements;
* ``html`` — known empty HTML elements rendered without end tags, no
  escaping inside ``script``/``style`` (the subset XSLTMark-style
  stylesheets need);
* ``text`` — the concatenated string-value of the tree.
"""

from __future__ import annotations

import re

from repro.xmlmodel.nodes import NodeKind

_HTML_EMPTY_ELEMENTS = frozenset(
    ["area", "base", "br", "col", "hr", "img", "input", "link", "meta", "param"]
)
_HTML_RAW_TEXT = frozenset(["script", "style"])


def serialize(node, method="xml", indent=False):
    """Serialize ``node`` (any node kind) to a string."""
    out = []
    _write(node, out, method, indent, 0)
    return "".join(out)


def serialize_children(node, method="xml", indent=False):
    """Serialize only the children of ``node`` (document content)."""
    out = []
    for child in node.children:
        _write(child, out, method, indent, 0)
    return "".join(out)


#: one search per value: one with nothing to escape is returned as it is
TEXT_SPECIAL = re.compile("[&<>]").search
ATTRIBUTE_SPECIAL = re.compile('[&<"\n\t]').search


def escape_text(value):
    """Escape character data for the xml output method."""
    if TEXT_SPECIAL(value) is None:
        return value
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value):
    """Escape an attribute value (double-quote delimited)."""
    if ATTRIBUTE_SPECIAL(value) is None:
        return value
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
    )


def comment_markup(value):
    """A well-formed comment holding ``value``, by XSLT 1.0 §7.4's
    recovery: a space after each ``-`` followed by ``-`` or at the end."""
    return "<!--%s-->" % re.sub(r"-(?=-|\Z)", "- ", value)


def pi_markup(target, value):
    """A well-formed processing instruction, by XSLT 1.0 §7.3's
    recovery: a space between ``?`` and ``>``."""
    return "<?%s %s?>" % (target, value.replace("?>", "? >"))


def _write(node, out, method, indent, depth):
    kind = node.kind
    if kind == NodeKind.DOCUMENT:
        for child in node.children:
            _write(child, out, method, indent, depth)
    elif kind == NodeKind.ELEMENT:
        _write_element(node, out, method, indent, depth)
    elif kind == NodeKind.TEXT:
        if method == "text":
            out.append(node.value)
        elif method == "html" and _inside_raw_text(node):
            out.append(node.value)
        else:
            out.append(escape_text(node.value))
    elif kind == NodeKind.COMMENT:
        if method != "text":
            out.append(comment_markup(node.value))
    elif kind == NodeKind.PI:
        if method != "text":
            out.append(pi_markup(node.target, node.value))
    elif kind == NodeKind.ATTRIBUTE:
        out.append('%s="%s"' % (node.name.lexical, escape_attribute(node.value)))
    else:  # pragma: no cover - exhaustive over node kinds
        raise TypeError("cannot serialize node kind %r" % kind)


def _inside_raw_text(node):
    parent = node.parent
    return (
        parent is not None
        and parent.kind == NodeKind.ELEMENT
        and parent.name.local.lower() in _HTML_RAW_TEXT
    )


def _write_element(element, out, method, indent, depth):
    if method == "text":
        for child in element.children:
            _write(child, out, method, indent, depth)
        return

    tag = element.name.lexical
    pad = ""
    if indent and out and out[-1].endswith(">"):
        pad = "\n" + "  " * depth
    out.append("%s<%s" % (pad, tag))
    for prefix, uri in sorted(element.namespaces.items()):
        if prefix:
            out.append(' xmlns:%s="%s"' % (prefix, escape_attribute(uri)))
        else:
            out.append(' xmlns="%s"' % escape_attribute(uri))
    for attribute in element.attributes:
        out.append(
            ' %s="%s"'
            % (attribute.name.lexical, escape_attribute(attribute.value))
        )

    is_html = method == "html"
    if not element.children:
        if is_html:
            if tag.lower() in _HTML_EMPTY_ELEMENTS:
                out.append(">")
            else:
                out.append("></%s>" % tag)
        else:
            out.append("/>")
        return

    out.append(">")
    for child in element.children:
        _write(child, out, method, indent, depth + 1)
    if indent and out[-1].endswith(">"):
        out.append("\n" + "  " * depth)
    out.append("</%s>" % tag)
