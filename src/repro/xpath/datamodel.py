"""XPath 1.0 value model and type conversions.

The four XPath 1.0 types map onto Python as:

* node-set → ``list`` of :class:`~repro.xmlmodel.nodes.Node` (document order,
  no duplicates);
* string → ``str``;
* number → ``float`` (IEEE 754 double, as the spec requires);
* boolean → ``bool``.

The XQuery engine reuses the same representation, treating a list as a
general item sequence; the conversion functions below implement XPath 1.0
semantics, which is what both the XSLT VM and the generated queries need.
"""

from __future__ import annotations

import math
from decimal import Decimal

from repro.errors import XPathTypeError
from repro.xmlmodel.nodes import Node, document_order_key

NAN = float("nan")


def is_node(value):
    """True if ``value`` is a single DOM node."""
    return isinstance(value, Node)


def is_node_set(value):
    """True if ``value`` is a (possibly empty) list of nodes."""
    return isinstance(value, list) and all(isinstance(item, Node) for item in value)


def sort_document_order(nodes):
    """Sort nodes into document order and drop duplicates (by identity)."""
    seen = set()
    unique = []
    for node in nodes:
        marker = id(node)
        if marker not in seen:
            seen.add(marker)
            unique.append(node)
    unique.sort(key=document_order_key)
    return unique


def to_string(value):
    """XPath ``string()`` conversion (commonest types first)."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        if not value:
            return ""
        first = value[0]
        if isinstance(first, Node):
            return first.string_value()
        return to_string(first)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, int)):
        return number_to_string(float(value))
    if isinstance(value, Node):
        return value.string_value()
    raise XPathTypeError("cannot convert %r to a string" % type(value).__name__)


def to_number(value):
    """XPath ``number()`` conversion."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if isinstance(value, int):
        return float(value)
    if isinstance(value, str):
        return string_to_number(value)
    if isinstance(value, (Node, list)):
        return string_to_number(to_string(value))
    raise XPathTypeError("cannot convert %r to a number" % type(value).__name__)


def to_boolean(value):
    """XPath ``boolean()`` conversion (effective boolean value)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value == value and value != 0.0  # false for NaN and ±0
    if isinstance(value, int):
        return value != 0
    if isinstance(value, str):
        return len(value) > 0
    if isinstance(value, Node):
        return True
    if isinstance(value, list):
        return len(value) > 0
    raise XPathTypeError("cannot convert %r to a boolean" % type(value).__name__)


def to_node_set(value, what="expression"):
    """Require a node-set (used by axes, union, and node-set functions)."""
    if isinstance(value, Node):
        return [value]
    if isinstance(value, list):
        for item in value:
            if not isinstance(item, Node):
                raise XPathTypeError(
                    "%s must be a node-set, found %r in sequence"
                    % (what, type(item).__name__)
                )
        return value
    raise XPathTypeError(
        "%s must be a node-set, got %s" % (what, type(value).__name__)
    )


def string_to_number(text):
    """XPath string → number: optional sign, digits, optional fraction."""
    stripped = text.strip()
    if not stripped:
        return NAN
    body = stripped[1:] if stripped.startswith("-") else stripped
    if not body or not _is_xpath_numeral(body):
        return NAN
    return float(stripped)


def _is_xpath_numeral(body):
    # Digits '.' Digits? | '.' Digits
    head, dot, tail = body.partition(".")
    if dot:
        if not head and not tail:
            return False
        return (not head or head.isdigit()) and (not tail or tail.isdigit())
    return body.isdigit()


def number_to_string(value):
    """XPath number → string (XPath 1.0 §4.2): an integer has no decimal
    point, and nothing has an exponent — the shortest round-tripping
    digits written out in full, so ``string_to_number`` reads every
    finite number back to itself (``1e20`` → ``100000000000000000000``,
    ``1e-7`` → ``0.0000001``)."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    if abs(value) < 2 ** 53 and value == int(value):
        return str(int(value))  # exact, and the shortest digits too
    # past 2**53 the exact integer is not the shortest spelling (1e23
    # is 99999999999999991611392 exactly): write out repr's digits
    text = repr(value)
    if "e" in text:
        text = format(Decimal(text), "f")
    return text[:-2] if text.endswith(".0") else text


def xpath_round(value):
    """XPath ``round()``: half rounds towards +infinity; NaN/inf pass through."""
    if value != value or value in (math.inf, -math.inf):
        return value
    return float(math.floor(value + 0.5))
