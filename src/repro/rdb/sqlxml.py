"""SQL/XML publishing functions (SQL:2003 part 14, as in the paper).

``XMLElement``, ``XMLAttributes``, ``XMLForest``, ``XMLConcat``,
``XMLComment`` construct XML values from relational data; ``XMLAgg`` and
the classic SQL aggregates (COUNT/SUM/AVG/MIN/MAX) are aggregate
expressions driven by the executor's aggregate machinery.

An XML value has one of two representations.  Which one is decided once,
when the plan is *bound* (``Binder.markup``, taken from the
``ExecutionStats.markup`` of the entry point that opened the execution)
— a bound constructor is a closure over flat tuple rows that builds one
representation and never asks again:

* **DOM nodes** (the default): ``Query.execute_batches()`` (which
  ``execute()`` collects) and a bare ``expr.evaluate()`` build trees,
  which view materialisation for the functional path, the XMLQuery
  operators and tests read;
* **markup** (the transform front door and ``Query.stream_pieces``):
  constructors render already-escaped text — a :class:`Markup` string,
  or a flat list of them when the content holds a sequence, so no piece
  ever spans more than one aggregated row — and no result DOM is built,
  copied or walked.  An element and the elements nested in its content
  bind to one template (:func:`_template`): a format string and the
  scalar leaves that fill it.  This is the paper's point (Figure 3): the
  rewritten plan answers ``XMLTransform`` without materialising a
  document.

Everything that merely *passes values along* (``XMLConcat``, ``XMLText``,
``XMLAgg``, CASE, column references into decorrelated aggregates) is
representation-agnostic; only element, forest and comment construction
differ.  ``XMLAgg`` keeps its group lazily as ``(order keys, row)``
pairs and renders each row at finalization.
"""

from __future__ import annotations

from repro.errors import DatabaseError, RewriteError
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.nodes import Node, NodeKind, QName
from repro.xmlmodel.serializer import escape_attribute, escape_text, serialize
from repro.rdb.binding import Layout, bind_order, sort_pairs
from repro.rdb.expressions import Const, SqlExpr, _text
from repro.xpath.datamodel import number_to_string


class Markup(str):
    """Serialized, already-escaped XML text: what a publishing function
    returns on a markup execution.  The type is the escaping contract —
    content and row rendering pass it through verbatim, every other
    string is character data."""

    __slots__ = ()


class XmlExpr(SqlExpr):
    """Marker base class for XML-producing expressions."""


def append_xml_value(builder, value):
    """Append an evaluated SQL value to XML content under construction."""
    if value is None:
        return
    if isinstance(value, Node):
        if value.kind == NodeKind.DOCUMENT:
            for child in value.children:
                builder.copy_node(child)
        else:
            builder.copy_node(value)
    elif isinstance(value, list):
        for item in value:
            append_xml_value(builder, item)
    else:
        builder.text(_text(value))


def _append_markup(parts, value):
    """Markup twin of :func:`append_xml_value`: append an evaluated SQL
    value to element content being rendered."""
    if value is None:
        return
    kind = type(value)
    if kind is Markup:
        parts.append(value)
    elif kind is list:
        for item in value:
            _append_markup(parts, item)
    elif isinstance(value, Node):
        if value.kind == NodeKind.ATTRIBUTE:
            # The DOM splices an attribute node into the enclosing start
            # tag; rendered text has already closed it.  No plan the
            # rewrite generates does this, so the request falls back.
            raise RewriteError(
                "cannot render an attribute node as element content",
                phase="execute",
            )
        parts.append(serialize(value))
    else:
        text = _text(value)
        if text:
            parts.append(escape_text(text))


def row_items(value):
    """The items of one result row: its XML value as a flat list."""
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


def _flat(values):
    """Non-NULL values as one flat list (sequences spliced in)."""
    out = []
    for value in values:
        if value is None:
            continue
        if isinstance(value, list):
            out.extend(value)
        else:
            out.append(value)
    return out


def render_item(item, method="xml"):
    """One row item as output text — the single renderer behind
    ``TransformResult.serialized_rows``, the functional stream and
    :meth:`repro.rdb.plan.Query.stream_pieces`: markup passes through,
    nodes serialize, scalars print unescaped, converted like element
    content (XPath's number-to-string)."""
    if type(item) is Markup:
        return item
    if isinstance(item, Node):
        return serialize(item, method=method)
    return _text(item)


def _lexical(name):
    """The serialized tag/attribute name for a string or QName."""
    return name.lexical if isinstance(name, QName) else str(name)


def _tags(name):
    """An element's static markup: its start tag up to (not including)
    the ``>``, and its end tag."""
    tag = _lexical(name)
    return "<" + tag, Markup("</%s>" % tag)


def _element_node(name, attributes, content, stats):
    """One element node from evaluated ``(name, value)`` attributes and
    content values."""
    builder = TreeBuilder()
    builder.start_element(name)
    for attr_name, value in attributes:
        if value is not None:
            builder.attribute(attr_name, _text(value))
    for value in content:
        append_xml_value(builder, value)
    builder.end_element()
    if stats is not None:
        stats.xml_elements += 1
    return builder.finish().children[0]


def _element_markup(head, close, content, stats):
    """One element as text: ``head`` is the start tag up to (not
    including) its ``>``.  Empty content self-closes, exactly like the
    serializer.  Content holding a sequence (an aggregated group) is not
    joined: the element stays a flat list of pieces for its consumer to
    join or stream."""
    body = []
    sequence = False
    for value in content:
        sequence = sequence or type(value) is list
        _append_markup(body, value)
    stats.xml_elements += 1
    if not body:
        return Markup(head + "/>")
    if not sequence:
        return Markup("%s>%s%s" % (head, "".join(body), close))
    pieces = [Markup(head + ">")]
    pieces.extend(
        piece if type(piece) is Markup else Markup(piece) for piece in body
    )
    pieces.append(close)
    return pieces


#: constant values a template folds into its static text
_STATIC = (str, int, float, bool, type(None))


def _is_static(expr):
    return type(expr) is Const and type(expr.value) in _STATIC


def _render(nest, values, stats):
    """One element of a template for a row that left the format, from
    the row's leaf ``values``: ``nest`` is ``(start tag head, end tag,
    attributes, content)`` as :func:`_template` records it — an
    attribute is ``(prefix, leaf index)``, or ``(text, None)`` when
    constant; a content item is a leaf index, a nested element's nest or
    constant markup."""
    head, close, attributes, content = nest
    for text, index in attributes:
        if index is None:
            head += text
        elif values[index] is not None:
            head += text + escape_attribute(_text(values[index])) + '"'
    return _element_markup(head, close, [
        values[item] if type(item) is int
        else _render(item, values, stats) if type(item) is tuple
        else item
        for item in content
    ], stats)


def _template(element, binder, layout):
    """Bind a markup ``element`` and every ``XMLElement`` nested in its
    content as one template: a format string holding each tag, ``name="``
    prefix, end tag and constant, escaped once here with ``%`` doubled,
    beside the tuple of its scalar leaves.  Per row each leaf is called
    exactly once; when every value is a plain scalar (a string — non-empty
    in content —, an int or a float) the row is one ``fmt % args``.  Any
    other value (NULL, empty content text, a bool, a sequence, markup, a
    node) renders that row from the same values through
    :func:`_render`.  ``xml_elements`` counts every element of the nest
    either way."""
    leaves = []  # (bound closure, is an attribute value), in call order
    pieces = []  # the format: static text, None where a leaf goes
    elements = 0

    def leaf(expr, attribute):
        pieces.append(None)
        leaves.append((expr.bind(binder, layout), attribute))
        return len(leaves) - 1

    def nest(element):
        """Append ``element`` to the format; returns its nest for
        :func:`_render`."""
        nonlocal elements
        elements += 1
        opening, close = _tags(element.name)
        pieces.append(opening)
        attributes = []
        for attr_name, expr in element.attributes:
            prefix = ' %s="' % _lexical(attr_name)
            if not _is_static(expr):
                pieces.append(prefix)
                attributes.append((prefix, leaf(expr, True)))
                pieces.append('"')
            elif expr.value is not None:
                text = prefix + escape_attribute(_text(expr.value)) + '"'
                pieces.append(text)
                attributes.append((text, None))
        start = len(pieces)
        pieces.append(">")
        content = []
        for expr in element.content:
            if type(expr) is XMLElement:
                content.append(nest(expr))
            elif not _is_static(expr):
                content.append(leaf(expr, False))
            elif _text(expr.value):
                text = Markup(escape_text(_text(expr.value)))
                pieces.append(text)
                content.append(text)
        if len(pieces) == start + 1:  # no content: self-closing
            pieces[start] = "/>"
        else:
            pieces.append(close)
        return opening, close, attributes, content

    root = nest(element)
    fmt = "".join("%s" if piece is None else piece.replace("%", "%%")
                  for piece in pieces)
    leaves = tuple(leaves)

    def template(row, stats):
        values = []
        args = []
        for leaf, attribute in leaves:
            value = leaf(row, stats)
            values.append(value)
            kind = type(value)
            if kind is str and (value or attribute):
                args.append(escape_attribute(value) if attribute
                            else escape_text(value))
            elif kind is int:
                args.append(value)
            elif kind is float:
                args.append(number_to_string(value))
            else:  # the rest are called once, then the row leaves the format
                values += [rest(row, stats)
                           for rest, _ in leaves[len(values):]]
                return _render(root, values, stats)
        stats.xml_elements += elements
        return Markup(fmt % tuple(args))

    return template


class XMLElement(XmlExpr):
    """``XMLElement("name", XMLAttributes(...), content...)``."""

    def __init__(self, name, *content, attributes=None):
        self.name = name
        self.attributes = attributes or []  # list of (attr_name, expr)
        self.content = list(content)

    def child_exprs(self):
        return tuple(expr for _, expr in self.attributes) + tuple(self.content)

    def bind(self, binder, layout):
        if binder.markup:
            return _template(self, binder, layout)
        name = self.name
        attributes = [(attr_name, expr.bind(binder, layout))
                      for attr_name, expr in self.attributes]
        content = [expr.bind(binder, layout) for expr in self.content]
        return lambda row, stats: _element_node(
            name,
            [(attr_name, value(row, stats)) for attr_name, value in attributes],
            [value(row, stats) for value in content],
            stats,
        )

    def to_sql(self):
        parts = ['"%s"' % self.name]
        if self.attributes:
            rendered = ", ".join(
                "%s AS \"%s\"" % (expr.to_sql(), attr_name)
                for attr_name, expr in self.attributes
            )
            parts.append("XMLAttributes(%s)" % rendered)
        parts.extend(expr.to_sql() for expr in self.content)
        return "XMLElement(%s)" % ", ".join(parts)


class XMLForest(XmlExpr):
    """``XMLForest(expr AS name, ...)`` — one element per non-null item."""

    def __init__(self, items):
        self.items = items  # list of (name, expr)

    def child_exprs(self):
        return tuple(expr for _, expr in self.items)

    def bind(self, binder, layout):
        build = _element_markup if binder.markup else _element_node
        items = [
            (expr.bind(binder, layout),)
            + (_tags(name) if binder.markup else (name, ()))
            for name, expr in self.items
        ]

        def forest(row, stats):
            elements = []
            for value, first, second in items:
                value = value(row, stats)
                if value is not None:
                    elements.append(build(first, second, (value,), stats))
            return _flat(elements)

        return forest

    def to_sql(self):
        return "XMLForest(%s)" % ", ".join(
            '%s AS "%s"' % (expr.to_sql(), name) for name, expr in self.items
        )


class XMLConcat(XmlExpr):
    """``XMLConcat(a, b, ...)`` — concatenation of XML values."""

    def __init__(self, items):
        self.items = items

    def child_exprs(self):
        return tuple(self.items)

    def bind(self, binder, layout):
        items = [expr.bind(binder, layout) for expr in self.items]
        return lambda row, stats: _flat([item(row, stats) for item in items])

    def to_sql(self):
        return "XMLConcat(%s)" % ", ".join(expr.to_sql() for expr in self.items)


class XMLComment(XmlExpr):
    def __init__(self, expr):
        self.expr = expr

    def child_exprs(self):
        return (self.expr,)

    def bind(self, binder, layout):
        text = self.expr.bind(binder, layout)
        if binder.markup:
            return lambda row, stats: Markup(
                "<!--%s-->" % _text(text(row, stats)))

        def comment(row, stats):
            builder = TreeBuilder()
            builder.comment(_text(text(row, stats)))
            return builder.finish().children[0]

        return comment

    def to_sql(self):
        return "XMLComment(%s)" % self.expr.to_sql()


class XMLText(XmlExpr):
    """A bare text node (convenience for generated plans)."""

    def __init__(self, expr):
        self.expr = expr

    def child_exprs(self):
        return (self.expr,)

    def bind(self, binder, layout):
        value = self.expr.bind(binder, layout)

        def text(row, stats):
            item = value(row, stats)
            return None if item is None else _text(item)

        return text

    def to_sql(self):
        return self.expr.to_sql()


# -- aggregates ----------------------------------------------------------------


class AggregateExpr(SqlExpr):
    """Base for aggregate expressions; the executor drives accumulation.

    ``aggregate(binder, layout)`` binds the aggregate over input rows of
    ``layout`` and returns ``(accumulate, final)``: ``accumulate(state,
    row, stats)`` folds one row into the aggregate's state (a list the
    executor creates per group) and ``final(state, stats)`` turns the
    state into the value.  As an *expression* an aggregate is bound
    against the layout of a finalised group (:func:`bind_aggregates`),
    where it reads its state from its slot.
    """

    def aggregate(self, binder, layout):
        raise NotImplementedError

    def bind(self, binder, layout):
        entry = layout.aggregates.get(id(self))
        if entry is None:
            raise DatabaseError(
                "aggregate %s used outside an aggregate query" % self.to_sql()
            )
        slot, final = entry
        return lambda row, stats: final(row[slot], stats)


def bind_aggregates(binder, outputs, layout, outer):
    """Bind the distinct aggregates under ``(name, expr)`` outputs over
    input rows of ``layout``.  Returns ``(accumulators, final_layout)``:
    one ``accumulate(state, row, stats)`` per aggregate — a node two
    outputs share is driven once — and the layout the outputs are then
    bound against, whose rows are ``outer row + (state per aggregate)``.
    """
    distinct = {}
    for _, expr in outputs:
        for agg in find_aggregates(expr):
            distinct[id(agg)] = agg
    accumulators = []
    slots = {}
    for agg in distinct.values():
        accumulate, final = agg.aggregate(binder, layout)
        slots[id(agg)] = (outer.width + len(accumulators), final)
        accumulators.append(accumulate)
    states = (None, tuple(range(len(accumulators))))
    return accumulators, Layout(outer.segments + (states,), slots)


class XMLAgg(AggregateExpr):
    """``XMLAgg(xml_expr [ORDER BY ...])`` — aggregates XML values into a
    sequence (document order of the group).

    Accumulation is *lazy*: the state holds ``(order keys, row)`` pairs,
    and the per-row XML value is only rendered at finalization.  Rows
    are immutable tuples, so retaining them is safe.
    """

    def __init__(self, expr, order_by=None):
        self.expr = expr
        self.order_by = order_by or []  # list of (expr, descending)

    def child_exprs(self):
        return (self.expr,) + tuple(expr for expr, _ in self.order_by)

    def aggregate(self, binder, layout):
        key, directions = bind_order(binder, self.order_by, layout)
        value = self.expr.bind(binder, layout)

        def accumulate(state, row, stats):
            state.append((key(row, stats), row))

        def final(state, stats):
            return _flat([value(row, stats)
                          for _, row in sort_pairs(state, directions)])

        return accumulate, final

    def to_sql(self):
        text = "XMLAgg(%s" % self.expr.to_sql()
        if self.order_by:
            text += " ORDER BY " + ", ".join(
                expr.to_sql() + (" DESC" if descending else "")
                for expr, descending in self.order_by
            )
        return text + ")"


class AggCall(AggregateExpr):
    """COUNT/SUM/AVG/MIN/MAX (COUNT(*) via expr=None)."""

    #: name -> value of a group's non-NULL inputs (empty only for COUNT)
    _FINAL = {
        "COUNT": lambda state: float(len(state)),
        "SUM": lambda state: float(sum(state)),
        "AVG": lambda state: float(sum(state)) / len(state),
        "MIN": min,
        "MAX": max,
    }

    def __init__(self, name, expr=None):
        self.name = name.upper()
        if self.name not in self._FINAL:
            raise DatabaseError("unknown aggregate %s" % name)
        self.expr = expr

    def child_exprs(self):
        return (self.expr,) if self.expr is not None else ()

    def aggregate(self, binder, layout):
        finish = self._FINAL[self.name]
        counting = self.name == "COUNT"

        def final(state, stats):
            return finish(state) if state or counting else None

        if self.expr is None:
            return (lambda state, row, stats: state.append(1)), final
        value = self.expr.bind(binder, layout)

        def accumulate(state, row, stats):
            item = value(row, stats)
            if item is not None:
                state.append(item)

        return accumulate, final

    def to_sql(self):
        inner = "*" if self.expr is None else self.expr.to_sql()
        return "%s(%s)" % (self.name, inner)


class ListAgg(AggregateExpr):
    """``LISTAGG(expr, separator) WITHIN GROUP (ORDER BY ...)`` — string
    aggregation (used when a whole repeating subtree is taken as text)."""

    def __init__(self, expr, separator="", order_by=None):
        self.expr = expr
        self.separator = separator
        self.order_by = order_by or []  # list of (expr, descending)

    def child_exprs(self):
        return (self.expr,) + tuple(expr for expr, _ in self.order_by)

    def aggregate(self, binder, layout):
        key, directions = bind_order(binder, self.order_by, layout)
        value = self.expr.bind(binder, layout)
        separator = self.separator

        def accumulate(state, row, stats):
            state.append((key(row, stats), _text(value(row, stats))))

        def final(state, stats):
            return separator.join(
                text for _, text in sort_pairs(state, directions))

        return accumulate, final

    def to_sql(self):
        text = "LISTAGG(%s, '%s')" % (self.expr.to_sql(), self.separator)
        if self.order_by:
            text += " WITHIN GROUP (ORDER BY %s)" % ", ".join(
                expr.to_sql() + (" DESC" if descending else "")
                for expr, descending in self.order_by
            )
        return text


def find_aggregates(expr):
    """All aggregate nodes in an expression tree (not crossing subqueries)."""
    return [
        node for node in expr.iter_tree() if isinstance(node, AggregateExpr)
    ]
