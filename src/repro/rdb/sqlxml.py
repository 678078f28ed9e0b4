"""SQL/XML publishing functions (SQL:2003 part 14, as in the paper).

``XMLElement``, ``XMLAttributes``, ``XMLForest``, ``XMLConcat``,
``XMLComment`` construct XML values from relational data; ``XMLAgg`` and
the classic SQL aggregates (COUNT/SUM/AVG/MIN/MAX) are aggregate
expressions evaluated by the executor's aggregate machinery.

An XML value has one of two representations, fixed per *execution* by
the entry point that opened it and carried on its ``stats`` object
(``ExecutionStats.markup``) to every operator and aggregate:

* **DOM nodes** (the default): ``Query.execute_batches()`` (which
  ``execute()`` collects), ``execute_scalar()`` and a bare
  ``expr.evaluate()`` build trees, which view materialisation for the
  functional path, the XMLQuery operators and tests read;
* **markup** (``stats.markup`` set by the transform front door and
  ``Query.stream_pieces``): constructors render already-escaped text — a
  :class:`Markup` string, or a flat list of them when the content holds
  a sequence, so no piece ever spans more than one aggregated row — and
  no result DOM is built, copied or walked.  This is the paper's point
  (Figure 3): the rewritten plan answers ``XMLTransform`` without
  materialising a document.

Everything that merely *passes values along* (``XMLConcat``, ``XMLText``,
``XMLAgg``, CASE, column references into decorrelated aggregates) is
representation-agnostic; only element, forest and comment construction
branch.  ``XMLAgg`` keeps its group lazily as ``(order keys, row
environment)`` pairs and renders each row at finalization, in whichever
representation the execution uses.
"""

from __future__ import annotations

from repro.errors import DatabaseError, RewriteError
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.nodes import Node, NodeKind, QName
from repro.xmlmodel.serializer import escape_attribute, escape_text, serialize
from repro.rdb.expressions import SqlExpr, _text

# env key under which aggregate accumulator state is passed during the
# final evaluation of an aggregate query.
AGG_STATE = "\0agg-state"


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


def plain_text(value):
    """Top-level scalar rendering: unescaped, SQL floats carrying integral
    values printed as integers."""
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def row_items(value):
    """The items of one result row: its XML value as a flat list."""
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


def render_item(item, method="xml"):
    """One row item as output text — the single renderer behind
    ``TransformResult.serialized_rows``, the functional stream and
    :meth:`repro.rdb.plan.Query.stream_pieces`: markup passes through,
    nodes serialize, scalars print unescaped (:func:`plain_text`)."""
    if type(item) is Markup:
        return item
    if isinstance(item, Node):
        return serialize(item, method=method)
    return plain_text(item)


def _lexical(name):
    """The serialized tag/attribute name for a string or QName."""
    return name.lexical if isinstance(name, QName) else str(name)


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


class XMLElement(XmlExpr):
    """``XMLElement("name", XMLAttributes(...), content...)``."""

    def __init__(self, name, *content, attributes=None):
        self.name = name
        self.attributes = attributes or []  # list of (attr_name, expr)
        self.content = list(content)
        # static markup, rendered once per plan instead of once per row
        tag = _lexical(name)
        self._open = "<" + tag
        self._close = Markup("</%s>" % tag)
        self._attr_open = [
            ' %s="' % _lexical(attr_name) for attr_name, _ in self.attributes
        ]

    def child_exprs(self):
        return tuple(expr for _, expr in self.attributes) + tuple(self.content)

    def evaluate(self, env, db, stats):
        if stats is None or not stats.markup:
            return _element_node(
                self.name,
                [(attr_name, expr.evaluate(env, db, stats))
                 for attr_name, expr in self.attributes],
                [expr.evaluate(env, db, stats) for expr in self.content],
                stats,
            )
        head = self._open
        for prefix, (_, expr) in zip(self._attr_open, self.attributes):
            value = expr.evaluate(env, db, stats)
            if value is not None:
                head += prefix + escape_attribute(_text(value)) + '"'
        return _element_markup(
            head, self._close,
            [expr.evaluate(env, db, stats) for expr in self.content], stats,
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
        self._tags = [
            ("<" + _lexical(name), Markup("</%s>" % _lexical(name)))
            for name, _ in items
        ]

    def child_exprs(self):
        return tuple(expr for _, expr in self.items)

    def evaluate(self, env, db, stats):
        markup = stats is not None and stats.markup
        out = []
        for (name, expr), (head, close) in zip(self.items, self._tags):
            value = expr.evaluate(env, db, stats)
            if value is None:
                continue
            if markup:
                element = _element_markup(head, close, (value,), stats)
            else:
                element = _element_node(name, (), (value,), stats)
            if type(element) is list:
                out.extend(element)
            else:
                out.append(element)
        return out

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

    def evaluate(self, env, db, stats):
        out = []
        for expr in self.items:
            value = expr.evaluate(env, db, stats)
            if value is None:
                continue
            if isinstance(value, list):
                out.extend(value)
            else:
                out.append(value)
        return out

    def to_sql(self):
        return "XMLConcat(%s)" % ", ".join(expr.to_sql() for expr in self.items)


class XMLComment(XmlExpr):
    def __init__(self, expr):
        self.expr = expr

    def child_exprs(self):
        return (self.expr,)

    def evaluate(self, env, db, stats):
        text = _text(self.expr.evaluate(env, db, stats))
        if stats is not None and stats.markup:
            return Markup("<!--%s-->" % text)
        builder = TreeBuilder()
        builder.comment(text)
        return builder.finish().children[0]

    def to_sql(self):
        return "XMLComment(%s)" % self.expr.to_sql()


class XMLText(XmlExpr):
    """A bare text node (convenience for generated plans)."""

    def __init__(self, expr):
        self.expr = expr

    def child_exprs(self):
        return (self.expr,)

    def evaluate(self, env, db, stats):
        value = self.expr.evaluate(env, db, stats)
        return None if value is None else _text(value)

    def to_sql(self):
        return self.expr.to_sql()


# -- aggregates ----------------------------------------------------------------


def _ordered(rows, order_by):
    """``(keys, payload)`` rows in ORDER BY order: one stable pass per
    key, last key first (arrival order breaks ties)."""
    for position in range(len(order_by) - 1, -1, -1):
        rows = sorted(
            rows, key=lambda row: row[0][position],
            reverse=order_by[position][1],
        )
    return rows


class AggregateExpr(SqlExpr):
    """Base for aggregate expressions; the executor drives accumulation.

    ``final`` receives ``db``/``stats`` because :class:`XMLAgg` defers
    rendering its group to finalization (see below); the scalar
    aggregates ignore both.
    """

    def new_state(self):
        raise NotImplementedError

    def accumulate(self, state, env, db, stats):
        raise NotImplementedError

    def final(self, state, db, stats):
        raise NotImplementedError

    def _state(self, env):
        states = env.get(AGG_STATE)
        if states is None or id(self) not in states:
            raise DatabaseError(
                "aggregate %s used outside an aggregate query" % self.to_sql()
            )
        return states[id(self)]

    def evaluate(self, env, db, stats):
        return self.final(self._state(env), db, stats)


class XMLAgg(AggregateExpr):
    """``XMLAgg(xml_expr [ORDER BY ...])`` — aggregates XML values into a
    sequence (document order of the group).

    Accumulation is *lazy*: the state holds ``(order keys, row env)``
    pairs, and the per-row XML value is only rendered at finalization,
    in the representation the finalizing execution uses.  Row
    environments are safe to retain: plan operators yield fresh dicts
    and never mutate a row after yielding it.
    """

    def __init__(self, expr, order_by=None):
        self.expr = expr
        self.order_by = order_by or []  # list of (expr, descending)

    def child_exprs(self):
        return (self.expr,) + tuple(expr for expr, _ in self.order_by)

    def new_state(self):
        return []

    def accumulate(self, state, env, db, stats):
        keys = tuple(
            expr.evaluate(env, db, stats) for expr, _ in self.order_by
        )
        state.append((keys, env))

    def final(self, state, db, stats):
        out = []
        for _, env in _ordered(state, self.order_by):
            value = self.expr.evaluate(env, db, stats)
            if value is None:
                continue
            if isinstance(value, list):
                out.extend(value)
            else:
                out.append(value)
        return out

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

    def __init__(self, name, expr=None):
        self.name = name.upper()
        if self.name not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            raise DatabaseError("unknown aggregate %s" % name)
        self.expr = expr

    def child_exprs(self):
        return (self.expr,) if self.expr is not None else ()

    def new_state(self):
        return []

    def accumulate(self, state, env, db, stats):
        if self.expr is None:
            state.append(1)
            return
        value = self.expr.evaluate(env, db, stats)
        if value is not None:
            state.append(value)

    def final(self, state, db=None, stats=None):
        if self.name == "COUNT":
            return float(len(state))
        if not state:
            return None
        if self.name == "SUM":
            return float(sum(state))
        if self.name == "AVG":
            return float(sum(state)) / len(state)
        if self.name == "MIN":
            return min(state)
        return max(state)

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

    def new_state(self):
        return []

    def accumulate(self, state, env, db, stats):
        value = self.expr.evaluate(env, db, stats)
        keys = tuple(expr.evaluate(env, db, stats) for expr, _ in self.order_by)
        state.append((keys, _text(value)))

    def final(self, state, db=None, stats=None):
        return self.separator.join(
            text for _, text in _ordered(state, self.order_by)
        )

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
