"""SQL/XML publishing functions (SQL:2003 part 14, as in the paper).

``XMLElement``, ``XMLAttributes``, ``XMLForest``, ``XMLConcat``,
``XMLComment`` construct XML values from relational data; ``XMLAgg`` and
the classic SQL aggregates (COUNT/SUM/AVG/MIN/MAX) are aggregate
expressions driven by the executor's aggregate machinery.

A constructed XML value is **markup** at every door: a :class:`Markup`
string, or a flat list of them when the content holds a sequence, so no
piece spans more than one aggregated row.  No result DOM is built; a
reader that needs a tree parses the text (``parse_fragment``).  An
element and the elements nested in its content bind to one template
(:func:`_template`), one generated function filling a format string —
the paper's point (Figure 3): the rewritten plan answers
``XMLTransform`` without materialising a document.  ``XMLAgg`` keeps
its group lazily as ``(order keys, row)`` pairs and renders each row at
finalization.

One rule, :func:`_append_markup`, turns any value into output markup (a
scalar escaped as the XSLT VM escapes text), for element content and,
through :func:`row_items` and :func:`content_markup`, for result rows.
"""

from __future__ import annotations

import functools

from repro.errors import DatabaseError, RewriteError
from repro.xmlmodel.nodes import Node, NodeKind, QName
from repro.xmlmodel.serializer import (
    ATTRIBUTE_SPECIAL, TEXT_SPECIAL, comment_markup, escape_attribute,
    escape_text, serialize)
from repro.rdb.binding import Codegen, sort_pairs
from repro.rdb.expressions import Const, SqlExpr, _text, tuple_source
from repro.xpath.datamodel import number_to_string, to_number


class Markup(str):
    """Serialized, already-escaped XML text: what a publishing function
    returns.  The type is the escaping contract — content and row
    rendering pass it through verbatim, every other string is character
    data."""

    __slots__ = ()


class MarkupList(list):
    """A sequence of :class:`Markup` items only (an element holding a
    group, an ``XMLAgg`` of typed leaves): content takes it whole."""

    __slots__ = ()


def _append_markup(parts, value):
    """Append an evaluated SQL value to element content being rendered,
    as :class:`Markup` pieces: markup verbatim, a stored node
    serialized, anything else as escaped character data (a sequence's run
    of adjacent scalars as one piece: one text node, as the VM writes it)."""
    kind = type(value)
    if kind is Markup:
        parts.append(value)
    elif kind is MarkupList:
        parts += value
    elif kind is list:
        text = ""
        for item in value:
            kind = type(item)
            if kind is str:
                text += item
            elif item is None:
                continue
            elif kind is Markup or isinstance(item, (list, Node)):
                if text:
                    parts.append(Markup(escape_text(text)))
                    text = ""
                if kind is Markup:
                    parts.append(item)
                else:
                    _append_markup(parts, item)
            else:
                text += _text(item)
        if text:
            parts.append(Markup(escape_text(text)))
    elif isinstance(value, Node):
        if value.kind == NodeKind.ATTRIBUTE:
            # the start tag is closed already; no rewritten plan does
            # this, so the request falls back
            raise RewriteError(
                "cannot render an attribute node as element content",
                phase="execute",
            )
        parts.append(Markup(serialize(value)))
    elif value is not None:
        text = _text(value)
        if text:
            parts.append(Markup(escape_text(text)))


def content_markup(value):
    """An evaluated SQL value rendered as element content, one string:
    what a reader that needs a tree hands ``parse_fragment``."""
    return "".join(row_items(value))


def row_items(value):
    """An evaluated XML value as a flat list of :class:`Markup` pieces —
    the items of a result row, the sequence an ``XMLConcat``, ``XMLForest``
    or ``XMLAgg`` makes — rendered as element content is: a scalar is
    escaped character data, exactly as the XSLT VM writes a text node."""
    kind = type(value)
    if kind is Markup:
        return [value]
    if kind is MarkupList:
        return value
    parts = MarkupList()
    _append_markup(parts, value)
    return parts


def _lexical(name):
    """The serialized tag/attribute name for a string or QName."""
    return name.lexical if isinstance(name, QName) else str(name)


def _tags(name):
    """An element's static markup: its start tag up to (not including)
    the ``>``, and its end tag."""
    tag = _lexical(name)
    return "<" + tag, Markup("</%s>" % tag)


def _element_markup(head, close, content, stats):
    """One element as text: ``head`` is the start tag up to (not
    including) its ``>``.  Empty content self-closes, exactly like the
    serializer.  Content holding a sequence (an aggregated group) is not
    joined: the element stays a flat list of pieces for its consumer to
    join or stream, a :class:`MarkupList`."""
    body = MarkupList()
    sequence = False
    for value in content:
        sequence = sequence or isinstance(value, list)
        _append_markup(body, value)
    stats.xml_elements += 1
    if not body:
        return Markup(head + "/>")
    if not sequence:
        return Markup("%s>%s%s" % (head, "".join(body), close))
    body.insert(0, Markup(head + ">"))
    body.append(close)
    return body


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
    constant text.  An ``XMLConcat``'s nest has no tags (``head`` is
    None): its content renders as :func:`row_items` does, joined into
    one piece as the format joins it (no piece when it is all empty, and
    left a list, like an element's, when it holds a sequence)."""
    head, close, attributes, content = nest
    content = [values[item] if type(item) is int
               else _render(item, values, stats) if type(item) is tuple
               else item for item in content]
    if head is None:
        pieces = row_items(content)
        if not pieces or any(isinstance(value, list) for value in content):
            return pieces
        return Markup("".join(pieces))
    for text, index in attributes:
        if index is None:
            head += text
        elif values[index] is not None:
            head += text + escape_attribute(_text(values[index])) + '"'
    return _element_markup(head, close, content, stats)


class _Format:
    """One template's format being built by :func:`_template`: the
    leaves' assignments (``body``) in evaluation order, each one's
    ``(whether an attribute value, static type)`` (``kinds``), the
    format's static text before, between and after them (``runs``) and
    the elements counted.  Methods, not closures calling each other, so
    a bind leaves no cycle behind."""

    __slots__ = ("cg", "binder", "layout", "body", "kinds", "runs",
                 "elements")

    def __init__(self, binder, layout):
        self.cg = Codegen(*_TEMPLATE_PARAMETERS)
        self.binder, self.layout = binder, layout
        self.body, self.kinds, self.runs = [], [], [""]
        self.elements = 0

    def leaf(self, expr, attribute):
        source, kind = expr.emit_typed(self.binder, self.layout, self.cg)
        self.body.append("_v%d = %s\n  " % (len(self.body), source))
        self.kinds.append((attribute, kind))
        self.runs.append("")
        return len(self.body) - 1

    def items(self, exprs):
        """Append content ``exprs`` to the format; their nest items."""
        runs = self.runs
        content = []
        for expr in exprs:
            if type(expr) is XMLElement:
                content.append(self.nest(expr))
            elif not _is_static(expr):
                content.append(self.leaf(expr, False))
            elif text := _text(expr.value):
                runs[-1] += escape_text(text)
                content.append(text)
        return content

    def nest(self, element):
        """Append ``element`` to the format; returns its nest for
        :func:`_render`."""
        if type(element) is XMLConcat:  # no tags
            return None, None, (), self.items(element.items)
        runs = self.runs
        self.elements += 1
        opening, close = _tags(element.name)
        runs[-1] += opening
        attributes = []
        for attr_name, expr in element.attributes:
            prefix = ' %s="' % _lexical(attr_name)
            if not _is_static(expr):
                runs[-1] += prefix
                attributes.append((prefix, self.leaf(expr, True)))
                runs[-1] += '"'
            elif expr.value is not None:
                text = prefix + escape_attribute(_text(expr.value)) + '"'
                runs[-1] += text
                attributes.append((text, None))
        runs[-1] += ">"
        empty = len(runs), len(runs[-1])
        content = self.items(element.content)
        if (len(runs), len(runs[-1])) == empty:  # no content: self-closing
            runs[-1] = runs[-1][:-1] + "/>"
        else:
            runs[-1] += close
        return opening, close, attributes, content


def _template(element, binder, layout, order=None):
    """Bind ``element`` (an ``XMLElement`` or an ``XMLConcat``) and
    every ``XMLElement`` nested in its content as one generated function
    over a format string holding each tag, ``name="`` prefix, end tag and
    constant, escaped once here with ``%`` doubled.  Its leaves are
    evaluated once each, in order; a str (non-empty in content), float
    or int goes into one ``fmt % args``, any other value (NULL, "", a
    bool, a sequence, markup, a node) renders the row from the same
    values through :func:`_render`.  ``xml_elements`` counts every
    element of the nest either way.  Given the ``order`` directions of
    an ``XMLAgg``, the function is instead its ``final(state, stats)``:
    one loop rendering each row of the sorted ``(keys, row)`` pairs."""
    fmt = _Format(binder, layout)
    root = fmt.nest(element)
    cg, kinds, runs = fmt.cg, fmt.kinds, fmt.runs
    cg.values[:2] = root, "%s".join([run.replace("%", "%%") for run in runs])
    body = "".join(fmt.body) + _tail(tuple(kinds), fmt.elements,
                                     order is not None)
    if not kinds and not runs[0]:  # a concat of empty constants: no piece
        body = "return _MarkupList()"
    # every leaf typed: an element always renders one Markup
    typed = type(element) is XMLElement and all(
        kind is not None for _, kind in kinds)
    if order is None:
        return cg.function(body)
    return cg.function("_out = %s\n  for _, row in %s(state, %s):\n   %s"
                       "\n  return %s" % (
                           "_MarkupList()" if typed else "[]",
                           cg.helper("_sort_pairs", sort_pairs),
                           cg.ref(order), body.replace("\n", "\n "),
                           "_out" if typed else "_items(_out)"),
                       "state, stats")


#: a template's factory takes its nest (``_k0``), its format (``_k1``)
#: and the helpers its function calls, under fixed names
_TEMPLATE_PARAMETERS = (
    ("_k0", "_k1", "_render", "_Markup", "_escape_text",
     "_escape_attribute", "_number_to_string", "_text_special",
     "_attribute_special", "_MarkupList", "_items"),
    (None, None, _render, Markup, escape_text, escape_attribute,
     number_to_string, TEXT_SPECIAL, ATTRIBUTE_SPECIAL, MarkupList,
     row_items))


#: a leaf value ``_vN``'s path to its format argument ``_aN``: of unknown
#: type a ``type()`` ladder; of a static type one NULL (or "") test, and
#: text escaped only where the escaper's search finds something
_PATHS = {
    None: "_t = type(_v{n})\n  if _t is str{nonempty}:\n   _a{n} = "
          "{escape}(_v{n})\n  elif _t is float:\n   _a{n} = "
          "_number_to_string(_v{n})\n  elif _t is int:\n   _a{n} = _v{n}\n"
          "  {markup}else:\n   {leave}\n  ",
    str: "if {null}:\n   {leave}\n  _a{n} = _v{n} if {special}(_v{n}) is None "
         "else {escape}(_v{n})\n  ",
    float: "if _v{n} is None:\n   {leave}\n  _a{n} = _number_to_string(_v{n})"
           "\n  ",
    int: "if _v{n} is None:\n   {leave}\n  _a{n} = _v{n}\n  ",
}


@functools.lru_cache(maxsize=256)
def _tail(kinds, elements, loop):
    """What a template runs after its leaves' assignments: each leaf's
    path (``kinds``: per leaf, whether it is an attribute value and its
    static type), or the row leaves the format; then the count and the
    format — returned, or in a ``loop`` appended to ``_out``."""
    give = "_out.append(%s)" if loop else "return %s"
    leave = give % ("_render(_k0, (%s), stats)" % "".join(
        "_v%d, " % n for n in range(len(kinds)))) + ("; continue" if loop
                                                     else "")
    return "".join(_PATHS[kind].format(
        n=n, leave=leave, nonempty="" if attribute else " and _v%d" % n,
        # non-empty markup content is verbatim; empty leaves, to self-close
        markup="" if attribute else "elif _t is _Markup and _v%d:\n   "
        "_a%d = _v%d\n  " % (n, n, n),
        null="_v%d is None" % n if attribute else "not _v%d" % n,
        escape="_escape_attribute" if attribute else "_escape_text",
        special="_attribute_special" if attribute else "_text_special")
        for n, (attribute, kind) in enumerate(kinds)
    ) + "stats.xml_elements += %d\n  " % elements + give % (
        "_Markup(_k1 %% (%s))" % "".join("_a%d, " % n
                                         for n in range(len(kinds))))


class XMLElement(SqlExpr):
    """``XMLElement("name", XMLAttributes(...), content...)``."""

    def __init__(self, name, *content, attributes=None):
        self.name = name
        self.attributes = attributes or []  # list of (attr_name, expr)
        self.content = list(content)

    def child_exprs(self):
        return (*[expr for _, expr in self.attributes], *self.content)

    def bind(self, binder, layout):
        return _template(self, binder, layout)

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


class XMLForest(SqlExpr):
    """``XMLForest(expr AS name, ...)`` — one element per non-null item."""

    def __init__(self, items):
        self.items = items  # list of (name, expr)

    def child_exprs(self):
        return tuple(expr for _, expr in self.items)

    def bind(self, binder, layout):
        items = [(expr.bind(binder, layout),) + _tags(name)
                 for name, expr in self.items]

        def forest(row, stats):
            elements = []
            for value, head, close in items:
                value = value(row, stats)
                if value is not None:
                    elements.append(
                        _element_markup(head, close, (value,), stats))
            return row_items(elements)

        return forest

    def to_sql(self):
        return "XMLForest(%s)" % ", ".join(
            '%s AS "%s"' % (expr.to_sql(), name) for name, expr in self.items
        )


class XMLConcat(SqlExpr):
    """``XMLConcat(a, b, ...)`` — concatenation of XML values."""

    def __init__(self, items):
        self.items = items

    def child_exprs(self):
        return tuple(self.items)

    def bind(self, binder, layout):
        # in content and as an output column too: the base ``emit``
        # calls this template
        return _template(self, binder, layout)

    def to_sql(self):
        return "XMLConcat(%s)" % ", ".join(expr.to_sql() for expr in self.items)


def _comment(value):
    return Markup(comment_markup(_text(value)))


class XMLComment(SqlExpr):
    """``XMLComment(expr)`` — a comment, NULL when ``expr`` is."""

    def __init__(self, expr):
        self.expr = expr

    def child_exprs(self):
        return (self.expr,)

    def emit(self, binder, layout, cg):
        # ``_x`` is read right after it is set: nesting cannot clobber it
        return "(None if (_x := %s) is None else %s(_x))" % (
            cg.emit(self.expr, binder, layout),
            cg.helper("_comment", _comment))

    def to_sql(self):
        return "XMLComment(%s)" % self.expr.to_sql()


class XMLText(SqlExpr):
    """A bare text node (convenience for generated plans)."""

    def __init__(self, expr):
        self.expr = expr

    def child_exprs(self):
        return (self.expr,)

    def emit(self, binder, layout, cg):
        # ``_x`` is read right after it is set: nesting cannot clobber it
        return "(None if (_x := %s) is None else %s(_x))" % (
            cg.emit(self.expr, binder, layout), cg.helper("_text", _text))

    def to_sql(self):
        return self.expr.to_sql()


# -- aggregates ----------------------------------------------------------------


class AggregateExpr(SqlExpr):
    """Base for aggregate expressions, folded by :func:`bind_aggregates`.

    ``fold(binder, layout, cg, state)`` emits into ``cg`` and returns
    ``(initial, statement, final)``: the source of a fresh state, one
    statement taking the input row ``row`` (of ``layout``) into the
    state held at ``state`` (source: ``_s[i]``), and ``final(state,
    stats)``, the value.  As an *expression* an aggregate is bound
    against the layout of a finalised group, reading its state's slot.
    """

    def fold(self, binder, layout, cg, state):
        raise NotImplementedError

    def emit(self, binder, layout, cg):
        entry = layout.aggregates.get(id(self))
        if entry is None:
            raise DatabaseError(
                "aggregate %s used outside an aggregate query" % self.to_sql()
            )
        slot, final = entry
        return "%s(row[%d], stats)" % (cg.ref(final), slot)


def bind_aggregates(binder, outputs, layout, outer, group_by=None,
                    normal=None):
    """Bind the distinct aggregates under ``(name, expr)`` outputs over
    rows of ``layout`` into one generated ``fold(batch, groups, stats)``:
    per row, the ``group_by`` key and every aggregate's statement on that
    group's states in ``groups`` (``{key: states}``, new ones as
    ``fresh()`` makes them), each key through ``normal(position, type)``
    where that gives a function.  Returns ``(fold, fresh, final_layout,
    key_types)``: the outputs' layout is ``outer row + (state per
    aggregate)``; a normalised key's type is None.  No aggregate and no
    ``group_by`` is ``(None, None, layout, ())``."""
    distinct = {}
    for _, expr in outputs:
        for agg in find_aggregates(expr):
            distinct[id(agg)] = agg
    if group_by is None and not distinct:
        return None, None, layout, ()
    cg = Codegen()
    key, kinds = "", []
    for position, expr in enumerate(group_by or ()):
        source, kind = expr.emit_typed(binder, layout, cg)  # one search
        through = normal(position, kind) if normal is not None else None
        if through is not None:
            source, kind = "%s(%s)" % (
                cg.helper(through.__name__, through), source), None
        key += source + ", "
        kinds.append(kind)
    key = "(%s)" % key
    initials, statements, slots = [], [], {}
    for agg in distinct.values():
        initial, statement, final = agg.fold(
            binder, layout, cg, "_s[%d]" % len(statements))
        slots[id(agg)] = (outer.width + len(statements), final)
        initials.append(initial)
        statements.append(statement)
    fresh = "[%s]" % ", ".join(initials)
    fold = cg.function(
        "for row in batch:\n   _key = %s\n   _s = groups.get(_key)\n"
        "   if _s is None:\n    _s = groups[_key] = %s\n   %s"
        % (key, fresh, "\n   ".join(statements)), "batch, groups, stats")
    final = outer.extend(None, range(len(statements)))  # the states
    final.aggregates = slots
    return fold, _fresh(fresh), final, tuple(kinds)


@functools.lru_cache(maxsize=256)
def _fresh(states):
    """``fresh()``: a new group's states, ``states`` their source."""
    return Codegen().function("return " + states, "")


class _Ordered(AggregateExpr):
    """An aggregate of ``expr`` in ``order_by`` order (``(expr,
    descending)`` pairs): its state holds ``(order keys, item)`` pairs."""

    def __init__(self, expr, order_by=None):
        self.expr = expr
        self.order_by = order_by or []

    def child_exprs(self):
        return (self.expr,) + tuple(expr for expr, _ in self.order_by)

    def _order(self, binder, layout, cg):
        """``(directions, source of the order keys over row)``."""
        return ([descending for _, descending in self.order_by],
                tuple_source([expr for expr, _ in self.order_by],
                             binder, layout, cg))

    def _order_sql(self):
        return ", ".join(expr.to_sql() + (" DESC" if descending else "")
                         for expr, descending in self.order_by)


class XMLAgg(_Ordered):
    """``XMLAgg(xml_expr [ORDER BY ...])`` — aggregates XML values into a
    sequence (document order of the group).

    Accumulation is *lazy*: the state holds ``(order keys, row)`` pairs,
    and the per-row XML value is only rendered at finalization.  Rows
    are immutable tuples, so retaining them is safe.
    """

    def fold(self, binder, layout, cg, state):
        directions, keys = self._order(binder, layout, cg)
        if type(self.expr) in (XMLElement, XMLConcat):
            # its template in one loop; typed leaves make a MarkupList
            final = _template(self.expr, binder, layout, directions)
        else:
            value = self.expr.bind(binder, layout)

            def final(state, stats):
                # one row's value at a time: no piece spans two rows
                parts = MarkupList()
                for _, row in sort_pairs(state, directions):
                    _append_markup(parts, value(row, stats))
                return parts

        return "[]", "%s.append((%s, row))" % (state, keys), final

    def to_sql(self):
        order = " ORDER BY " + self._order_sql() if self.order_by else ""
        return "XMLAgg(%s%s)" % (self.expr.to_sql(), order)


class AggCall(AggregateExpr):
    """COUNT/SUM/AVG/MIN/MAX (COUNT(*) via expr=None).  NULL inputs are
    skipped; SUM and AVG take text as character data in a numeric
    context, through XPath's ``to_number`` as :class:`BinOp` does."""

    #: name -> value of a group's state (a count, or its non-NULL inputs)
    _FINAL = {
        "COUNT": float,
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

    def fold(self, binder, layout, cg, state):
        finish = self._FINAL[self.name]
        counting = self.name == "COUNT"

        def final(state, stats):
            return finish(state) if state or counting else None

        if self.expr is None:
            return "0", "%s += 1" % state, final
        value = cg.emit(self.expr, binder, layout)
        if counting:
            return "0", "if %s is not None: %s += 1" % (value, state), final
        item = "_v"
        if self.name in ("SUM", "AVG"):
            item = "%s(_v) if isinstance(_v, str) else _v" % cg.helper(
                "_to_number", to_number)
        return "[]", "if (_v := %s) is not None: %s.append(%s)" % (
            value, state, item), final

    def to_sql(self):
        inner = "*" if self.expr is None else self.expr.to_sql()
        return "%s(%s)" % (self.name, inner)


class ListAgg(_Ordered):
    """``LISTAGG(expr, separator) WITHIN GROUP (ORDER BY ...)`` — string
    aggregation (used when a whole repeating subtree is taken as text).
    NULL inputs are skipped; a group of none is the empty string."""

    def __init__(self, expr, separator="", order_by=None):
        super().__init__(expr, order_by)
        self.separator = separator

    def fold(self, binder, layout, cg, state):
        value = cg.emit(self.expr, binder, layout)
        directions, keys = self._order(binder, layout, cg)
        separator = self.separator

        def final(state, stats):
            return separator.join(
                text for _, text in sort_pairs(state, directions))

        return "[]", "if (_v := %s) is not None: %s.append((%s, %s(_v)))" % (
            value, state, keys, cg.helper("_text", _text)), final

    def to_sql(self):
        text = "LISTAGG(%s, '%s')" % (self.expr.to_sql(), self.separator)
        if self.order_by:
            text += " WITHIN GROUP (ORDER BY %s)" % self._order_sql()
        return text


def find_aggregates(expr):
    """All aggregate nodes in an expression tree (not crossing subqueries)."""
    found, stack = [], [expr]
    while stack:  # one walk per output of every bind: no generators
        node = stack.pop()
        if isinstance(node, AggregateExpr):
            found.append(node)
        stack.extend(node.child_exprs())
    return found
