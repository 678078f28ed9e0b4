"""XQuery AST nodes, extending the shared XPath expression classes.

Values are general item sequences: Python lists whose items are DOM nodes or
atomics (str/float/bool).  Single items and sequences inter-convert through
:func:`as_sequence` / :func:`as_single`.

Every node supports ``evaluate(context)``, declares its sub-expressions in
``_parts`` (see :class:`repro.xpath.ast.Structure` — so do the FLWOR clause
and attribute records) and is rendered to query text by
:mod:`repro.xquery.serializer` (AST nodes here carry an optional
``xq_comment`` attribute, which the serializer prints as an XQuery comment —
the paper's Table 8 annotates generated code with the originating template).
"""

from __future__ import annotations

from repro.errors import XQueryEvaluationError, XQueryTypeError
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.nodes import Node, NodeKind, QName
from repro.xpath.ast import Expr, Structure
from repro.xpath.datamodel import to_boolean, to_number, to_string


def as_sequence(value):
    """Normalise an evaluation result to a list of items."""
    if isinstance(value, list):
        return value
    return [value]


def as_single(value, what="expression"):
    """Require a singleton (or empty → error) item."""
    seq = as_sequence(value)
    if len(seq) != 1:
        raise XQueryTypeError(
            "%s must be a single item, got %d" % (what, len(seq))
        )
    return seq[0]


class ForClause(Structure):
    """``for $var [at $pos] in expr``."""

    __slots__ = ("variable", "position_variable", "expr")
    _parts = ("expr",)

    def __init__(self, variable, expr, position_variable=None):
        self.variable = variable
        self.expr = expr
        self.position_variable = position_variable


class LetClause(Structure):
    """``let $var := expr``."""

    __slots__ = ("variable", "expr")
    _parts = ("expr",)

    def __init__(self, variable, expr):
        self.variable = variable
        self.expr = expr


class WhereClause(Structure):
    """``where expr``."""

    __slots__ = ("expr",)
    _parts = ("expr",)

    def __init__(self, expr):
        self.expr = expr


class OrderSpec(Structure):
    """One ``order by`` key."""

    __slots__ = ("expr", "descending")
    _parts = ("expr",)

    def __init__(self, expr, descending=False):
        self.expr = expr
        self.descending = descending


class OrderByClause(Structure):
    """``order by`` with one or more keys."""

    __slots__ = ("specs",)
    _parts = ("specs",)

    def __init__(self, specs):
        self.specs = specs


class FlworExpr(Expr):
    """A FLWOR expression."""

    _parts = ("clauses", "return_expr")

    def __init__(self, clauses, return_expr):
        self.clauses = clauses
        self.return_expr = return_expr

    def evaluate(self, context):
        tuples = [context]
        order_by = None
        for clause in self.clauses:
            if isinstance(clause, ForClause):
                expanded = []
                for tup in tuples:
                    items = as_sequence(clause.expr.evaluate(tup))
                    for position, item in enumerate(items, start=1):
                        bindings = {clause.variable: _bind_item(item)}
                        if clause.position_variable:
                            bindings[clause.position_variable] = float(position)
                        expanded.append(tup.with_variables(bindings))
                tuples = expanded
            elif isinstance(clause, LetClause):
                tuples = [
                    tup.with_variables(
                        {clause.variable: clause.expr.evaluate(tup)}
                    )
                    for tup in tuples
                ]
            elif isinstance(clause, WhereClause):
                tuples = [
                    tup
                    for tup in tuples
                    if to_boolean(clause.expr.evaluate(tup))
                ]
            elif isinstance(clause, OrderByClause):
                order_by = clause
            else:  # pragma: no cover - clause kinds are exhaustive
                raise XQueryEvaluationError("unknown clause %r" % clause)
        if order_by is not None:
            tuples = _order_tuples(tuples, order_by)
        results = []
        for tup in tuples:
            results.extend(as_sequence(self.return_expr.evaluate(tup)))
        return results

    def to_text(self):  # delegated to the serializer for layout
        from repro.xquery.serializer import xquery_to_text

        return xquery_to_text(self)


def _bind_item(item):
    """for-bound variables hold single items; keep nodes as node-sets of
    one so XPath path steps work from them."""
    if isinstance(item, Node):
        return [item]
    return item


def _order_tuples(tuples, order_by):
    decorated = []
    for index, tup in enumerate(tuples):
        keys = []
        for spec in order_by.specs:
            value = spec.expr.evaluate(tup)
            seq = as_sequence(value)
            if not seq:
                keys.append((0, "", 0.0))
                continue
            atom = seq[0]
            if isinstance(atom, Node):
                atom = atom.string_value()
            if isinstance(atom, (int, float)) and not isinstance(atom, bool):
                keys.append((1, "", float(atom)))
            else:
                keys.append((2, to_string(atom), 0.0))
        decorated.append((keys, index, tup))

    for position in range(len(order_by.specs) - 1, -1, -1):
        spec = order_by.specs[position]
        decorated.sort(
            key=lambda row: row[0][position],
            reverse=spec.descending,
        )
    return [tup for _, _, tup in decorated]


class IfExpr(Expr):
    """``if (cond) then ... else ...``."""

    _parts = ("condition", "then_expr", "else_expr")

    def __init__(self, condition, then_expr, else_expr):
        self.condition = condition
        self.then_expr = then_expr
        self.else_expr = else_expr

    def evaluate(self, context):
        if to_boolean(self.condition.evaluate(context)):
            return self.then_expr.evaluate(context)
        return self.else_expr.evaluate(context)

    def to_text(self):
        from repro.xquery.serializer import xquery_to_text

        return xquery_to_text(self)


class SequenceExpr(Expr):
    """``(a, b, c)`` — concatenation of item sequences."""

    _parts = ("items",)

    def __init__(self, items):
        self.items = items

    def evaluate(self, context):
        out = []
        for item in self.items:
            out.extend(as_sequence(item.evaluate(context)))
        return out

    def to_text(self):
        from repro.xquery.serializer import xquery_to_text

        return xquery_to_text(self)


class EmptySequence(Expr):
    """``()``."""

    def evaluate(self, context):
        return []

    def to_text(self):
        return "()"


class RangeExpr(Expr):
    """``m to n`` — the integer range sequence."""

    _parts = ("low", "high")

    def __init__(self, low, high):
        self.low = low
        self.high = high

    def evaluate(self, context):
        low = int(to_number(as_single(self.low.evaluate(context), "range start")))
        high = int(to_number(as_single(self.high.evaluate(context), "range end")))
        return [float(value) for value in range(low, high + 1)]

    def to_text(self):
        return "%s to %s" % (self.low.to_text(), self.high.to_text())


class QuantifiedExpr(Expr):
    """``some/every $v in expr satisfies test``."""

    _parts = ("bindings", "satisfies")

    def __init__(self, kind, bindings, satisfies):
        self.kind = kind  # 'some' | 'every'
        self.bindings = bindings  # list of (variable, expr)
        self.satisfies = satisfies

    def evaluate(self, context):
        return self._check(context, 0)

    def _check(self, context, index):
        if index == len(self.bindings):
            return to_boolean(self.satisfies.evaluate(context))
        variable, expr = self.bindings[index]
        items = as_sequence(expr.evaluate(context))
        results = (
            self._check(context.with_variables({variable: _bind_item(item)}),
                        index + 1)
            for item in items
        )
        if self.kind == "some":
            return any(results)
        return all(results)

    def to_text(self):
        bindings = ", ".join(
            "$%s in %s" % (variable, expr.to_text())
            for variable, expr in self.bindings
        )
        return "%s %s satisfies %s" % (
            self.kind, bindings, self.satisfies.to_text()
        )


class InstanceOfExpr(Expr):
    """``expr instance of element(name)`` / ``text()`` / ``node()`` ...

    Only the node-kind tests needed by the straightforward-translation
    dispatch conditionals (paper Tables 12/17/19) are implemented.
    """

    _parts = ("expr",)

    def __init__(self, expr, type_name, element_name=None):
        self.expr = expr
        self.type_name = type_name  # 'element' | 'text' | 'node' | 'attribute' | 'document-node'
        self.element_name = element_name

    def evaluate(self, context):
        seq = as_sequence(self.expr.evaluate(context))
        if len(seq) != 1:
            return False
        item = seq[0]
        if not isinstance(item, Node):
            return False
        if self.type_name == "node":
            return True
        kind_map = {
            "element": NodeKind.ELEMENT,
            "text": NodeKind.TEXT,
            "attribute": NodeKind.ATTRIBUTE,
            "document-node": NodeKind.DOCUMENT,
            "comment": NodeKind.COMMENT,
        }
        wanted = kind_map.get(self.type_name)
        if wanted is None or item.kind != wanted:
            return False
        if self.element_name is not None:
            return item.name is not None and item.name.local == self.element_name
        return True

    def to_text(self):
        if self.type_name in ("element", "attribute") and self.element_name:
            type_text = "%s(%s)" % (self.type_name, self.element_name)
        else:
            type_text = "%s()" % self.type_name
        return "%s instance of %s" % (self.expr.to_text(), type_text)


class AttributeConstructor(Structure):
    """One attribute inside a direct element constructor; the value is a
    list of parts (literal strings and expressions)."""

    __slots__ = ("name", "parts")
    _parts = ("parts",)

    def __init__(self, name, parts):
        self.name = name  # QName
        self.parts = parts

    def evaluate(self, context):
        out = []
        for part in self.parts:
            if isinstance(part, str):
                out.append(part)
            else:
                seq = as_sequence(part.evaluate(context))
                out.append(
                    " ".join(
                        item.string_value() if isinstance(item, Node)
                        else to_string(item)
                        for item in seq
                    )
                )
        return "".join(out)


class DirectElementConstructor(Expr):
    """``<name attr="...">content</name>`` with enclosed expressions."""

    _parts = ("attributes", "content")

    def __init__(self, name, attributes, content, namespaces=None):
        self.name = name              # QName
        self.attributes = attributes  # list of AttributeConstructor
        self.content = content        # list of str | Expr
        self.namespaces = namespaces or {}

    def evaluate(self, context):
        builder = TreeBuilder()
        self._build(builder, context)
        document = builder.finish()
        return [document.children[0]]

    def _build(self, builder, context):
        builder.start_element(
            QName(self.name.local, self.name.uri, self.name.prefix),
            namespaces=dict(self.namespaces),
        )
        for attribute in self.attributes:
            builder.attribute(
                QName(
                    attribute.name.local,
                    attribute.name.uri,
                    attribute.name.prefix,
                ),
                attribute.evaluate(context),
            )
        for item in self.content:
            if isinstance(item, str):
                builder.text(item)
            elif isinstance(item, DirectElementConstructor):
                item._build(builder, context)
            else:
                insert_sequence(builder, item.evaluate(context))
        builder.end_element()

    def to_text(self):
        from repro.xquery.serializer import xquery_to_text

        return xquery_to_text(self)


def insert_sequence(builder, value):
    """Insert an evaluated sequence into element content (XQuery rules:
    nodes are copied, adjacent atomics joined with single spaces)."""
    pending_atoms = []

    def flush():
        if pending_atoms:
            builder.text(" ".join(pending_atoms))
            del pending_atoms[:]

    for item in as_sequence(value):
        if isinstance(item, Node):
            flush()
            if item.kind == NodeKind.ATTRIBUTE:
                builder.attribute(item.name, item.value)
            else:
                builder.copy_node(item)
        else:
            pending_atoms.append(to_string(item))
    flush()


class ComputedTextConstructor(Expr):
    """``text { expr }`` — constructs a text node.

    The XSLT rewrite emits these for text-producing instructions so that
    adjacent results concatenate exactly (bare atomics in a sequence would
    be space-separated by the XQuery content rules, which would deviate
    from XSLT's output).  ``text {()}`` constructs nothing.
    """

    _parts = ("expr",)

    def __init__(self, expr):
        self.expr = expr

    def evaluate(self, context):
        value = self.expr.evaluate(context)
        seq = as_sequence(value)
        if not seq:
            return []
        text = "".join(
            item.string_value() if isinstance(item, Node) else to_string(item)
            for item in seq
        )
        if text == "":
            return []
        builder = TreeBuilder()
        builder.text(text)
        return [builder.finish().children[0]]

    def to_text(self):
        return "text {%s}" % self.expr.to_text()


class DocumentConstructor(Expr):
    """``document { expr }`` — wraps a sequence in a document node.

    Composition of rewritten queries uses this: when one query's result
    feeds another as its context document, the fragment is wrapped so the
    outer query's child steps start from a document node.
    """

    _parts = ("expr",)

    def __init__(self, expr):
        self.expr = expr

    def evaluate(self, context):
        builder = TreeBuilder()
        insert_sequence(builder, self.expr.evaluate(context))
        return [builder.finish()]

    def to_text(self):
        return "document {%s}" % self.expr.to_text()


class UserFunctionCall(Expr):
    """A call to a ``declare function`` definition (non-inline mode)."""

    _parts = ("args",)

    def __init__(self, name, args):
        self.name = name
        self.args = args

    def evaluate(self, context):
        functions = context.extra.get("xquery_functions", {})
        declaration = functions.get((self.name, len(self.args)))
        if declaration is None:
            raise XQueryEvaluationError(
                "unknown function %s#%d" % (self.name, len(self.args))
            )
        values = [arg.evaluate(context) for arg in self.args]
        return declaration.invoke(context, values)

    def to_text(self):
        return "%s(%s)" % (
            self.name,
            ", ".join(arg.to_text() for arg in self.args),
        )


class FunctionDecl:
    """``declare function local:name($p1, $p2) { body };``."""

    __slots__ = ("name", "params", "body")

    def __init__(self, name, params, body):
        self.name = name
        self.params = params  # list of variable names
        self.body = body

    def invoke(self, context, values):
        bindings = dict(zip(self.params, values))
        return self.body.evaluate(context.with_variables(bindings))


class VariableDecl:
    """``declare variable $name := expr;``."""

    __slots__ = ("name", "expr")

    def __init__(self, name, expr):
        self.name = name
        self.expr = expr


class Module:
    """A query module: prolog declarations plus the body expression."""

    __slots__ = ("variables", "functions", "body")

    def __init__(self, variables, functions, body):
        self.variables = variables  # list of VariableDecl, in order
        self.functions = functions  # list of FunctionDecl
        self.body = body

    def iter_exprs(self):
        """All top-level expressions (for analysis passes)."""
        for declaration in self.variables:
            yield declaration.expr
        for declaration in self.functions:
            yield declaration.body
        yield self.body
