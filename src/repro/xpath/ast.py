"""XPath 1.0 abstract syntax tree with direct evaluation.

Every node implements ``evaluate(context) -> value`` using the value model
in :mod:`repro.xpath.datamodel`.  The XQuery package builds on these classes
(path expressions inside FLWOR bodies are exactly these nodes), so they are
written to tolerate general item sequences where that costs nothing.

Every node also implements ``to_text()`` producing parseable XPath syntax;
the XQuery serializer relies on it when rendering generated queries (the
paper's Table 8 style output).
"""

from __future__ import annotations

import math

from repro.errors import XPathEvaluationError
from repro.xmlmodel.nodes import Node, NodeKind
from repro.xpath.axes import AXES, REVERSE_AXES
from repro.xpath.datamodel import (
    sort_document_order,
    to_boolean,
    to_node_set,
    to_number,
    to_string,
    number_to_string,
)


class Expr:
    """Base class for all expression nodes."""

    def evaluate(self, context):
        raise NotImplementedError

    def to_text(self):
        raise NotImplementedError

    def child_exprs(self):
        """Direct sub-expressions, for generic analysis passes."""
        return ()

    def iter_tree(self):
        """This node and all sub-expressions, pre-order."""
        yield self
        for child in self.child_exprs():
            for node in child.iter_tree():
                yield node

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.to_text())


class Literal(Expr):
    """A string literal."""

    def __init__(self, value):
        self.value = value

    def evaluate(self, context):
        return self.value

    def to_text(self):
        if '"' not in self.value:
            return '"%s"' % self.value
        return "'%s'" % self.value


class NumberLiteral(Expr):
    """A numeric literal (always a float, per XPath 1.0)."""

    def __init__(self, value):
        self.value = float(value)

    def evaluate(self, context):
        return self.value

    def to_text(self):
        return number_to_string(self.value)


class VariableRef(Expr):
    """A ``$name`` reference."""

    def __init__(self, name):
        self.name = name

    def evaluate(self, context):
        return context.lookup_variable(self.name)

    def to_text(self):
        return "$%s" % self.name


class ContextItem(Expr):
    """The ``.`` expression."""

    def evaluate(self, context):
        if context.node is None:
            raise XPathEvaluationError("no context item")
        return [context.node] if isinstance(context.node, Node) else context.node

    def to_text(self):
        return "."


def is_context_item(expr):
    """True for ``.`` in either representation: the :class:`ContextItem`
    node (emitted by generators) or the parsed ``self::node()`` step."""
    if isinstance(expr, ContextItem):
        return True
    return (
        isinstance(expr, PathExpr)
        and not expr.absolute
        and expr.start is None
        and len(expr.steps) == 1
        and expr.steps[0].axis == "self"
        and isinstance(expr.steps[0].test, KindTest)
        and expr.steps[0].test.kind is None
        and not expr.steps[0].predicates
    )


class FunctionCall(Expr):
    """A call into the function library (core + host registered)."""

    def __init__(self, name, args):
        self.name = name
        self.args = args

    def child_exprs(self):
        return tuple(self.args)

    def evaluate(self, context):
        entry = context.functions.get(self.name)
        if entry is None:
            from repro.xpath.functions import CORE_FUNCTIONS

            entry = CORE_FUNCTIONS.get(self.name)
        if entry is None:
            raise XPathEvaluationError("unknown function %s()" % self.name)
        min_args, max_args, impl = entry
        count = len(self.args)
        if count < min_args or (max_args is not None and count > max_args):
            raise XPathEvaluationError(
                "%s() expects %s argument(s), got %d"
                % (self.name, _arity_text(min_args, max_args), count)
            )
        values = [arg.evaluate(context) for arg in self.args]
        return impl(context, *values)

    def to_text(self):
        return "%s(%s)" % (self.name, ", ".join(a.to_text() for a in self.args))


def _arity_text(min_args, max_args):
    if max_args is None:
        return "%d+" % min_args
    if min_args == max_args:
        return str(min_args)
    return "%d..%d" % (min_args, max_args)


class UnaryMinus(Expr):
    def __init__(self, operand):
        self.operand = operand

    def child_exprs(self):
        return (self.operand,)

    def evaluate(self, context):
        return -to_number(self.operand.evaluate(context))

    def to_text(self):
        return "-%s" % self.operand.to_text()


class BinaryOp(Expr):
    """Binary operators: or, and, comparisons, arithmetic."""

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def child_exprs(self):
        return (self.left, self.right)

    def evaluate(self, context):
        op = self.op
        if op == "or":
            return to_boolean(self.left.evaluate(context)) or to_boolean(
                self.right.evaluate(context)
            )
        if op == "and":
            return to_boolean(self.left.evaluate(context)) and to_boolean(
                self.right.evaluate(context)
            )
        left = self.left.evaluate(context)
        right = self.right.evaluate(context)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return compare_values(op, left, right)
        left_num = to_number(left)
        right_num = to_number(right)
        if op == "+":
            return left_num + right_num
        if op == "-":
            return left_num - right_num
        if op == "*":
            return left_num * right_num
        if op == "div":
            return _divide(left_num, right_num)
        if op == "mod":
            if right_num == 0 or right_num != right_num:
                return float("nan")
            return math.fmod(left_num, right_num)
        raise XPathEvaluationError("unknown operator %r" % op)

    def to_text(self):
        return "%s %s %s" % (
            _maybe_paren(self.left, self.op),
            self.op,
            _maybe_paren(self.right, self.op),
        )


_PRECEDENCE = {
    "or": 1, "and": 2,
    "=": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "div": 6, "mod": 6,
}


def _maybe_paren(expr, parent_op):
    text = expr.to_text()
    if isinstance(expr, BinaryOp) and _PRECEDENCE.get(expr.op, 9) < _PRECEDENCE.get(
        parent_op, 0
    ):
        return "(%s)" % text
    return text


def _divide(left, right):
    if right == 0:
        if left != left or left == 0:
            return float("nan")
        return math.inf if left > 0 else -math.inf
    return left / right


def compare_values(op, left, right):
    """XPath 1.0 comparison semantics, including node-set existentials."""
    left_is_set = isinstance(left, list) or isinstance(left, Node)
    right_is_set = isinstance(right, list) or isinstance(right, Node)
    if left_is_set:
        left = to_node_set(left, "comparison operand")
    if right_is_set:
        right = to_node_set(right, "comparison operand")

    if left_is_set and right_is_set:
        if op in ("=", "!="):
            left_strings = set(node.string_value() for node in left)
            for node in right:
                value = node.string_value()
                if op == "=" and value in left_strings:
                    return True
                if op == "!=" and any(value != other for other in left_strings):
                    return True
            return False
        for left_node in left:
            for right_node in right:
                if _numeric_compare(
                    op,
                    to_number(left_node.string_value()),
                    to_number(right_node.string_value()),
                ):
                    return True
        return False

    if left_is_set or right_is_set:
        nodes, atom, flipped = (
            (left, right, False) if left_is_set else (right, left, True)
        )
        if isinstance(atom, bool):
            # node-set vs boolean compares boolean(node-set), not per node.
            set_value = to_boolean(nodes)
            left_v, right_v = (set_value, atom) if not flipped else (atom, set_value)
            return _atom_compare(op, left_v, right_v)
        for node in nodes:
            if _atom_node_compare(op, node, atom, flipped):
                return True
        return False

    return _atom_compare(op, left, right)


def _atom_node_compare(op, node, atom, flipped):
    if isinstance(atom, (int, float)):
        node_value = to_number(node.string_value())
        left, right = (node_value, float(atom)) if not flipped else (
            float(atom),
            node_value,
        )
        return _numeric_compare(op, left, right)
    # string comparison for = / !=, numeric for relational
    if op in ("=", "!="):
        value = node.string_value()
        result = value == atom
        return result if op == "=" else not result
    node_value = to_number(node.string_value())
    atom_value = to_number(atom)
    left, right = (node_value, atom_value) if not flipped else (
        atom_value,
        node_value,
    )
    return _numeric_compare(op, left, right)


def _atom_compare(op, left, right):
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            result = to_boolean(left) == to_boolean(right)
        elif isinstance(left, (int, float)) or isinstance(right, (int, float)):
            result = to_number(left) == to_number(right)
        else:
            result = to_string(left) == to_string(right)
        return result if op == "=" else not result
    return _numeric_compare(op, to_number(left), to_number(right))


def _numeric_compare(op, left, right):
    if left != left or right != right:
        return False  # NaN compares false
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    raise XPathEvaluationError("unknown comparison %r" % op)


class UnionExpr(Expr):
    """``a | b``: node-set union in document order."""

    def __init__(self, parts):
        self.parts = parts

    def child_exprs(self):
        return tuple(self.parts)

    def evaluate(self, context):
        nodes = []
        for part in self.parts:
            nodes.extend(to_node_set(part.evaluate(context), "union operand"))
        return sort_document_order(nodes)

    def to_text(self):
        return " | ".join(part.to_text() for part in self.parts)


class NameTest:
    """Element/attribute name test: ``name``, ``prefix:name``, ``prefix:*``
    or ``*``."""

    __slots__ = ("prefix", "local")

    def __init__(self, prefix, local):
        self.prefix = prefix
        self.local = local

    def matches(self, node, principal_kind, context):
        if node.kind != principal_kind:
            return False
        name = node.name
        if name is None:
            return False
        if self.prefix is None:
            # unprefixed: any name for ``*``, else a no-namespace name —
            # nothing to resolve against the context
            return self.local == "*" or (
                name.local == self.local and name.uri is None
            )
        uri = context.resolve_prefix(self.prefix)
        if self.local == "*":
            return name.uri == uri
        return name.local == self.local and name.uri == uri

    def to_text(self):
        if self.prefix:
            return "%s:%s" % (self.prefix, self.local)
        return self.local


class KindTest:
    """Node kind test: node(), text(), comment(), processing-instruction()."""

    __slots__ = ("kind", "target")

    def __init__(self, kind, target=None):
        self.kind = kind  # None means node()
        self.target = target

    def matches(self, node, principal_kind, context):
        if self.kind is None:
            return True
        if node.kind != self.kind:
            return False
        if self.kind == NodeKind.PI and self.target is not None:
            return node.target == self.target
        return True

    def to_text(self):
        if self.kind is None:
            return "node()"
        if self.kind == NodeKind.PI and self.target is not None:
            return 'processing-instruction("%s")' % self.target
        return "%s()" % self.kind


class Step:
    """A single location step: axis, node test, predicates."""

    __slots__ = ("axis", "test", "predicates")

    def __init__(self, axis, test, predicates=None):
        self.axis = axis
        self.test = test
        self.predicates = predicates or []

    def select(self, node, context):
        """Nodes selected by this step from one context node, in axis order
        with predicates applied."""
        axis_fn = AXES[self.axis]
        principal = (
            NodeKind.ATTRIBUTE if self.axis == "attribute" else NodeKind.ELEMENT
        )
        selected = [
            candidate
            for candidate in axis_fn(node)
            if self.test.matches(candidate, principal, context)
        ]
        for predicate in self.predicates:
            selected = _filter_by_predicate(selected, predicate, context)
        return selected

    def to_text(self):
        prefix = ""
        if self.axis == "attribute":
            prefix = "@"
        elif self.axis == "self" and isinstance(self.test, KindTest) and self.test.kind is None and not self.predicates:
            return "."
        elif self.axis == "parent" and isinstance(self.test, KindTest) and self.test.kind is None and not self.predicates:
            return ".."
        elif self.axis != "child":
            prefix = "%s::" % self.axis
        text = prefix + self.test.to_text()
        for predicate in self.predicates:
            text += "[%s]" % predicate.to_text()
        return text


def _filter_by_predicate(nodes, predicate, context):
    """Apply one predicate to a node list (already in axis order)."""
    size = len(nodes)
    survivors = []
    for index, node in enumerate(nodes, start=1):
        sub = context.with_node(node, position=index, size=size)
        value = predicate.evaluate(sub)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            keep = float(value) == float(index)
        else:
            keep = to_boolean(value)
        if keep:
            survivors.append(node)
    return survivors


class PathExpr(Expr):
    """A location path, optionally rooted at a primary expression.

    ``absolute`` paths start at the document root; otherwise at the context
    node (or at ``start``'s value when present).
    """

    def __init__(self, steps, start=None, absolute=False):
        self.steps = steps
        self.start = start
        self.absolute = absolute

    def child_exprs(self):
        base = (self.start,) if self.start is not None else ()
        predicates = tuple(
            predicate for step in self.steps for predicate in step.predicates
        )
        return base + predicates

    def evaluate(self, context):
        if self.start is not None:
            value = self.start.evaluate(context)
            nodes = to_node_set(value, "path start")
        elif self.absolute:
            if context.node is None:
                raise XPathEvaluationError("absolute path with no context node")
            nodes = [context.node.root()]
        else:
            if context.node is None:
                raise XPathEvaluationError("relative path with no context node")
            nodes = [context.node]

        for step in self.steps:
            if len(nodes) == 1 and step.axis not in REVERSE_AXES:
                # One context node along a forward axis: select() already
                # returns document order with no duplicates.
                nodes = step.select(nodes[0], context)
                continue
            gathered = []
            for node in nodes:
                gathered.extend(step.select(node, context))
            nodes = sort_document_order(gathered)
        return nodes

    def to_text(self):
        parts = []
        if self.start is not None:
            parts.append(self.start.to_text())
        elif self.absolute and not self.steps:
            return "/"
        step_text = "/".join(step.to_text() for step in self.steps)
        if self.absolute:
            return "/" + step_text
        if parts:
            return parts[0] + ("/" + step_text if step_text else "")
        return step_text


class FilterExpr(Expr):
    """A primary expression with predicates: ``$x[1]``, ``(a|b)[last()]``."""

    def __init__(self, primary, predicates):
        self.primary = primary
        self.predicates = predicates

    def child_exprs(self):
        return (self.primary,) + tuple(self.predicates)

    def evaluate(self, context):
        value = self.primary.evaluate(context)
        nodes = to_node_set(value, "filter expression")
        nodes = sort_document_order(nodes)
        for predicate in self.predicates:
            nodes = _filter_by_predicate(nodes, predicate, context)
        return nodes

    def to_text(self):
        text = self.primary.to_text()
        if not isinstance(self.primary, (VariableRef, FunctionCall, ContextItem)):
            text = "(%s)" % text
        for predicate in self.predicates:
            text += "[%s]" % predicate.to_text()
        return text
