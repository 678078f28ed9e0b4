"""XPath 1.0 abstract syntax tree, compiled to closures on first use.

The nodes are plain data (the XQuery generator walks and rebuilds them,
compile artifacts pickle them) and describe their own shape: each class
names the attributes that hold sub-expressions (``_parts``) and
:class:`Structure` reads ``child_exprs()`` and ``rebuilt(fn)`` — the one
tree copier every rewriting pass is built on — from that declaration.
Each XPath node's semantics live in one
``compile()`` that returns a closure ``fn(context) -> value`` over the
node's fields and its children's closures — name tests decided on
``(kind, local, uri)``, child/attribute/self/parent steps as direct list
operations, one context per predicate pass — using the value model in
:mod:`repro.xpath.datamodel`.  ``bound()`` caches that closure on the node
(it is dropped on pickling) and ``evaluate(context)`` is a call into it, so
every stylesheet that parses the same expression text shares one compiled
form (:func:`repro.xpath.parser.compile_xpath` memoises the tree).  What a
closure cannot know from the tree alone is looked up where it is reached:
a namespace prefix in the context's bindings, a function in the context's
overlay, so an undeclared prefix or an unknown function raises when the
step or call is evaluated, never when it is compiled.  The XQuery package
builds on these classes (path expressions inside FLWOR bodies are exactly
these nodes; its own nodes implement ``evaluate`` directly), so they are
written to tolerate general item sequences where that costs nothing.

Every node also implements ``to_text()`` producing parseable XPath syntax;
the XQuery serializer relies on it when rendering generated queries (the
paper's Table 8 style output).
"""

from __future__ import annotations

import math
import operator
from functools import partial

from repro.errors import XPathEvaluationError
from repro.xmlmodel.nodes import Node, NodeKind
from repro.xpath.axes import AXES, REVERSE_AXES
from repro.xpath.functions import CORE_FUNCTIONS
from repro.xpath.datamodel import (
    sort_document_order,
    to_boolean,
    to_node_set,
    to_number,
    to_string,
    number_to_string,
)


#: runtime handles cached on a node: never pickled, never copied
_HANDLES = ("_fn", "_stripped")


def _plain_state(node):
    """A dict-based node's fields (and ``xq_comment``) without the handles:
    what a pickle and a copy carry."""
    state = node.__dict__.copy()
    for handle in _HANDLES:
        state.pop(handle, None)
    return state


def _map_part(value, each):
    """One declared part with ``each`` applied to the structures in it: an
    expression, a record holding some (a step, a FLWOR clause), a list or
    tuple of either; literal text and names pass through.  The value
    itself comes back when nothing in it changed."""
    if isinstance(value, Structure):
        return each(value)
    if isinstance(value, (list, tuple)):
        mapped = None
        for index, item in enumerate(value):
            new = _map_part(item, each)
            if new is not item:
                if mapped is None:
                    mapped = list(value)
                mapped[index] = new
        if mapped is None:
            return value
        return mapped if isinstance(value, list) else tuple(mapped)
    return value


_without_predicates = operator.methodcaller("without_predicates")


def _each(fn, part):
    """``fn`` applied to a direct sub-expression: ``part`` itself, or
    those of a record — a partial, not a closure calling itself, so no
    call leaves a function-cell cycle behind."""
    if isinstance(part, Expr):
        return fn(part)
    return part._mapped(partial(_each, fn))


class Structure:
    """What expression nodes and the records inside them (steps, pattern
    steps, FLWOR clauses, attribute constructors) share: ``_parts`` names
    the attributes that hold sub-expressions, in evaluation order."""

    __slots__ = ()
    _parts = ()

    def child_exprs(self):
        """Direct sub-expressions, for generic analysis passes: what
        ``rebuilt`` hands to its ``fn``, in that order."""
        found = []
        self.rebuilt(lambda child: found.append(child) or child)
        return tuple(found)

    def rebuilt(self, fn):
        """A copy with ``fn`` applied to each direct sub-expression — this
        node itself when ``fn`` changed none of them."""
        return self._mapped(partial(_each, fn))

    def without_predicates(self):
        """The paper's §4.3 "predicates assumed true" form: every step and
        filter predicate dropped, which only ever adds selected or matched
        nodes.  This node itself when it holds none."""
        return self._mapped(_without_predicates)

    def _mapped(self, each):
        clone = None
        for name in self._parts:
            old = getattr(self, name)
            if not old:
                continue  # no start, no predicates
            new = _map_part(old, each)
            if new is not old:
                if clone is None:
                    clone = self.clone()
                setattr(clone, name, new)
        return self if clone is None else clone

    def clone(self, **changes):
        """A shallow copy of the plain data — the fields and ``xq_comment``,
        no runtime handle — with the named fields replaced."""
        clone = object.__new__(type(self))
        for name in self.__slots__:
            setattr(clone, name, getattr(self, name))
        if hasattr(self, "__dict__"):
            clone.__dict__ = _plain_state(self)
        for name, value in changes.items():
            setattr(clone, name, value)
        return clone


class Memoised:
    """Mixed into the nodes the parse memos own (one tree serves every
    stylesheet with the same text): ``without_predicates()`` is made once
    and kept on the node as a runtime handle, like the bound closure —
    pickling drops it, two threads racing the first call both get a
    correct form, and it goes when the memo drops the node."""

    _stripped = None

    def without_predicates(self):
        stripped = self._stripped
        if stripped is None:
            stripped = super().without_predicates()
            if stripped is not self:  # no self-reference: refcount frees it
                self._stripped = stripped
        return stripped

    def __getstate__(self):
        return _plain_state(self)


class Expr(Structure):
    """Base class for all expression nodes."""

    def evaluate(self, context):
        raise NotImplementedError

    def bound(self):
        """A callable ``fn(context) -> value`` for this node.  A node that
        evaluates itself (the XQuery ones) is its own."""
        return self.evaluate

    def to_text(self):
        raise NotImplementedError

    def iter_tree(self):
        """This node and all sub-expressions, pre-order."""
        yield self
        for child in self.child_exprs():
            for node in child.iter_tree():
                yield node

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.to_text())


class XPathExpr(Memoised, Expr):
    """An XPath 1.0 node.  ``compile()`` holds its semantics; ``bound()``
    is the closure it returned, made on first use and kept on the node as a
    runtime handle: pickling drops it, and it closes over the node's fields
    and its children's closures, never over the node (no cycle)."""

    _fn = None

    def compile(self):
        raise NotImplementedError

    def bound(self):
        fn = self._fn
        if fn is None:
            fn = self._fn = self.compile()
        return fn

    def evaluate(self, context):
        return self.bound()(context)


class Literal(XPathExpr):
    """A string literal."""

    def __init__(self, value):
        self.value = value

    def compile(self):
        value = self.value
        return lambda context: value

    def to_text(self):
        if '"' not in self.value:
            return '"%s"' % self.value
        return "'%s'" % self.value


class NumberLiteral(XPathExpr):
    """A numeric literal (always a float, per XPath 1.0)."""

    def __init__(self, value):
        self.value = float(value)

    compile = Literal.compile

    def to_text(self):
        return number_to_string(self.value)


class VariableRef(XPathExpr):
    """A ``$name`` reference."""

    def __init__(self, name):
        self.name = name

    def compile(self):
        name = self.name

        def variable(context):
            try:
                return context.variables[name]
            except KeyError:
                return context.lookup_variable(name)  # the undefined-$x error

        return variable

    def to_text(self):
        return "$%s" % self.name


class ContextItem(XPathExpr):
    """The ``.`` expression."""

    def compile(self):
        def context_item(context):
            node = context.node
            if node is None:
                raise XPathEvaluationError("no context item")
            return [node] if isinstance(node, Node) else node

        return context_item

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


class FunctionCall(XPathExpr):
    """A call into the function library (core + host registered)."""

    _parts = ("args",)

    def __init__(self, name, args):
        self.name = name
        self.args = args

    def compile(self):
        name = self.name
        args = [arg.bound() for arg in self.args]
        count = len(args)

        core = CORE_FUNCTIONS.get(name)  # looked up once; overlay per call

        def call(context):
            # an unknown name or a wrong arity is an error of the call that
            # is reached, never of the compile
            entry = context.functions.get(name) or core
            if entry is None:
                raise XPathEvaluationError("unknown function %s()" % name)
            min_args, max_args, impl = entry
            if count < min_args or (max_args is not None and count > max_args):
                raise XPathEvaluationError(
                    "%s() expects %s argument(s), got %d"
                    % (name, _arity_text(min_args, max_args), count)
                )
            return impl(context, *[arg(context) for arg in args])

        return call

    def to_text(self):
        return "%s(%s)" % (self.name, ", ".join(a.to_text() for a in self.args))


def _arity_text(min_args, max_args):
    if max_args is None:
        return "%d+" % min_args
    if min_args == max_args:
        return str(min_args)
    return "%d..%d" % (min_args, max_args)


class UnaryMinus(XPathExpr):
    _parts = ("operand",)

    def __init__(self, operand):
        self.operand = operand

    def compile(self):
        operand = self.operand.bound()
        return lambda context: -to_number(operand(context))

    def to_text(self):
        return "-%s" % self.operand.to_text()


class BinaryOp(XPathExpr):
    """Binary operators: or, and, comparisons, arithmetic."""

    _parts = ("left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def compile(self):
        op = self.op
        left, right = self.left.bound(), self.right.bound()
        if op == "or":
            return lambda context: (
                to_boolean(left(context)) or to_boolean(right(context)))
        if op == "and":
            return lambda context: (
                to_boolean(left(context)) and to_boolean(right(context)))
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return lambda context: compare_values(
                op, left(context), right(context))
        operate = _ARITHMETIC.get(op)

        def arithmetic(context):
            if operate is None:
                raise XPathEvaluationError("unknown operator %r" % op)
            return operate(to_number(left(context)), to_number(right(context)))

        return arithmetic

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


def _modulo(left, right):
    if right == 0 or right != right:
        return float("nan")
    return math.fmod(left, right)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "div": _divide, "mod": _modulo}


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
        return op == "!="  # IEEE 754: against NaN only != holds
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


class UnionExpr(XPathExpr):
    """``a | b``: node-set union in document order."""

    _parts = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def compile(self):
        parts = [part.bound() for part in self.parts]

        def union(context):
            nodes = []
            for part in parts:
                nodes.extend(to_node_set(part(context), "union operand"))
            return sort_document_order(nodes)

        return union

    def to_text(self):
        return " | ".join(part.to_text() for part in self.parts)


_ELEMENT = NodeKind.ELEMENT
_ATTRIBUTE = NodeKind.ATTRIBUTE


class NameTest:
    """Element/attribute name test: ``name``, ``prefix:name``, ``prefix:*``
    or ``*``."""

    __slots__ = ("prefix", "local")

    def __init__(self, prefix, local):
        self.prefix = prefix
        self.local = local

    def matcher(self, principal, uri):
        """``match(node) -> bool`` on ``(kind, local, uri)``: ``principal``
        is the axis's principal node kind, ``uri`` what the prefix resolved
        to (``None``: unprefixed, a no-namespace name).  ``_name`` is the
        slot behind an element's or attribute's ``name`` property, read
        directly because this runs once per candidate node."""
        local = self.local
        if local != "*":
            return lambda node: (node.kind == principal
                                 and node._name.local == local
                                 and node._name.uri == uri)
        if self.prefix is None:
            return lambda node: node.kind == principal
        return lambda node: node.kind == principal and node._name.uri == uri

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

    def matcher(self, principal, uri):
        """``match(node) -> bool``, or ``None`` for ``node()`` (every node
        matches)."""
        kind, target = self.kind, self.target
        if kind is None:
            return None
        if kind == NodeKind.PI and target is not None:
            return lambda node: node.kind == kind and node.target == target
        return lambda node: node.kind == kind

    def to_text(self):
        if self.kind is None:
            return "node()"
        if self.kind == NodeKind.PI and self.target is not None:
            return 'processing-instruction("%s")' % self.target
        return "%s()" % self.kind


def bind_prefix(test, build):
    """``build(uri)`` makes a step's closure ``fn(node, context)`` for the
    namespace its test's prefix resolved to.  Unprefixed: built once.
    Prefixed: resolved in the context's bindings each time the step is
    reached — one tree serves every stylesheet that parses the same text,
    and an undeclared prefix is an error of the evaluation that reaches it."""
    prefix = getattr(test, "prefix", None)
    if prefix is None:
        return build(None)
    return lambda node, context: build(
        context.resolve_prefix(prefix))(node, context)


class Step(Structure):
    """A single location step: axis, node test, predicates."""

    __slots__ = ("axis", "test", "predicates")
    _parts = ("predicates",)

    def __init__(self, axis, test, predicates=None):
        self.axis = axis
        self.test = test
        self.predicates = predicates or []

    def without_predicates(self):
        return self.clone(predicates=[]) if self.predicates else self

    def compile(self):
        """``select(node, context)``: the nodes this step reaches from one
        context node, in axis order with predicates applied."""
        axis, test = self.axis, self.test
        filters = [compile_predicate(expr) for expr in self.predicates]

        def build(uri):
            select = _axis_select(axis, test, uri)
            if not filters:
                return select

            def filtered(node, context):
                nodes = select(node, context)
                for keep in filters:
                    nodes = keep(nodes, context)
                return nodes

            return filtered

        return bind_prefix(test, build)

    def select(self, node, context):
        return self.compile()(node, context)

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


def _axis_select(axis, test, uri):
    """The predicate-free part of a step as ``select(node, context)``."""
    principal = _ATTRIBUTE if axis == "attribute" else _ELEMENT
    match = test.matcher(principal, uri)
    local = getattr(test, "local", "*")
    if axis == "child":
        if local != "*":
            return lambda node, context: [
                child for child in node.children
                if child.kind == _ELEMENT and child._name.local == local
                and child._name.uri == uri]
        if match is None:
            return lambda node, context: list(node.children)
        return lambda node, context: [
            child for child in node.children if match(child)]
    if axis == "attribute":
        if match is None:
            match = lambda node: True  # noqa: E731 - attribute::node()
        return lambda node, context: [
            attribute for attribute in node.attributes if match(attribute)
        ] if node.kind == _ELEMENT else []
    if axis == "self":
        return lambda node, context: (
            [node] if match is None or match(node) else [])
    if axis == "parent":
        def parent(node, context):
            up = node.parent
            return [up] if up is not None and (
                match is None or match(up)) else []

        return parent
    walk = AXES[axis]
    if match is None:
        return lambda node, context: list(walk(node))
    return lambda node, context: [
        candidate for candidate in walk(node) if match(candidate)]


def compile_predicate(expr):
    """One predicate as ``keep(nodes, context) -> survivors`` over a node
    list already in axis order.  One context serves the whole pass: its
    node and position are re-pointed at each candidate."""
    if isinstance(expr, NumberLiteral):  # [k]: no context at all
        index = expr.value
        if index < 1 or not index.is_integer():
            return lambda nodes, context: []
        return lambda nodes, context: nodes[int(index) - 1:int(index)]
    test = expr.bound()

    def keep(nodes, context):
        if not nodes:
            return nodes
        focus = context.with_node(nodes[0], 0, len(nodes))
        survivors = []
        position = 0
        for node in nodes:
            position += 1
            focus.node = node
            focus.position = position
            value = test(focus)
            if isinstance(value, bool):
                if value:
                    survivors.append(node)
            elif isinstance(value, (int, float)):
                if value == position:
                    survivors.append(node)
            elif to_boolean(value):
                survivors.append(node)
        return survivors

    return keep


class PathExpr(XPathExpr):
    """A location path, optionally rooted at a primary expression.

    ``absolute`` paths start at the document root; otherwise at the context
    node (or at ``start``'s value when present).
    """

    _parts = ("start", "steps")

    def __init__(self, steps, start=None, absolute=False):
        self.steps = steps
        self.start = start
        self.absolute = absolute

    def compile(self):
        start = self.start.bound() if self.start is not None else None
        absolute = self.absolute
        # (select, reverse axis?, gathered output needs no sort?).  From one
        # context node, child/attribute/self steps reach nodes none of which
        # is another's ancestor; gathering a downward step over those, in
        # order, is already document order.  Descendants may nest: the step
        # after them sorts.
        steps = []
        flat = start is None
        for step in self.steps:
            ordered = flat and step.axis in _DOWNWARD_AXES
            steps.append((step.compile(), step.axis in REVERSE_AXES, ordered))
            flat = ordered and step.axis in _DOWNWARD_AXES[:3]

        def path(context):
            if start is not None:
                nodes = to_node_set(start(context), "path start")
            elif context.node is None:
                raise XPathEvaluationError(
                    "%s path with no context node"
                    % ("absolute" if absolute else "relative"))
            else:
                nodes = [context.node.root() if absolute else context.node]
            for select, reverse, ordered in steps:
                if len(nodes) == 1 and not reverse:
                    # One context node along a forward axis: select()
                    # already returns document order with no duplicates.
                    nodes = select(nodes[0], context)
                    continue
                gathered = []
                for node in nodes:
                    gathered.extend(select(node, context))
                nodes = gathered if ordered else sort_document_order(gathered)
            return nodes

        return path

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


_DOWNWARD_AXES = ("child", "attribute", "self", "descendant",
                  "descendant-or-self")


class FilterExpr(XPathExpr):
    """A primary expression with predicates: ``$x[1]``, ``(a|b)[last()]``."""

    _parts = ("primary", "predicates")

    def __init__(self, primary, predicates):
        self.primary = primary
        self.predicates = predicates

    def without_predicates(self):
        return self.primary.without_predicates()

    def compile(self):
        primary = self.primary.bound()
        filters = [compile_predicate(expr) for expr in self.predicates]

        def filter_expr(context):
            nodes = sort_document_order(
                to_node_set(primary(context), "filter expression"))
            for keep in filters:
                nodes = keep(nodes, context)
            return nodes

        return filter_expr

    def to_text(self):
        text = self.primary.to_text()
        if not isinstance(self.primary, (VariableRef, FunctionCall, ContextItem)):
            text = "(%s)" % text
        for predicate in self.predicates:
            text += "[%s]" % predicate.to_text()
        return text


#: the node types whose value is always a (validated) node list
NODE_SET_EXPRS = (PathExpr, UnionExpr, FilterExpr)
