"""The tree-walking XPath evaluator the compiled closures replaced.

The ``evaluate()`` bodies of ``repro.xpath.ast`` and the ``matches()``
bodies of ``repro.xpath.patterns`` as they stood before the AST learned to
``compile()``, moved here as functions dispatched on the node's type (the
AST classes in ``src`` no longer carry them).  Every recursive call goes
through :func:`evaluate` / :func:`pattern_matches` in this module, so the
reference never runs a compiled closure.  The conversion and comparison
helpers (``to_string``, ``compare_values``, the axis generators, the core
function table) are shared with ``src``: they are values-in, values-out and
the compiled evaluator did not change them.
"""

import math

from repro.errors import XPathEvaluationError
from repro.xmlmodel.nodes import Node, NodeKind
from repro.xpath import ast as xp
from repro.xpath.axes import AXES, REVERSE_AXES
from repro.xpath.ast import _arity_text, _divide, compare_values
from repro.xpath.datamodel import (
    sort_document_order,
    to_boolean,
    to_node_set,
    to_number,
)
from repro.xpath.functions import CORE_FUNCTIONS
from repro.xpath.patterns import CHILD, Pattern


def evaluate(expr, context):
    """``expr.evaluate(context)`` as the tree walk computed it."""
    walker = _EVALUATE.get(type(expr))
    if walker is None:  # an XQuery node: it still evaluates itself
        return expr.evaluate(context)
    return walker(expr, context)


def _literal(self, context):
    return self.value


def _variable_ref(self, context):
    return context.lookup_variable(self.name)


def _context_item(self, context):
    if context.node is None:
        raise XPathEvaluationError("no context item")
    return [context.node] if isinstance(context.node, Node) else context.node


def _function_call(self, context):
    entry = context.functions.get(self.name)
    if entry is None:
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
    values = [evaluate(arg, context) for arg in self.args]
    return impl(context, *values)


def _unary_minus(self, context):
    return -to_number(evaluate(self.operand, context))


def _binary_op(self, context):
    op = self.op
    if op == "or":
        return to_boolean(evaluate(self.left, context)) or to_boolean(
            evaluate(self.right, context)
        )
    if op == "and":
        return to_boolean(evaluate(self.left, context)) and to_boolean(
            evaluate(self.right, context)
        )
    left = evaluate(self.left, context)
    right = evaluate(self.right, context)
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


def _union(self, context):
    nodes = []
    for part in self.parts:
        nodes.extend(to_node_set(evaluate(part, context), "union operand"))
    return sort_document_order(nodes)


def node_test_matches(test, node, principal_kind, context):
    """``NameTest.matches`` / ``KindTest.matches``."""
    if isinstance(test, xp.KindTest):
        if test.kind is None:
            return True
        if node.kind != test.kind:
            return False
        if test.kind == NodeKind.PI and test.target is not None:
            return node.target == test.target
        return True
    if node.kind != principal_kind:
        return False
    name = node.name
    if name is None:
        return False
    if test.prefix is None:
        return test.local == "*" or (
            name.local == test.local and name.uri is None
        )
    uri = context.resolve_prefix(test.prefix)
    if test.local == "*":
        return name.uri == uri
    return name.local == test.local and name.uri == uri


def step_select(step, node, context):
    """``Step.select``: axis order, predicates applied."""
    axis_fn = AXES[step.axis]
    principal = (
        NodeKind.ATTRIBUTE if step.axis == "attribute" else NodeKind.ELEMENT
    )
    selected = [
        candidate
        for candidate in axis_fn(node)
        if node_test_matches(step.test, candidate, principal, context)
    ]
    for predicate in step.predicates:
        selected = filter_by_predicate(selected, predicate, context)
    return selected


def filter_by_predicate(nodes, predicate, context):
    size = len(nodes)
    survivors = []
    for index, node in enumerate(nodes, start=1):
        sub = context.with_node(node, position=index, size=size)
        value = evaluate(predicate, sub)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            keep = float(value) == float(index)
        else:
            keep = to_boolean(value)
        if keep:
            survivors.append(node)
    return survivors


def _path(self, context):
    if self.start is not None:
        value = evaluate(self.start, context)
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
            nodes = step_select(step, nodes[0], context)
            continue
        gathered = []
        for node in nodes:
            gathered.extend(step_select(step, node, context))
        nodes = sort_document_order(gathered)
    return nodes


def _filter(self, context):
    value = evaluate(self.primary, context)
    nodes = to_node_set(value, "filter expression")
    nodes = sort_document_order(nodes)
    for predicate in self.predicates:
        nodes = filter_by_predicate(nodes, predicate, context)
    return nodes


_EVALUATE = {
    xp.Literal: _literal,
    xp.NumberLiteral: _literal,
    xp.VariableRef: _variable_ref,
    xp.ContextItem: _context_item,
    xp.FunctionCall: _function_call,
    xp.UnaryMinus: _unary_minus,
    xp.BinaryOp: _binary_op,
    xp.UnionExpr: _union,
    xp.PathExpr: _path,
    xp.FilterExpr: _filter,
}


# -- match patterns (the reverse-step walk) ------------------------------------


def pattern_matches(pattern, node, context):
    """``Pattern.matches`` / ``PathPattern.matches``."""
    if isinstance(pattern, Pattern):
        return any(
            pattern_matches(alt, node, context)
            for alt in pattern.alternatives
        )
    if not pattern.steps:  # the pattern "/" — matches the document node
        return node.kind == NodeKind.DOCUMENT
    if not _node_matches(pattern.steps[-1], node, context):
        return False
    return _chain_matches(pattern, node, len(pattern.steps) - 1, context)


def _node_matches(step, node, context):
    principal = (
        NodeKind.ATTRIBUTE if step.axis == "attribute" else NodeKind.ELEMENT
    )
    if not node_test_matches(step.test, node, principal, context):
        return False
    if not step.predicates:
        return True
    parent = node.parent
    if parent is None:
        siblings = [node]
    elif step.axis == "attribute":
        siblings = [
            attribute
            for attribute in parent.attributes
            if node_test_matches(step.test, attribute, NodeKind.ATTRIBUTE, context)
        ]
    else:
        siblings = [
            child
            for child in parent.children
            if node_test_matches(step.test, child, NodeKind.ELEMENT, context)
        ]
    survivors = siblings
    for predicate in step.predicates:
        survivors = filter_by_predicate(survivors, predicate, context)
    return any(candidate is node for candidate in survivors)


def _chain_matches(pattern, node, step_index, context):
    if step_index == 0:
        if not pattern.anchored:
            return True
        parent = node.parent
        return parent is not None and parent.kind == NodeKind.DOCUMENT
    connector = pattern.connectors[step_index - 1]
    prior = pattern.steps[step_index - 1]
    parent = node.parent
    if connector == CHILD:
        if parent is None:
            return False
        return _node_matches(prior, parent, context) and _chain_matches(
            pattern, parent, step_index - 1, context
        )
    ancestor = parent
    while ancestor is not None:
        if _node_matches(prior, ancestor, context) and _chain_matches(
            pattern, ancestor, step_index - 1, context
        ):
            return True
        ancestor = ancestor.parent
    return False
