"""Scalar SQL expressions.

An expression is *bound* once per (plan, catalog) and then called once
per row: ``expr.bind(binder, layout)`` resolves every column reference
to a slot of the flat tuple row (:mod:`repro.rdb.binding`) and returns a
closure ``f(row, stats)``.  Name errors (unknown alias or column,
ambiguous column, unknown function or operator) are raised by ``bind``;
a closure only indexes tuples.  Correlated subqueries see the outer row
as the prefix of their own rows.

Every expression renders itself to SQL text (``to_sql``) so rewritten plans
can be shown in the paper's Table 7 / Table 11 form.
"""

from __future__ import annotations

import operator

from repro.errors import DatabaseError
from repro.rdb.binding import Binder, Layout
from repro.xpath.ast import _divide as xpath_divide, _modulo as xpath_mod
from repro.xpath.datamodel import number_to_string, to_number
from repro.xpath.functions import fn_normalize_space


class SqlExpr:
    """Base class for scalar expressions."""

    def bind(self, binder, layout):
        """Resolve against ``layout``; returns ``f(row, stats)``."""
        raise NotImplementedError

    def evaluate(self, env, db=None, stats=None):
        """Convenience for one-off evaluation against an ``{alias:
        {column: value}}`` environment: binds against its shape, then
        calls the closure once (plans bind once and call per row)."""
        layout, row = Layout.of_env(env)
        markup = stats is not None and stats.markup
        return self.bind(Binder(db, markup), layout)(row, stats)

    def to_sql(self):
        raise NotImplementedError

    def child_exprs(self):
        return ()

    def iter_tree(self):
        yield self
        for child in self.child_exprs():
            for node in child.iter_tree():
                yield node

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.to_sql())


class Const(SqlExpr):
    """A literal value."""

    def __init__(self, value):
        self.value = value

    def bind(self, binder, layout):
        value = self.value
        return lambda row, stats: value

    def to_sql(self):
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'%s'" % self.value.replace("'", "''")
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, float) and self.value.is_integer():
            return str(int(self.value))
        return str(self.value)


class ColumnRef(SqlExpr):
    """A (possibly alias-qualified) column reference.  ``numeric``: a
    storage's view says the column is declared INT/FLOAT (no cast needed)."""

    def __init__(self, column, table=None, numeric=False):
        self.column = column
        self.table = table
        self.numeric = numeric

    def bind(self, binder, layout):
        slot = layout.slot(self.column, self.table)
        return lambda row, stats: row[slot]

    def to_sql(self):
        if self.table:
            return '"%s"."%s"' % (self.table.upper(), self.column.upper())
        return '"%s"' % self.column.upper()


def _divide(left, right):
    if right == 0:
        raise DatabaseError("division by zero")
    return left / right


class BinOp(SqlExpr):
    """Binary operators: comparisons, arithmetic, AND/OR, || concat.

    Typed operands compare and compute natively, text against text as
    text.  A text operand in a numeric context — arithmetic, comparison
    against a number — is character data: both sides go through XPath's
    ``to_number`` (a non-number is NaN: only ``<>`` holds against it)."""

    _COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                    "<=": operator.le, ">": operator.gt, ">=": operator.ge}
    _ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                   "/": _divide}

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def child_exprs(self):
        return (self.left, self.right)

    def bind(self, binder, layout):
        op = self.op
        left = self.left.bind(binder, layout)
        right = self.right.bind(binder, layout)
        if op == "AND":
            return lambda row, stats: (
                bool(left(row, stats)) and bool(right(row, stats)))
        if op == "OR":
            return lambda row, stats: (
                bool(left(row, stats)) or bool(right(row, stats)))
        if op == "||":
            return lambda row, stats: (
                _text(left(row, stats)) + _text(right(row, stats)))
        comparing = op in self._COMPARISONS
        apply = self._COMPARISONS.get(op) or self._ARITHMETIC.get(op)
        if apply is None:
            raise DatabaseError("unknown operator %r" % op)

        def binary(row, stats):
            a = left(row, stats)
            b = right(row, stats)
            if a is None or b is None:
                return False if comparing else None
            if isinstance(a, str) or isinstance(b, str):
                if comparing and type(a) not in (int, float) \
                        and type(b) not in (int, float):  # bools: as text
                    return apply(_text(a), _text(b))
                return apply(to_number(a), to_number(b))
            return apply(a, b)

        return binary

    def to_sql(self):
        return "%s %s %s" % (self.left.to_sql(), self.op, self.right.to_sql())


class Not(SqlExpr):
    def __init__(self, operand):
        self.operand = operand

    def child_exprs(self):
        return (self.operand,)

    def bind(self, binder, layout):
        operand = self.operand.bind(binder, layout)
        return lambda row, stats: not operand(row, stats)

    def to_sql(self):
        return "NOT (%s)" % self.operand.to_sql()


class IsNull(SqlExpr):
    def __init__(self, operand, negated=False):
        self.operand = operand
        self.negated = negated

    def child_exprs(self):
        return (self.operand,)

    def bind(self, binder, layout):
        operand = self.operand.bind(binder, layout)
        if self.negated:
            return lambda row, stats: operand(row, stats) is not None
        return lambda row, stats: operand(row, stats) is None

    def to_sql(self):
        return "%s IS %sNULL" % (
            self.operand.to_sql(), "NOT " if self.negated else ""
        )


class CaseWhen(SqlExpr):
    """``CASE WHEN cond THEN value ... ELSE value END``."""

    def __init__(self, whens, otherwise=None):
        self.whens = whens  # list of (condition, value) expr pairs
        self.otherwise = otherwise

    def child_exprs(self):
        out = []
        for condition, value in self.whens:
            out.extend((condition, value))
        if self.otherwise is not None:
            out.append(self.otherwise)
        return tuple(out)

    def bind(self, binder, layout):
        whens = [
            (condition.bind(binder, layout), value.bind(binder, layout))
            for condition, value in self.whens
        ]
        otherwise = (Const(None) if self.otherwise is None
                     else self.otherwise).bind(binder, layout)

        def case(row, stats):
            for condition, value in whens:
                if condition(row, stats):
                    return value(row, stats)
            return otherwise(row, stats)

        return case

    def to_sql(self):
        parts = ["CASE"]
        for condition, value in self.whens:
            parts.append("WHEN %s THEN %s" % (condition.to_sql(), value.to_sql()))
        if self.otherwise is not None:
            parts.append("ELSE %s" % self.otherwise.to_sql())
        parts.append("END")
        return " ".join(parts)


def _substr(values):
    text = _text(values[0])
    start = int(values[1]) - 1
    if len(values) > 2:
        return text[start:start + int(values[2])]
    return text[start:]


def _xpath_div(values):
    """XPath ``div``: a zero divisor gives ±Infinity or NaN, not an
    error; a NULL operand gives NULL, like SQL ``/``."""
    if values[0] is None or values[1] is None:
        return None
    return xpath_divide(*map(to_number, values))


def _coalesce(values):
    for value in values:
        if value is not None:
            return value
    return None


class FuncCall(SqlExpr):
    """A small library of scalar SQL functions."""

    #: name -> function of the evaluated argument list
    _FUNCTIONS = {
        "UPPER": lambda values: _text(values[0]).upper(),
        "LOWER": lambda values: _text(values[0]).lower(),
        "LENGTH": lambda values: float(len(_text(values[0]))),
        "ABS": lambda values: abs(values[0]),
        "ROUND": lambda values: round(
            values[0], int(values[1]) if len(values) > 1 else 0),
        "SUBSTR": _substr,
        "CONCAT": lambda values: "".join(_text(value) for value in values),
        "COALESCE": _coalesce,
        "TO_CHAR": lambda values: _text(values[0]),
        # the XPath library's own arithmetic and conversions
        "MOD": lambda values: xpath_mod(*map(to_number, values)),
        "DIV": _xpath_div,
        "NUMBER": lambda values: to_number(_text(values[0])),
        "NORMALIZE_SPACE": lambda values: fn_normalize_space(
            None, _text(values[0])),
    }

    def __init__(self, name, args):
        self.name = name.upper()
        self.args = args

    def child_exprs(self):
        return tuple(self.args)

    def bind(self, binder, layout):
        function = self._FUNCTIONS.get(self.name)
        if function is None:
            raise DatabaseError("unknown SQL function %s()" % self.name)
        args = [arg.bind(binder, layout) for arg in self.args]
        return lambda row, stats: function([arg(row, stats) for arg in args])

    def to_sql(self):
        return "%s(%s)" % (
            self.name, ", ".join(arg.to_sql() for arg in self.args)
        )


class TreeContains(SqlExpr):
    """Structural containment: is ``anc_alias``'s row a proper ancestor of
    ``desc_alias``'s row in the shredded node table?

    Evaluation is the *naive* semantics the paper's tree-walk baseline pays
    for: walk the descendant's ``parent_id`` chain with one ``node_id``
    index probe per hop until the ancestor (or the root) is reached.  The
    cost planner recognises a join on this predicate and, when a structural
    path index exists, replaces the walk with a
    :class:`~repro.rdb.plan.StructuralJoin` over containment labels.
    """

    def __init__(self, table_name, anc_alias, desc_alias):
        self.table_name = table_name
        self.anc_alias = anc_alias
        self.desc_alias = desc_alias
        # Exposed as children so alias-reference analysis (conjunct
        # classification, correlation checks) sees both sides.
        self._refs = (
            ColumnRef("node_id", anc_alias),
            ColumnRef("parent_id", desc_alias),
        )

    def child_exprs(self):
        return self._refs

    def bind(self, binder, layout):
        anc_doc = layout.slot("doc_id", self.anc_alias)
        anc_node = layout.slot("node_id", self.anc_alias)
        desc_doc = layout.slot("doc_id", self.desc_alias)
        desc_parent = layout.slot("parent_id", self.desc_alias)
        table = binder.table(self.table_name)
        index = binder.db.find_index(self.table_name, "node_id")
        if index is None:
            raise DatabaseError(
                "TREE_CONTAINS needs a node_id index on %r"
                % self.table_name)
        parent_position = table.schema.position_of("parent_id")
        rows = table.rows

        def contains(row, stats):
            if row[anc_doc] != row[desc_doc]:
                return False
            target = row[anc_node]
            parent = row[desc_parent]
            while parent:
                if parent == target:
                    return True
                row_ids = index.lookup_eq(parent, stats=stats)
                if not row_ids:
                    return False
                stats.rows_scanned += 1
                parent = rows[row_ids[0]][parent_position]
            return False

        return contains

    def to_sql(self):
        return "TREE_CONTAINS(%s, %s)" % (self.anc_alias, self.desc_alias)


class ScalarSubquery(SqlExpr):
    """A correlated scalar subquery: ``(SELECT expr FROM ... WHERE ...)``.

    If the select expression is an aggregate (including ``XMLAgg``), all
    matching rows feed the aggregate; otherwise at most one row may match.
    The subquery's plan is bound with the enclosing row's layout as its
    outer prefix, so it runs once per outer row over ``row + inner``.
    """

    def __init__(self, query):
        self.query = query  # a plan.Query with exactly one output

    def child_exprs(self):
        return ()

    def bind(self, binder, layout):
        return self.query.bind_scalar(binder, layout)

    def to_sql(self):
        return "(%s)" % self.query.to_sql()


def _text(value):
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, float):
        return number_to_string(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# Convenience constructors used throughout the rewrite and tests.

def col(name, table=None):
    return ColumnRef(name, table)


def const(value):
    return Const(value)


def eq(left, right):
    return BinOp("=", left, right)


def gt(left, right):
    return BinOp(">", left, right)


def and_(left, right):
    return BinOp("AND", left, right)


def concat(*parts):
    expr = parts[0]
    for part in parts[1:]:
        expr = BinOp("||", expr, part)
    return expr
