"""Scalar SQL expressions.

An expression is *bound* once per (plan, catalog) and then called once
per row: ``expr.bind(binder, layout)`` resolves every column reference
to a slot of the flat tuple row (:mod:`repro.rdb.binding`) and returns a
function ``f(row, stats)``: a kind either has ``emit`` return Python
source for its value (``row[7]``, CASE as a conditional chain), which the
base ``bind`` compiles into one generated function per tree, or — holding
runtime state — has ``bind`` return a closure the source calls.  Name errors
(unknown alias or column, ambiguous column, unknown function or
operator) are raised at bind; a bound function only indexes tuples.
Correlated subqueries see the outer row as the prefix of their own rows.

Every expression renders itself to SQL text (``to_sql``) so rewritten plans
can be shown in the paper's Table 7 / Table 11 form.
"""

from __future__ import annotations

import functools
import math
import operator
from decimal import ROUND_HALF_UP, Context, Decimal

from repro.errors import DatabaseError
from repro.rdb.binding import Binder, Codegen, Layout
from repro.xpath.ast import _divide as xpath_divide, _modulo as xpath_mod
from repro.xpath.datamodel import number_to_string, to_number
from repro.xpath.functions import fn_normalize_space


class SqlExpr:
    """Base class for scalar expressions."""

    def bind(self, binder, layout):
        """Resolve against ``layout``; returns ``f(row, stats)``."""
        cg = Codegen()
        return cg.function("return " + cg.emit(self, binder, layout))

    def emit(self, binder, layout, cg):
        """Source of the value over ``row`` and ``stats``, built in
        ``cg``: here, a call of the bound closure."""
        return "%s(row, stats)" % cg.ref(self.bind(binder, layout))

    def value_type(self, layout):
        """The type of every non-NULL value over rows of ``layout`` —
        ``int``, ``float``, ``str`` — or None where the bind cannot tell."""
        return None

    def emit_typed(self, binder, layout, cg):
        """``(source, value_type)``: :meth:`emit` through ``cg`` and
        :meth:`value_type` in one call, for a caller that needs both."""
        return cg.emit(self, binder, layout), self.value_type(layout)

    def evaluate(self, env, db=None, stats=None):
        """Convenience for one-off evaluation against an ``{alias:
        {column: value}}`` environment: binds against its shape, then
        calls the closure once (plans bind once and call per row).
        Without ``stats`` the run's counters go to a throwaway one."""
        if stats is None:
            from repro.rdb.plan import ExecutionStats

            stats = ExecutionStats()
        layout, row = Layout.of_env(env)
        return self.bind(Binder(db), layout)(row, stats)

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

    def emit(self, binder, layout, cg):
        return cg.ref(self.value)

    def value_type(self, layout):
        kind = type(self.value)  # a bool is none of the three
        return kind if kind in (int, float, str) else None

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

    def emit(self, binder, layout, cg):
        return "row[%d]" % layout.slot(self.column, self.table)

    def value_type(self, layout):
        return layout.types[layout.slot(self.column, self.table)]

    def emit_typed(self, binder, layout, cg):
        slot = layout.slot(self.column, self.table)  # searched once
        return "row[%d]" % slot, layout.types[slot]

    def to_sql(self):
        if self.table:
            return '"%s"."%s"' % (self.table.upper(), self.column.upper())
        return '"%s"' % self.column.upper()


def _binary(apply, comparing, a, b):
    """``apply`` under SQL's NULL rule and the text-vs-number rule; a
    ±inf compares as the NaN XPath reads from its text, ``Infinity``."""
    if a is None or b is None:
        return False if comparing else None
    if comparing and (a in _INFINITIES or b in _INFINITIES):
        return apply(math.nan, math.nan)
    if isinstance(a, str) or isinstance(b, str):
        if comparing and type(a) not in (int, float) \
                and type(b) not in (int, float):  # bools: as text
            return apply(_text(a), _text(b))
        return apply(to_number(a), to_number(b))
    return apply(a, b)


def _concat(terms, binder, layout, cg):
    """Source of ``||`` over ``terms``: constants folded into one text at
    bind, a typed term converted inline, any other through ``_text``."""
    pieces, text = [], ""
    for expr in terms:
        if type(expr) is Const:
            text += _text(expr.value)
            continue
        if text:
            pieces.append(cg.ref(text))
            text = ""
        source, kind = expr.emit_typed(binder, layout, cg)
        if kind is str:
            pieces.append("(%s or '')" % source)
        elif kind is int and type(expr) is ColumnRef:
            pieces.append("('' if %s is None else str(%s))" % (source, source))
        else:
            pieces.append("%s(%s)" % (cg.helper("_text", _text), source))
    if text or not pieces:
        pieces.append(cg.ref(text))
    return "(%s)" % " + ".join(pieces)


_INFINITIES = (math.inf, -math.inf)


def _native(left_kind, right_kind):
    """Whether Python compares non-CASE operands of these static types as
    ``_binary`` does: two numbers or two texts (a typed constant or
    ``||`` is never NULL; a column's NULL test repeats only a tuple
    index)."""
    kinds = {left_kind, right_kind}
    return None not in kinds and (str not in kinds or len(kinds) == 1)


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

    def emit(self, binder, layout, cg):
        op = self.op
        if op not in ("AND", "OR", "||"):
            apply = self._COMPARISONS.get(op) or self._ARITHMETIC.get(op)
            if apply is None:
                raise DatabaseError("unknown operator %r" % op)
            if op in self._COMPARISONS and CaseWhen not in (
                    type(self.left), type(self.right)):
                (left, left_kind), (right, right_kind) = (
                    expr.emit_typed(binder, layout, cg)
                    for expr in (self.left, self.right))
                if _native(left_kind, right_kind):
                    operands = ((self.left, left, left_kind),
                                (self.right, right, right_kind))
                    test = "%s %s %s" % (
                        left, {"=": "==", "<>": "!="}.get(op, op), right)
                    # a ±inf compares as NaN, as in ``_binary``
                    finite = " and ".join(
                        "-%s < %s < _inf" % (cg.helper("_inf", math.inf),
                                             source)
                        for expr, source, kind in operands if kind is float
                        and not (type(expr) is Const
                                 and math.isfinite(expr.value)))
                    if finite:
                        test = ("(%s or not (%s))" if op == "<>"
                                else "%s and %s") % (test, finite)
                    return "(%s%s)" % ("".join(
                        "%s is not None and " % source
                        for expr, source, _ in operands
                        if type(expr) is ColumnRef), test)
            else:
                left, right = (cg.emit(expr, binder, layout)
                               for expr in (self.left, self.right))
            return "%s(%s, %s, %s, %s)" % (
                cg.helper("_binary", _binary), cg.ref(apply),
                op in self._COMPARISONS, left, right)
        # a chain of one operator is emitted flat, however long
        terms, stack = [], [self.right, self.left]
        while stack:
            expr = stack.pop()
            if type(expr) is BinOp and expr.op == op:
                stack += (expr.right, expr.left)
            else:
                terms.append(expr)
        if op == "||":
            return _concat(terms, binder, layout, cg)
        return "(True if %s else False)" % (" %s " % op.lower()).join(
            [cg.emit(expr, binder, layout) for expr in terms])

    def value_type(self, layout):
        return str if self.op == "||" else None

    def to_sql(self):
        return "%s %s %s" % (self.left.to_sql(), self.op, self.right.to_sql())


class Not(SqlExpr):
    def __init__(self, operand):
        self.operand = operand

    def child_exprs(self):
        return (self.operand,)

    def emit(self, binder, layout, cg):
        return "(not %s)" % cg.emit(self.operand, binder, layout)

    def to_sql(self):
        return "NOT (%s)" % self.operand.to_sql()


class IsNull(SqlExpr):
    def __init__(self, operand, negated=False):
        self.operand = operand
        self.negated = negated

    def child_exprs(self):
        return (self.operand,)

    def emit(self, binder, layout, cg):
        return "(%s is %sNone)" % (cg.emit(self.operand, binder, layout),
                                   "not " if self.negated else "")

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

    def emit(self, binder, layout, cg):
        # an unbracketed chain: ``v1 if c1 else v2 if c2 else v3``
        chain = []
        for condition, value in self.whens:
            condition = cg.emit(condition, binder, layout)
            chain.append("%s if %s else" % (cg.emit(value, binder, layout),
                                            condition))
        chain.append("None" if self.otherwise is None
                     else cg.emit(self.otherwise, binder, layout))
        return "(%s)" % " ".join(chain)

    def value_type(self, layout):
        """The constants' one type, when every branch is a constant (or
        such a CASE)."""
        kinds = {value.value_type(layout)
                 if type(value) in (Const, CaseWhen) else None
                 for value in [*(value for _, value in self.whens),
                               self.otherwise] if value is not None}
        return kinds.pop() if len(kinds) == 1 else None

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


#: wide enough to hold any float to the unit
_ROUNDING = Context(prec=400)


def _round(values):
    """SQL ``ROUND(x [, digits])`` as Oracle rounds: half away from zero
    on the decimal value (``ROUND(2.675, 2)`` is 2.68); NULL is NULL."""
    if None in values:
        return None
    value = values[0]
    if isinstance(value, float) and not math.isfinite(value):
        return value
    digits = int(values[1]) if len(values) > 1 else 0
    rounded = Decimal(str(value)).quantize(
        Decimal(1).scaleb(-digits), ROUND_HALF_UP, _ROUNDING)
    return float(rounded) if isinstance(value, float) else int(rounded)


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
        "ABS": lambda values: None if values[0] is None else abs(values[0]),
        "ROUND": _round,
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

    def emit(self, binder, layout, cg):
        function = self._FUNCTIONS.get(self.name)
        if function is None:
            raise DatabaseError("unknown SQL function %s()" % self.name)
        return "%s([%s])" % (cg.ref(function), ", ".join(
            cg.emit(arg, binder, layout) for arg in self.args))

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


def bind_tuple(binder, exprs, layout):
    """``f(row, stats)``: the tuple of ``exprs``' values (of bare columns,
    one function shared per slot tuple)."""
    slots = []
    for expr in exprs:
        if type(expr) is not ColumnRef:
            break
        slots.append(layout.slot(expr.column, expr.table))
    else:
        return _columns(tuple(slots))
    cg = Codegen()
    return cg.function("return " + tuple_source(exprs, binder, layout, cg))


def tuple_source(exprs, binder, layout, cg):
    """Source, built in ``cg``, of the tuple of ``exprs``' values."""
    return "(%s)" % "".join(
        [cg.emit(expr, binder, layout) + ", " for expr in exprs])


@functools.lru_cache(maxsize=256)
def _columns(slots):
    return Codegen().function(
        "return (%s)" % "".join(["row[%d], " % slot for slot in slots]))


def bind_order(binder, order_by, layout):
    """Bind ``(expr, descending)`` ORDER BY pairs: returns ``(key,
    directions)`` — ``key(row, stats)`` is the tuple of key values to
    decorate a row with, ``directions`` what ``sort_pairs`` takes."""
    key = bind_tuple(binder, [expr for expr, _ in order_by], layout)
    return key, [descending for _, descending in order_by]


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
