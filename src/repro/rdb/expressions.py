"""Scalar SQL expressions.

Expressions evaluate against an *environment*: a mapping from table alias
to a ``{column: value}`` dict for the current row of that alias.  Correlated
subqueries simply see the outer environment merged in.

Every expression renders itself to SQL text (``to_sql``) so rewritten plans
can be shown in the paper's Table 7 / Table 11 form.
"""

from __future__ import annotations

from repro.errors import DatabaseError


class SqlExpr:
    """Base class for scalar expressions."""

    def evaluate(self, env, db, stats):
        raise NotImplementedError

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

    def evaluate(self, env, db, stats):
        return self.value

    def to_sql(self):
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'%s'" % self.value.replace("'", "''")
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, float) and self.value == int(self.value):
            return str(int(self.value))
        return str(self.value)


class ColumnRef(SqlExpr):
    """A (possibly alias-qualified) column reference."""

    def __init__(self, column, table=None):
        self.column = column
        self.table = table

    def evaluate(self, env, db, stats):
        if self.table is not None:
            row = env.get(self.table)
            if row is None:
                raise DatabaseError(
                    "alias %r is not in scope (have: %s)"
                    % (self.table, ", ".join(sorted(env)) or "none")
                )
            if self.column not in row:
                raise DatabaseError(
                    "no column %r in alias %r" % (self.column, self.table)
                )
            return row[self.column]
        matches = [row for row in env.values() if self.column in row]
        if not matches:
            raise DatabaseError("unknown column %r" % self.column)
        if len(matches) > 1:
            raise DatabaseError("ambiguous column %r" % self.column)
        return matches[0][self.column]

    def to_sql(self):
        if self.table:
            return '"%s"."%s"' % (self.table.upper(), self.column.upper())
        return '"%s"' % self.column.upper()


class BinOp(SqlExpr):
    """Binary operators: comparisons, arithmetic, AND/OR, || concat."""

    _COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}
    _ARITHMETIC = {"+", "-", "*", "/"}

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def child_exprs(self):
        return (self.left, self.right)

    def evaluate(self, env, db, stats):
        op = self.op
        if op == "AND":
            return bool(self.left.evaluate(env, db, stats)) and bool(
                self.right.evaluate(env, db, stats)
            )
        if op == "OR":
            return bool(self.left.evaluate(env, db, stats)) or bool(
                self.right.evaluate(env, db, stats)
            )
        left = self.left.evaluate(env, db, stats)
        right = self.right.evaluate(env, db, stats)
        if op == "||":
            return _text(left) + _text(right)
        if left is None or right is None:
            return None if op in self._ARITHMETIC else False
        if op in self._COMPARISONS:
            if isinstance(left, str) or isinstance(right, str):
                left, right = _text(left), _text(right)
            return self._compare(op, left, right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise DatabaseError("division by zero")
            return left / right
        raise DatabaseError("unknown operator %r" % op)

    @staticmethod
    def _compare(op, left, right):
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right

    def to_sql(self):
        return "%s %s %s" % (self.left.to_sql(), self.op, self.right.to_sql())


class Not(SqlExpr):
    def __init__(self, operand):
        self.operand = operand

    def child_exprs(self):
        return (self.operand,)

    def evaluate(self, env, db, stats):
        return not bool(self.operand.evaluate(env, db, stats))

    def to_sql(self):
        return "NOT (%s)" % self.operand.to_sql()


class IsNull(SqlExpr):
    def __init__(self, operand, negated=False):
        self.operand = operand
        self.negated = negated

    def child_exprs(self):
        return (self.operand,)

    def evaluate(self, env, db, stats):
        result = self.operand.evaluate(env, db, stats) is None
        return not result if self.negated else result

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

    def evaluate(self, env, db, stats):
        for condition, value in self.whens:
            if bool(condition.evaluate(env, db, stats)):
                return value.evaluate(env, db, stats)
        if self.otherwise is not None:
            return self.otherwise.evaluate(env, db, stats)
        return None

    def to_sql(self):
        parts = ["CASE"]
        for condition, value in self.whens:
            parts.append("WHEN %s THEN %s" % (condition.to_sql(), value.to_sql()))
        if self.otherwise is not None:
            parts.append("ELSE %s" % self.otherwise.to_sql())
        parts.append("END")
        return " ".join(parts)


class FuncCall(SqlExpr):
    """A small library of scalar SQL functions."""

    def __init__(self, name, args):
        self.name = name.upper()
        self.args = args

    def child_exprs(self):
        return tuple(self.args)

    def evaluate(self, env, db, stats):
        values = [arg.evaluate(env, db, stats) for arg in self.args]
        name = self.name
        if name == "UPPER":
            return _text(values[0]).upper()
        if name == "LOWER":
            return _text(values[0]).lower()
        if name == "LENGTH":
            return float(len(_text(values[0])))
        if name == "ABS":
            return abs(values[0])
        if name == "ROUND":
            digits = int(values[1]) if len(values) > 1 else 0
            return round(values[0], digits)
        if name == "SUBSTR":
            text = _text(values[0])
            start = int(values[1]) - 1
            if len(values) > 2:
                return text[start:start + int(values[2])]
            return text[start:]
        if name == "CONCAT":
            return "".join(_text(value) for value in values)
        if name == "COALESCE":
            for value in values:
                if value is not None:
                    return value
            return None
        if name == "TO_CHAR":
            return _text(values[0])
        if name == "MOD":
            return values[0] % values[1]
        raise DatabaseError("unknown SQL function %s()" % name)

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

    def evaluate(self, env, db, stats):
        anc = env[self.anc_alias]
        desc = env[self.desc_alias]
        if anc["doc_id"] != desc["doc_id"]:
            return False
        target = anc["node_id"]
        table = db.table(self.table_name)
        index = db.find_index(self.table_name, "node_id")
        if index is None:
            raise DatabaseError(
                "TREE_CONTAINS needs a node_id index on %r"
                % self.table_name)
        parent_position = table.schema.position_of("parent_id")
        parent = desc["parent_id"]
        while parent:
            if parent == target:
                return True
            row_ids = index.lookup_eq(parent, stats=stats)
            if not row_ids:
                return False
            stats.rows_scanned += 1
            parent = table.fetch(row_ids[0])[parent_position]
        return False

    def to_sql(self):
        return "TREE_CONTAINS(%s, %s)" % (self.anc_alias, self.desc_alias)


class ScalarSubquery(SqlExpr):
    """A correlated scalar subquery: ``(SELECT expr FROM ... WHERE ...)``.

    If the select expression is an aggregate (including ``XMLAgg``), all
    matching rows feed the aggregate; otherwise at most one row may match.
    """

    def __init__(self, query):
        self.query = query  # a plan.Query with exactly one output

    def child_exprs(self):
        return ()

    def evaluate(self, env, db, stats):
        values = self.query.execute_scalar(db, env, stats)
        return values

    def to_sql(self):
        return "(%s)" % self.query.to_sql()


def _text(value):
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, float) and value == int(value):
        return str(int(value))
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
