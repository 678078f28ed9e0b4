"""A SQL text front end for the relational engine.

Lets the paper's listings run verbatim: ``CREATE TABLE``, ``CREATE INDEX``,
``CREATE VIEW ... AS SELECT`` (including the Table-3 SQL/XML view with its
correlated ``XMLAgg`` subquery), ``INSERT INTO ... VALUES`` and ``SELECT``
queries with the SQL/XML publishing functions.

The grammar is the subset those listings use:

* ``SELECT item [AS name], ... FROM table [alias], ... [WHERE expr]
  [ORDER BY expr [DESC], ...]``
* expressions: comparisons (=, <>, !=, <, <=, >, >=), AND/OR/NOT,
  ``IS [NOT] NULL``, arithmetic, ``||``, ``CASE WHEN``, scalar subqueries,
  function calls (scalar functions, COUNT/SUM/AVG/MIN/MAX, XMLElement with
  XMLAttributes, XMLForest with AS, XMLConcat, XMLComment,
  XMLAgg [ORDER BY ...]);
* ``CREATE TABLE name (col TYPE, ...)`` with INT/INTEGER/NUMBER, FLOAT,
  TEXT/VARCHAR/VARCHAR2/CLOB, XML/XMLTYPE;
* ``CREATE [UNIQUE] INDEX [name] ON table (column)``;
* ``CREATE VIEW name AS SELECT ...``;
* ``INSERT INTO name VALUES (v, ...), (v, ...)``.

Identifiers are case-insensitive and lower-cased (quoted ``"Name"``
identifiers preserve case, lowered for catalog lookup like everything
else); keywords are recognised case-insensitively.
"""

from __future__ import annotations

import re

from repro.errors import DatabaseError, PlanError
from repro.rdb import expressions as e
from repro.rdb import sqlxml
from repro.rdb.plan import Filter, Limit, NestedLoopJoin, Query, Scan, Sort
from repro.rdb.types import FLOAT, INT, TEXT, XML

_TYPE_NAMES = {
    "int": INT, "integer": INT, "number": INT, "smallint": INT,
    "float": FLOAT, "real": FLOAT, "double": FLOAT,
    "text": TEXT, "varchar": TEXT, "varchar2": TEXT, "char": TEXT,
    "clob": TEXT, "string": TEXT,
    "xml": XML, "xmltype": XML,
}

_AGG_NAMES = {"count", "sum", "avg", "min", "max"}


class SqlSyntaxError(PlanError):
    """Raised when SQL text cannot be parsed."""


# -- lexer -------------------------------------------------------------------

#: one token a match, from where the last one ended: a blank or comment
#: (no group), or the kind its group names
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | --[^\n]*\n? | /\*.*?\*/
  | '(?P<string>(?:[^']|'')*)'
  | "(?P<quoted>[^"]*)"
  | (?P<number>\d[\d.]*|\.\d[\d.]*)
  | (?P<ident>[^\W\d][\w$]*)
  | (?P<symbol>\|\||<>|!=|<=|>=|/(?!\*)|[(),.*=<>+\-;])
""", re.VERBOSE | re.DOTALL)
_UNTERMINATED = {"/*": "unterminated /* comment",
                 "'": "unterminated string literal",
                 '"': "unterminated quoted identifier"}


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        self.kind = kind  # 'ident', 'quoted', 'number', 'string', 'symbol', 'eof'
        self.value = value

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.value)


def _lex(source):
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        if match is None:
            raise SqlSyntaxError(
                _UNTERMINATED.get(source[pos:pos + 2])
                or _UNTERMINATED.get(source[pos])
                or "unexpected character %r" % source[pos])
        pos = match.end()
        kind = match.lastgroup
        if kind is None:
            continue
        value = match.group(kind)
        if kind == "number":
            if value.count(".") > 1:
                raise SqlSyntaxError("malformed number %r" % value)
            value = float(value) if "." in value else int(value)
        elif kind == "string":
            value = value.replace("''", "'")
        elif kind != "symbol":
            value = value.lower()
        tokens.append(_Token(kind, value))
    tokens.append(_Token("eof", None))
    return tokens


# -- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, source):
        self.tokens = _lex(source)
        self.pos = 0

    def peek(self, offset=0):
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self):
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def at_keyword(self, *words):
        token = self.peek()
        return token.kind == "ident" and token.value in words

    def at_symbol(self, symbol):
        token = self.peek()
        return token.kind == "symbol" and token.value == symbol

    def accept(self, word):
        """Consume the keyword or symbol ``word`` if it comes next;
        whether it did."""
        token = self.peek()
        if token.kind in ("ident", "symbol") and token.value == word:
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word):
        token = self.advance()
        if token.kind != "ident" or token.value != word:
            raise SqlSyntaxError("expected %s, got %r" % (word.upper(),
                                                          token.value))

    def expect_symbol(self, symbol):
        token = self.advance()
        if token.kind != "symbol" or token.value != symbol:
            raise SqlSyntaxError("expected %r, got %r" % (symbol, token.value))

    def expect_name(self):
        token = self.advance()
        if token.kind not in ("ident", "quoted"):
            raise SqlSyntaxError("expected an identifier, got %r" % token.value)
        return token.value

    def comma_list(self, item):
        """``item()`` once, then again after each comma."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    # -- statements --------------------------------------------------------------

    def parse_statement(self):
        if self.at_keyword("select"):
            statement = ("select", self.parse_select())
        elif self.at_keyword("create"):
            statement = self._parse_create()
        elif self.at_keyword("insert"):
            statement = self._parse_insert()
        elif self.accept("drop"):
            self.expect_keyword("table")
            statement = ("drop_table", self.expect_name())
        elif self.accept("analyze"):
            statement = ("analyze", self.expect_name() if self.peek().kind
                         in ("ident", "quoted") else None)
        else:
            raise SqlSyntaxError(
                "unsupported statement starting with %r" % self.peek().value
            )
        self.accept(";")
        if self.peek().kind != "eof":
            raise SqlSyntaxError(
                "trailing input after statement: %r" % self.peek().value
            )
        return statement

    def _parse_create(self):
        self.expect_keyword("create")
        if self.accept("table"):
            name = self.expect_name()
            self.expect_symbol("(")
            columns = self.comma_list(self._parse_column)
            self.expect_symbol(")")
            return ("create_table", name, columns)
        self.accept("unique")
        if self.accept("index"):
            index_name = None
            if not self.at_keyword("on"):
                index_name = self.expect_name()
            self.expect_keyword("on")
            table = self.expect_name()
            self.expect_symbol("(")
            column = self.expect_name()
            self.expect_symbol(")")
            return ("create_index", table, column, index_name)
        if self.accept("view"):
            name = self.expect_name()
            self.expect_keyword("as")
            return ("create_view", name, self.parse_select())
        raise SqlSyntaxError("unsupported CREATE %r" % self.peek().value)

    def _parse_column(self):
        column_name = self.expect_name()
        type_token = self.advance()
        if type_token.kind != "ident" or type_token.value not in _TYPE_NAMES:
            raise SqlSyntaxError("unknown column type %r" % type_token.value)
        if self.accept("("):  # swallow (n) length specs
            self.advance()
            self.expect_symbol(")")
        return (column_name, _TYPE_NAMES[type_token.value])

    def _parse_insert(self):
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_name()
        self.expect_keyword("values")
        return ("insert", table, self.comma_list(self._parse_row))

    def _parse_row(self):
        self.expect_symbol("(")
        values = self.comma_list(self._parse_literal)
        self.expect_symbol(")")
        return tuple(values)

    def _parse_literal(self):
        token = self.advance()
        if token.kind in ("string", "number"):
            return token.value
        if token.kind == "ident" and token.value == "null":
            return None
        if token.kind == "symbol" and token.value == "-":
            number = self.advance()
            if number.kind != "number":
                raise SqlSyntaxError("expected a number after '-'")
            return -number.value
        raise SqlSyntaxError("expected a literal, got %r" % token.value)

    # -- SELECT ---------------------------------------------------------------------

    def parse_select(self):
        self.expect_keyword("select")
        outputs = self.comma_list(self._parse_select_item)
        plan = self._parse_from()
        if self.accept("where"):
            plan = Filter(plan, self.parse_expr())
        if self.accept("order"):
            self.expect_keyword("by")
            plan = Sort(plan, self.comma_list(self._parse_order_key))
        if self.accept("limit"):
            count = self.advance()
            if count.kind != "number" or not isinstance(count.value, int) \
                    or count.value < 0:
                raise SqlSyntaxError("LIMIT expects a non-negative integer")
            plan = Limit(plan, count.value)
        return Query(plan, outputs)

    def _parse_select_item(self):
        expr = self.parse_expr()
        name = None
        if self.accept("as"):
            name = self.expect_name()
        elif self.peek().kind in ("ident", "quoted") and not self.at_keyword(
            "from", "where", "order", "limit"
        ):
            name = self.expect_name()
        return (name, expr)

    def _parse_from(self):
        self.expect_keyword("from")
        plan = self._parse_table_ref()
        while self.accept(","):
            plan = NestedLoopJoin(plan, self._parse_table_ref())
        return plan

    def _parse_table_ref(self):
        table = self.expect_name()
        alias = None
        if self.peek().kind in ("ident", "quoted") and not self.at_keyword(
            "where", "order", "on", "group", "limit"
        ):
            alias = self.expect_name()
        return Scan(table, alias)

    def _parse_order_key(self):
        expr = self.parse_expr()
        if self.accept("desc"):
            return (expr, True)
        self.accept("asc")
        return (expr, False)

    # -- expressions ------------------------------------------------------------------

    def parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_and()
        while self.accept("or"):
            left = e.BinOp("OR", left, self._parse_and())
        return left

    def _parse_and(self):
        left = self._parse_not()
        while self.accept("and"):
            left = e.BinOp("AND", left, self._parse_not())
        return left

    def _parse_not(self):
        if self.accept("not"):
            return e.Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self):
        left = self._parse_additive()
        token = self.peek()
        if token.kind == "symbol" and token.value in (
            "=", "<>", "!=", "<", "<=", ">", ">=",
        ):
            op = self.advance().value
            if op == "!=":
                op = "<>"
            return e.BinOp(op, left, self._parse_additive())
        if self.accept("is"):
            negated = self.accept("not")
            self.expect_keyword("null")
            return e.IsNull(left, negated=negated)
        return left

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while self.peek().kind == "symbol" \
                and self.peek().value in ("+", "-", "||"):
            op = self.advance().value
            left = e.BinOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self):
        left = self._parse_unary()
        while self.peek().kind == "symbol" and self.peek().value in ("*", "/"):
            op = self.advance().value
            left = e.BinOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self):
        if self.accept("-"):
            return e.BinOp("-", e.Const(0), self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self):
        token = self.peek()
        if token.kind in ("string", "number"):
            self.advance()
            return e.Const(token.value)
        if self.accept("("):
            if self.at_keyword("select"):
                subquery = self.parse_select()
                self.expect_symbol(")")
                return e.ScalarSubquery(subquery)
            inner = self.parse_expr()
            self.expect_symbol(")")
            return inner
        if token.kind in ("ident", "quoted"):
            if token.kind == "ident" and token.value == "case":
                return self._parse_case()
            if token.kind == "ident" and token.value == "null":
                self.advance()
                return e.Const(None)
            if token.kind == "ident" and token.value in ("true", "false"):
                self.advance()
                return e.Const(token.value == "true")
            if (
                token.kind == "ident"
                and self.peek(1).kind == "symbol"
                and self.peek(1).value == "("
            ):
                return self._parse_function()
            name = self.expect_name()
            if self.accept("."):
                return e.ColumnRef(self.expect_name(), name)
            return e.ColumnRef(name)
        raise SqlSyntaxError("unexpected token %r" % token.value)

    def _parse_case(self):
        self.expect_keyword("case")
        whens = []
        while self.accept("when"):
            condition = self.parse_expr()
            self.expect_keyword("then")
            whens.append((condition, self.parse_expr()))
        otherwise = self.parse_expr() if self.accept("else") else None
        self.expect_keyword("end")
        return e.CaseWhen(whens, otherwise)

    def _parse_function(self):
        name = self.advance().value
        self.expect_symbol("(")
        if name == "xmlelement":
            return self._parse_xmlelement()
        if name == "xmlforest":
            items = self.comma_list(self._parse_forest_item)
            self.expect_symbol(")")
            return sqlxml.XMLForest(items)
        if name == "xmlconcat":
            return sqlxml.XMLConcat(self._parse_argument_list())
        if name == "xmlcomment":
            return sqlxml.XMLComment(self._parse_argument_list()[0])
        if name == "xmlagg":
            inner = self.parse_expr()
            order_by = []
            if self.accept("order"):
                self.expect_keyword("by")
                order_by = self.comma_list(self._parse_order_key)
            self.expect_symbol(")")
            return sqlxml.XMLAgg(inner, order_by=order_by)
        if name == "listagg":
            return self._parse_listagg()
        if name in _AGG_NAMES:
            if name == "count" and self.accept("*"):
                self.expect_symbol(")")
                return sqlxml.AggCall("COUNT")
            args = self._parse_argument_list()
            return sqlxml.AggCall(name.upper(),
                                  args[0] if args else None)
        return e.FuncCall(name.upper(), self._parse_argument_list())

    def _parse_argument_list(self):
        args = [] if self.at_symbol(")") else self.comma_list(self.parse_expr)
        self.expect_symbol(")")
        return args

    def _parse_xmlelement(self):
        # XMLElement("name" [, XMLAttributes(expr AS "name", ...)] [, content...])
        name_token = self.advance()
        if name_token.kind not in ("quoted", "ident", "string"):
            raise SqlSyntaxError("XMLElement needs an element name")
        attributes = []
        content = []
        while self.accept(","):
            if self.accept("xmlattributes"):
                self.expect_symbol("(")
                attributes += self.comma_list(self._parse_attribute)
                self.expect_symbol(")")
            else:
                content.append(self.parse_expr())
        self.expect_symbol(")")
        return sqlxml.XMLElement(name_token.value, *content,
                                 attributes=attributes)

    def _parse_attribute(self):
        value = self.parse_expr()
        self.expect_keyword("as")
        return (self.expect_name(), value)

    def _parse_forest_item(self):
        value = self.parse_expr()
        if self.accept("as"):
            return (self.expect_name(), value)
        if isinstance(value, e.ColumnRef):
            return (value.column, value)
        raise SqlSyntaxError("XMLForest items need AS names")

    def _parse_listagg(self):
        inner = self.parse_expr()
        separator = ""
        if self.accept(","):
            token = self.advance()
            if token.kind != "string":
                raise SqlSyntaxError("LISTAGG separator must be a string")
            separator = token.value
        self.expect_symbol(")")
        order_by = []
        if self.accept("within"):
            self.expect_keyword("group")
            self.expect_symbol("(")
            self.expect_keyword("order")
            self.expect_keyword("by")
            order_by = self.comma_list(self._parse_order_key)
            self.expect_symbol(")")
        return sqlxml.ListAgg(inner, separator, order_by=order_by)


# -- public API ------------------------------------------------------------------


def parse_sql(source):
    """Parse one SQL statement; returns a (kind, ...) tuple."""
    return _Parser(source).parse_statement()


def parse_select(source):
    """Parse a SELECT statement into a :class:`Query`."""
    statement = parse_sql(source)
    if statement[0] != "select":
        raise SqlSyntaxError("expected a SELECT statement")
    return statement[1]


def execute_sql(db, source, env=None):
    """Parse and run one statement against a Database.

    Returns ``(rows, stats)`` for SELECT; for DDL/DML returns a short
    status string.
    """
    statement = parse_sql(source)
    kind = statement[0]
    if kind == "select":
        return db.execute(statement[1], env=env)
    if kind == "create_table":
        _, name, columns = statement
        db.create_table(name, columns)
        return "table %s created" % name
    if kind == "create_index":
        _, table, column, index_name = statement
        db.create_index(table, column, index_name=index_name)
        return "index on %s(%s) created" % (table, column)
    if kind == "create_view":
        _, name, query = statement
        db.create_view(name, query)
        return "view %s created" % name
    if kind == "insert":
        _, table, rows = statement
        db.insert(table, *rows)
        return "%d row(s) inserted" % len(rows)
    if kind == "drop_table":
        db.drop_table(statement[1])
        return "table %s dropped" % statement[1]
    if kind == "analyze":
        _, table = statement
        computed = db.analyze(table)
        analyzed = 1 if table is not None else len(computed)
        return "%d table(s) analyzed" % analyzed
    raise DatabaseError("unhandled statement kind %r" % kind)
