"""Slots carry their declared types, and the generated row code
specialises on them (native comparisons, inline ``||`` conversions,
template leaves tested only for NULL, markup-only ``XMLAgg`` groups).
Typed code must answer exactly what untyped code answers, whatever the
access path:

* typed equals untyped — every expression kind that specialises, bound
  once under its real layout and once under a layout of no types;
* levels and indexes agree — random INT/FLOAT/TEXT tables, predicates
  and equi-joins through ``db.sql`` at ``off`` and ``cost``, with and
  without an index on each compared column (an index probe and a hash
  join key as ``=`` compares);
* a table re-created with another column type rebinds;
* typed row code stays on: a warm execution of the XSLTMark plans calls
  no generic comparison helper and stays under its Python call cap.
"""

import gc
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Engine
from repro.obs import MetricsRegistry, Tracer
from repro.rdb import Database, ExecutionStats, Filter, Query, Scan, values
from repro.rdb.binding import Binder, Layout
from repro.rdb.expressions import BinOp, CaseWhen, Const, col, concat, const
from repro.rdb.sql_parser import parse_select
from repro.rdb.sqlxml import (
    Markup, MarkupList, XMLAgg, XMLElement, bind_aggregates, content_markup)
from repro.xsltmark import get_case
from repro.xsltmark.runner import prepare_case

NAMES = ("a", "b", "c")
COLUMNS = [col(name, "t") for name in NAMES]
OPERATORS = ("=", "<>", "<", "<=", ">", ">=")
#: text that escapes, converts to a number, or is blank
TEXT = st.text(alphabet='<&"\n\t1 2.x', max_size=5)
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1.0, 2.5, float("nan"), float("inf"),
                     float("-inf")]))
#: the non-NULL values of a slot of each declared type
VALUES = {int: st.integers(-3, 3) | st.integers(), float: FLOATS,
          str: st.just("") | TEXT}


def constants(kind):
    return VALUES[kind].map(Const)


OPERAND = st.one_of(
    st.sampled_from(COLUMNS), constants(int), constants(float),
    constants(str), st.just(Const(None)), st.just(Const(True)))
COMPARISON = st.builds(BinOp, st.sampled_from(OPERATORS), OPERAND, OPERAND)
CONCAT = st.lists(OPERAND, min_size=2, max_size=5).map(
    lambda terms: concat(*terms))


@st.composite
def cases(draw, depth=2):
    """A CASE of constants of one type (or of another type, or with a
    nested such CASE in its ELSE)."""
    kind = draw(st.sampled_from([int, float, str]))
    whens = [(draw(COMPARISON), draw(constants(kind)))
             for _ in range(draw(st.integers(1, 2)))]
    choices = [st.none(), constants(kind), constants(str), OPERAND]
    if depth:
        choices.append(cases(depth - 1))
    return CaseWhen(whens, draw(st.one_of(*choices)))


SCALAR = st.one_of(OPERAND, COMPARISON, CONCAT, cases(),
                   st.builds(BinOp, st.sampled_from(OPERATORS),
                             CONCAT | cases(), OPERAND))
TEMPLATE = st.builds(
    lambda c0, c1, b, a: XMLElement(
        "e", c0, XMLElement("f", c1, attributes=[("b", b)]), const("t&%"),
        attributes=[("a", a)]),
    SCALAR, SCALAR, SCALAR, SCALAR)
#: one of each kind of leaf a template meets: all typed
TYPED_TEMPLATE = XMLElement(
    "e", COLUMNS[0], XMLElement("f", concat(COLUMNS[1], const("-"),
                                            COLUMNS[2]),
                                attributes=[("b", COLUMNS[2])]),
    attributes=[("a", COLUMNS[1])])


@st.composite
def typed_rows(draw, count):
    """``(declared types of a, b, c, rows of values of those types)``."""
    kinds = tuple(draw(st.sampled_from([int, float, str])) for _ in NAMES)
    rows = draw(st.lists(
        st.tuples(*[st.none() | VALUES[kind] for kind in kinds]),
        min_size=1, max_size=count))
    return kinds, rows


def layouts(kinds):
    """The real layout of rows of ``kinds``, and one of no types."""
    return (Layout().extend("t", NAMES, kinds),
            Layout().extend("t", NAMES))


def same(x, y):
    """Equal values of one type (NaN is itself; a sequence is its
    pieces, each of one type)."""
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(map(same, x, y))
    if type(x) is not type(y):
        return False
    return x == y or x != x and y != y


class TestTypedEqualsUntyped:
    @given(typed_rows(4), SCALAR)
    def test_scalar_expressions(self, typed, expr):
        kinds, rows = typed
        typed_layout, untyped_layout = layouts(kinds)
        fast = expr.bind(Binder(None), typed_layout)
        slow = expr.bind(Binder(None), untyped_layout)
        for row in rows:
            assert same(fast(row, ExecutionStats()),
                        slow(row, ExecutionStats())), (expr, row)

    @given(typed_rows(4), TEMPLATE)
    def test_templates(self, typed, expr):
        kinds, rows = typed
        typed_layout, untyped_layout = layouts(kinds)
        fast = expr.bind(Binder(None), typed_layout)
        slow = expr.bind(Binder(None), untyped_layout)
        for row in rows:
            fast_stats, slow_stats = ExecutionStats(), ExecutionStats()
            assert same(fast(row, fast_stats), slow(row, slow_stats))
            assert fast_stats.xml_elements == slow_stats.xml_elements

    @given(typed_rows(6), TEMPLATE | st.just(TYPED_TEMPLATE),
           st.booleans())
    def test_xmlagg(self, typed, element, descending):
        kinds, rows = typed
        typed_layout, untyped_layout = layouts(kinds)
        agg = XMLAgg(element, [(COLUMNS[0], descending)])
        fast_stats, slow_stats = ExecutionStats(), ExecutionStats()
        fast = self.aggregate(agg, typed_layout, rows, fast_stats)
        slow = self.aggregate(agg, untyped_layout, rows, slow_stats)
        assert same(fast, slow)
        assert content_markup(fast) == content_markup(slow)
        assert fast_stats.xml_elements == slow_stats.xml_elements
        if element is TYPED_TEMPLATE:
            # no types: the rows' values are rendered into pieces after
            assert type(slow) is type(fast) is MarkupList
            assert all(type(piece) is Markup for piece in fast)

    @staticmethod
    def aggregate(agg, layout, rows, stats):
        fold, fresh, final, _ = bind_aggregates(
            Binder(None), [(None, agg)], layout, Layout())
        groups = {(): fresh()}
        fold(rows, groups, stats)
        _, finish = final.aggregates[id(agg)]
        return finish(groups[()][0], stats)


# -- levels and indexes ------------------------------------------------------------

SQL_TYPES = {"INT": int, "FLOAT": float, "TEXT": str}


def _literal(value):
    if isinstance(value, str):
        return "'%s'" % value.replace("'", "''")
    return repr(value)


#: literals the SQL parser reads: no NaN or infinity
LITERAL = st.one_of(
    st.integers(-4, 9), st.floats(-4, 9, allow_nan=False).map(
        lambda value: round(value, 2)),
    st.sampled_from(["1", " 3 ", "07", "2.5", "x", "", "b", "-1"]))


@st.composite
def databases(draw):
    """Tables ``a (x, y)`` and ``b (u, v)`` of random declared types and
    values, an index on a random subset of their columns."""
    db = Database()
    for table, names in (("a", ("x", "y")), ("b", ("u", "v"))):
        types = [draw(st.sampled_from(sorted(SQL_TYPES))) for _ in names]
        db.sql("CREATE TABLE %s (%s)" % (table, ", ".join(
            "%s %s" % pair for pair in zip(names, types))))
        values = [st.none() | st.sampled_from([1, 3, 7, 2.5, -0.0])
                  | st.sampled_from(["1.0", " 3 ", "07", "x", "7", ""])
                  if kind == "TEXT" else st.none() | VALUES[SQL_TYPES[kind]]
                  for kind in types]
        rows = draw(st.lists(st.tuples(*values), max_size=6))
        db.insert(table, *[
            tuple(value if value is None or kind != "TEXT" else str(value)
                  for value, kind in zip(row, types))
            for row in rows])
        for name in names:
            if draw(st.booleans()):
                db.sql("CREATE INDEX ON %s (%s)" % (table, name))
    return db


def _rows(db, sql, level):
    rows, _ = db.execute(parse_select(sql), level=level)
    return sorted(map(repr, rows))


class TestLevelsAndIndexesAgree:
    @settings(max_examples=150, deadline=None)
    @given(databases(), st.sampled_from(["a.x", "a.y"]),
           st.sampled_from(OPERATORS), LITERAL)
    def test_predicates(self, db, column, op, literal):
        sql = "SELECT a.x, a.y FROM a WHERE %s %s %s" % (
            column, op, _literal(literal))
        assert _rows(db, sql, "cost") == _rows(db, sql, "off"), sql

    @settings(max_examples=150, deadline=None)
    @given(databases(), st.sampled_from(["a.x", "a.y"]),
           st.sampled_from(["b.u", "b.v"]), st.none() | LITERAL)
    def test_equi_joins(self, db, left, right, literal):
        sql = "SELECT a.x, a.y, b.u, b.v FROM a, b WHERE %s = %s" % (
            left, right)
        if literal is not None:
            sql += " AND b.u <= %s" % _literal(literal)
        assert _rows(db, sql, "cost") == _rows(db, sql, "off"), sql


class TestTheFixedProbes:
    """The cost level's access paths answer what the plan as written
    answers (the index probe coerced its key through the column type,
    and hash-join keys compared as text)."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.sql("CREATE TABLE a (i INT)")
        db.sql("CREATE TABLE b (s TEXT)")
        db.insert("a", (1,), (3,), (7,))
        db.insert("b", ("1.0",), (" 3 ",), ("07",), ("x",))
        db.sql("CREATE INDEX ON a (i)")
        return db

    @pytest.mark.parametrize("where, expected", [
        ("i = 1.5", []), ("i < 3.5", [(1,), (3,)]), ("i = 'x'", []),
        ("i = ' 3 '", [(3,)]), ("i >= '7'", [(7,)]), ("i < NULL", []),
    ])
    def test_an_index_probe_compares_as_the_filter(self, db, where,
                                                   expected):
        query = "SELECT i FROM a WHERE " + where
        assert "IndexScan" in str(db.explain(query, level="cost"))
        for level in ("off", "cost"):
            assert db.execute(parse_select(query), level=level)[0] \
                == expected

    def test_a_hash_join_key_compares_as_equals(self, db):
        query = "SELECT a.i, b.s FROM a, b WHERE a.i = b.s"
        assert "HashJoin" in str(db.explain(query, level="cost"))
        expected = [(1, "1.0"), (3, " 3 "), (7, "07")]
        for level in ("off", "cost"):
            assert db.execute(parse_select(query), level=level)[0] \
                == expected


class TestRebindOnATypeChange:
    def test_a_prepared_query_follows_the_new_column_type(self):
        db = Database()
        db.sql("CREATE TABLE t (v INT)")
        db.insert("t", (7,), (12,))

        def prepared_query():
            # as numbers only 12 > 10; as text '7' > '10' too
            return Query(Filter(Scan("t"), BinOp(">", col("v"), const("10"))),
                         [(None, XMLElement("r", concat(col("v"), const("!")),
                                            attributes=[("v", col("v"))]))])

        query = prepared_query()
        assert [row[0] for row in query.execute(db)[0]] \
            == ['<r v="12">12!</r>']
        db.drop_table("t")
        db.sql("CREATE TABLE t (v TEXT)")
        db.insert("t", ("7",), ("12",))
        rows = [row[0] for row in query.execute(db)[0]]
        assert query.runtime.binds == 2
        assert rows == [row[0] for row in prepared_query().execute(db)[0]] \
            == ['<r v="7">7!</r>', '<r v="12">12!</r>']


class TestTypedRowCodeStaysOn:
    """Slots carry their declared column types, and the row code they
    generate compares, concatenates and renders natively: no generic
    comparison helper per row (7 057 / 9 070 / 16 086 calls untyped;
    3 109 / 2 078 / 2 078 with a template call per aggregated row; the
    caps are 5 % above what one generated XMLAgg loop reads)."""

    @pytest.mark.parametrize("name, cap",
                             [("chart", 93), ("metric", 51), ("avts", 51)])
    def test_python_calls_of_a_warm_execution(self, name, cap):
        case = get_case(name)
        prepared = prepare_case(case, 2000)
        engine = Engine(prepared.db, tracer=Tracer(enabled=False),
                        metrics=MetricsRegistry())
        compiled = engine.compile(prepared.storage, case.stylesheet)
        engine.execute(prepared.storage, compiled)
        calls, binary = [0], [0]

        def count(frame, event, arg):
            if event == "call":
                calls[0] += 1
                binary[0] += frame.f_code is values.binary.__code__

        gc.disable()  # a collection would call the test runner's gc hooks
        sys.setprofile(count)
        try:
            engine.execute(prepared.storage, compiled)
        finally:
            sys.setprofile(None)
            gc.enable()
        assert binary[0] == 0, (name, binary[0])
        assert calls[0] <= cap, (name, calls[0], cap)
