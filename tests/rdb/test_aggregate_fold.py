"""An aggregate query's per-row work is one generated fold.

``bind_aggregates`` binds every aggregate of a query into one
``fold(batch, groups, stats)``; ``Aggregate.batches`` and the ungrouped
source of ``Query.bind`` (what a correlated ``ScalarSubquery`` runs) both
drive it.  The differential test here runs every aggregate kind through
all four doors — a grouped and an ungrouped ``Aggregate``, a
``HashLeftJoin`` over one (its misses are ``Aggregate.empty_row``) and a
correlated scalar subquery per parent row — at several batch sizes, and
compares each answer with a plain-Python reference written below.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdb import (
    Aggregate, Database, Filter, Query, Scan, INT, FLOAT, TEXT)
from repro.rdb import binding
from repro.rdb.expressions import ScalarSubquery, col, eq
from repro.rdb.plan import HashLeftJoin
from repro.rdb.sqlxml import AggCall, ListAgg, XMLAgg, XMLElement
from repro.xpath.datamodel import to_number


# -- the SQL door -------------------------------------------------------------


def _text_table(*values):
    db = Database()
    db.sql("CREATE TABLE t (s VARCHAR)")
    for value in values:
        db.sql("INSERT INTO t VALUES (%s)"
               % ("NULL" if value is None else "'%s'" % value))
    return db


def _one(db, sql):
    rows, _ = db.sql(sql)
    return rows[0][0]


class TestTextInNumericContext:
    """SUM and AVG take text the way ``s + 1`` does: XPath's
    ``to_number`` (``'7'`` is 7.0, ``'a'`` NaN)."""

    def test_sum_and_avg_of_numeric_text(self):
        db = _text_table("7", None, "2.5")
        assert _one(db, "SELECT SUM(s) FROM t") == 9.5
        assert _one(db, "SELECT AVG(s) FROM t") == 4.75
        assert _one(db, "SELECT SUM(s + 1) FROM t") == 11.5

    def test_text_that_is_not_a_number_is_nan(self):
        db = _text_table("a", "7")
        assert math.isnan(_one(db, "SELECT SUM(s) FROM t"))
        assert math.isnan(_one(db, "SELECT AVG(s) FROM t"))
        assert math.isnan(_one(db, "SELECT SUM(s + 1) FROM t"))

    def test_min_and_max_still_compare_text(self):
        db = _text_table("10", "9")
        assert _one(db, "SELECT MIN(s) FROM t") == "10"
        assert _one(db, "SELECT MAX(s) FROM t") == "9"


class TestListAggSkipsNulls:
    def test_a_null_is_not_an_empty_item(self):
        db = _text_table("a", None, "7")
        assert _one(db, "SELECT LISTAGG(s, ',') FROM t") == "a,7"

    def test_a_group_of_nulls_or_none_is_empty_text(self):
        assert _one(_text_table(None, None),
                    "SELECT LISTAGG(s, ',') FROM t") == ""
        assert _one(_text_table(), "SELECT LISTAGG(s, ',') FROM t") == ""


# -- the differential test ----------------------------------------------------

#: (output name, aggregate) — every kind, over every column type
def _aggregates():
    i, f, s = col("i", "c"), col("f", "c"), col("s", "c")
    element = XMLElement("x", s, attributes=[("i", i)])
    return [
        ("n", AggCall("COUNT")),
        ("ns", AggCall("COUNT", s)),
        ("nf", AggCall("COUNT", f)),
        ("si", AggCall("SUM", i)),
        ("sf", AggCall("SUM", f)),
        ("ss", AggCall("SUM", s)),
        ("ai", AggCall("AVG", i)),
        ("af", AggCall("AVG", f)),
        ("as", AggCall("AVG", s)),
        ("mi", AggCall("MIN", i)),
        ("xi", AggCall("MAX", i)),
        ("ms", AggCall("MIN", s)),
        ("xs", AggCall("MAX", s)),
        ("mf", AggCall("MIN", f)),
        ("la", ListAgg(s, ",")),
        ("lo", ListAgg(s, "|", order_by=[(i, True)])),
        ("ga", XMLAgg(element)),
        ("go", XMLAgg(element, order_by=[(i, False), (s, True)])),
    ]


def _element(row):
    _, i, _, s = row
    head = "<x" if i is None else '<x i="%d"' % i
    if not s:
        return head + "/>"
    return "%s>%s</x>" % (head, s.replace("&", "&amp;").replace("<", "&lt;")
                          .replace(">", "&gt;"))


def _ordered(rows, keys):
    """``rows`` in ORDER BY order, ``keys`` ``(column, descending)``
    pairs: stable, NULLs lowest."""
    rows = list(rows)
    for column, descending in reversed(keys):
        rows.sort(key=lambda row: (0, 0) if row[column] is None
                  else (1, row[column]), reverse=descending)
    return rows


def _reference(name, rows):
    """What aggregate ``name`` is over the child rows ``(g, i, f, s)``
    of one group, computed by hand."""
    i = [row[1] for row in rows if row[1] is not None]
    f = [row[2] for row in rows if row[2] is not None]
    s = [row[3] for row in rows if row[3] is not None]
    numbers = {"i": i, "f": f, "s": [to_number(text) for text in s]}
    kind, column = name[0], name[1:]
    if name == "n":
        return float(len(rows))
    if kind == "n":
        return float(len({"s": s, "f": f}[column]))
    if kind in "sa":
        values = numbers[column]
        if not values:
            return None
        return float(sum(values)) / (len(values) if kind == "a" else 1)
    if kind in "mx":
        values = {"i": i, "f": f, "s": s}[column]
        return (min if kind == "m" else max)(values) if values else None
    if name == "la":
        return ",".join(s)
    if name == "lo":
        return "|".join(row[3] for row in _ordered(rows, [(1, True)])
                        if row[3] is not None)
    if name == "ga":
        return [_element(row) for row in rows]
    return [_element(row) for row in _ordered(rows, [(1, False), (3, True)])]


def _canonical(value):
    """Comparable: NaN equal to NaN, markup as plain text."""
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value
    if isinstance(value, list):
        return [str(item) for item in value]
    return value


def _database(children, parents):
    db = Database()
    db.create_table("c", [("g", INT), ("i", INT), ("f", FLOAT), ("s", TEXT)])
    db.create_table("p", [("g", INT)])
    db.insert("c", *children)
    db.insert("p", *[(g,) for g in parents])
    return db


def _run(db, query, batch_size):
    rows, _ = query.execute(db, batch_size=batch_size)
    return [tuple(_canonical(value) for value in row) for row in rows]


def _grouped_query(aggregates, group_by):
    return Query(
        Aggregate(Scan("c", "c"), group_by=group_by, outputs=aggregates,
                  alias="a"),
        [(None, col(name, "a"))
         for name, _ in (*group_by, *aggregates)])


keys = st.one_of(st.none(), st.integers(0, 3))
texts = st.one_of(st.none(), st.sampled_from(
    ["", "a", "b", "7", "2.5", "x&y", '<"\n\t>']))
floats = st.one_of(st.none(), st.sampled_from(
    [0.0, 1.5, -2.0, 1e300, float("nan"), float("inf")]))
children = st.lists(
    st.tuples(keys, st.one_of(st.none(), st.integers(-3, 3)), floats, texts),
    max_size=12)


class TestFoldAgainstReference:
    """Every aggregate kind, four doors, three batch sizes."""

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    @settings(max_examples=40, deadline=None)
    @given(rows=children, parents=st.lists(keys, max_size=5))
    def test_every_door_agrees_with_the_reference(self, batch_size, rows,
                                                  parents):
        aggregates = _aggregates()
        names = [name for name, _ in aggregates]
        db = _database(rows, parents)

        # grouped: one row per group key (NULL is a key), arrival order
        groups = {}
        for row in rows:
            groups.setdefault(row[0], []).append(row)
        expected = [
            tuple(_canonical(value) for value in
                  (key, *[_reference(name, members) for name in names]))
            for key, members in groups.items()]
        query = _grouped_query(aggregates, [("g", col("g", "c"))])
        assert _run(db, query, batch_size) == expected

        # ungrouped, as an Aggregate and as an aggregate query: one row,
        # empty input included
        whole = tuple(_canonical(_reference(name, rows)) for name in names)
        assert _run(db, _grouped_query(aggregates, []), batch_size) == [whole]
        query = Query(Scan("c", "c"), aggregates)
        assert _run(db, query, batch_size) == [whole]

        # per parent row: the group of its key; a NULL key or one no
        # child has gets the empty group's values.  Both plans run as
        # built (optimizer level off): a HashLeftJoin miss is
        # Aggregate.empty_row, the correlated subquery Query.bind's source
        per_parent = [
            tuple(_canonical(_reference(name, groups.get(g, [])
                                        if g is not None else []))
                  for name in names)
            for g in parents]
        join = Query(
            HashLeftJoin(
                Scan("p", "p"),
                Aggregate(Scan("c", "c"), [("g", col("g", "c"))],
                          aggregates, alias="a"),
                [col("g", "p")], [col("g", "a")]),
            [(None, col(name, "a")) for name in names])
        assert _run(db, join, batch_size) == per_parent
        correlated = Query(Scan("p", "p"), [
            (None, ScalarSubquery(Query(
                Filter(Scan("c", "c"), eq(col("g", "c"), col("g", "p"))),
                [(None, aggregate)])))
            for _, aggregate in _aggregates()])
        assert _run(db, correlated, batch_size) == per_parent


def test_one_fold_per_aggregate_query():
    """The fold is one generated function over the batch; rebinding the
    same shape compiles nothing new."""
    db = _database([(1, 2, 1.5, "a"), (None, None, None, None)], [1])
    query = _grouped_query(_aggregates(), [("g", col("g", "c"))])
    query.execute(db)
    assert any("def f(batch, groups, stats)" in source
               for source in binding._factories)
    before = set(binding._factories)
    _grouped_query(_aggregates(), [("g", col("g", "c"))]).execute(db)
    assert set(binding._factories) == before
