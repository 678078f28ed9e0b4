"""The value table (``repro.rdb.values``) at the SQL level: what ``=`` is
between each pair of static types, which pairs hash-join, what an
ordered index holds and probes, and where INT refuses a value.  The
transform-level differential against the XSLT VM is
``tests/property/test_value_model.py``."""

import itertools
import math

import pytest

from repro.errors import DatabaseError, PlanError
from repro.obs.decisions import JOIN_STRATEGY, DecisionLedger
from repro.rdb import Database, FLOAT, INT, TEXT
from repro.rdb.btree import BTreeIndex
from repro.rdb.sql_parser import SqlSyntaxError, parse_select
from repro.rdb.values import (
    all_orderable, hashable, key_normal, number_key, orderable, probe_normal,
    servable)

KINDS = (int, float, str, None)
_SQL = {int: "INT", float: "FLOAT", str: "TEXT"}
CASE_KEY = "CASE WHEN a.id > 0 THEN a.k END"


@pytest.fixture
def db():
    """``a.k`` text and ``b.k`` numbers: '1.0' = 1.0, and NaN equals
    nothing."""
    db = Database()
    db.sql("CREATE TABLE a (id INT, k TEXT)")
    db.sql("CREATE TABLE b (id INT, k FLOAT)")
    db.insert("a", (1, "1.0"), (2, "NaN"), (3, "x"))
    db.insert("b", (1, 1.0), (2, float("nan")))
    return db


class TestEquiJoins:
    def test_an_untyped_key_answers_as_equals(self, db):
        for level in ("cost", "off"):
            joined, _ = db.execute(parse_select(
                "SELECT a.id, b.id FROM a, b WHERE %s = b.k" % CASE_KEY),
                level=level)
            kept, _ = db.execute(parse_select(
                "SELECT a.id, b.id FROM a, b WHERE NOT (%s <> b.k)"
                % CASE_KEY), level=level)
            assert joined == kept == [(1, 1)], level

    def test_an_untyped_key_keeps_the_nested_loop_and_says_why(self, db):
        ledger = DecisionLedger()
        plan = db.optimize(parse_select(
            "SELECT a.id, b.id FROM a, b WHERE %s = b.k" % CASE_KEY),
            ledger=ledger).plan
        assert not any(type(node).__name__ == "HashJoin"
                       for node in plan.iter_plan())
        (decision,) = ledger.decisions_of(kind=JOIN_STRATEGY)
        assert decision.action == "nested-loop"
        assert "decided per row" in decision.reason

    def test_a_typed_key_still_hash_joins(self, db):
        query = "SELECT a.id, b.id FROM a, b WHERE a.k = b.k"
        assert "HashJoin" in str(db.explain(query, level="cost"))
        for level in ("cost", "off"):
            assert db.execute(parse_select(query), level=level)[0] \
                == [(1, 1)]

    def test_a_hand_built_untyped_hash_join_is_refused_at_bind(self, db):
        from repro.rdb import HashJoin, Query, Scan
        from repro.rdb.expressions import CaseWhen, col, const, gt

        key = CaseWhen([(gt(col("id", "a"), const(0)), col("k", "a"))])
        query = Query(HashJoin(Scan("a"), Scan("b"), key, col("k", "b")),
                      [(None, col("id", "a"))])
        with pytest.raises(PlanError, match="no hash equality"):
            query.execute(db)


class TestTheTable:
    def test_only_known_types_hash_join(self):
        for kind, other in itertools.product(KINDS, KINDS):
            assert hashable(kind, other) == (None not in (kind, other))

    @pytest.mark.parametrize("left, right", [
        (1, 1.0), (1, "1.0"), (1, " 1 "), (2.5, "2.5"), ("a", "a"),
        (1.0, math.nan), ("NaN", math.nan), (math.inf, math.inf),
        (-0.0, 0), (3, "x"), ("1.0", "1")])
    def test_normalised_keys_meet_exactly_when_equals_holds(self, left,
                                                            right):
        kinds = [type(left), type(right)]
        # as ``=`` compares: two texts as text, anything else as numbers
        expected = left == right if kinds == [str, str] else (
            number_key(left) is not None
            and number_key(left) == number_key(right))
        keys = []
        for value, kind, other in ((left, kinds[0], kinds[1]),
                                   (right, kinds[1], kinds[0])):
            normal = key_normal(kind, other)
            keys.append(value if normal is None else normal(value))
        assert (None not in keys and keys[0] == keys[1]) == expected
        db = Database()
        db.sql("CREATE TABLE t (v %s)" % _SQL[kinds[0]])
        db.sql("CREATE TABLE u (w %s)" % _SQL[kinds[1]])
        db.insert("t", (left,))
        db.insert("u", (right,))
        rows, _ = db.sql("SELECT t.v FROM t, u WHERE t.v = u.w")
        assert bool(rows) == expected

    def test_no_normaliser_beside_an_unknown_type(self):
        for kind in KINDS:
            with pytest.raises(PlanError):
                key_normal(None, kind)

    def test_a_text_index_answers_text_keys_only(self):
        assert servable(str, str) and not servable(int, str)
        assert not servable(None, str)
        assert all(servable(kind, column) for kind in KINDS
                   for column in (int, float))
        assert probe_normal(int, float) is None
        assert probe_normal(str, int) is number_key
        with pytest.raises(PlanError):
            probe_normal(float, str)

    def test_number_keys(self):
        assert number_key(" 3 ") == 3.0 and number_key(2) == 2
        assert [number_key(value) for value in (
            None, "x", "NaN", "Infinity", math.nan, math.inf, -math.inf,
            [1])] == [None] * 8

    def test_orderable_keys(self):
        assert [orderable(key) for key in (
            1, 1.5, "a", -0.0, None, math.nan, math.inf, -math.inf)] \
            == [True] * 4 + [False] * 4
        assert all_orderable([1.0, 2.0]) and all_orderable(["b", "a"])
        assert all_orderable([])
        for keys in ([1.0, math.nan], [math.nan, 1.0], [1.0, math.inf],
                     [-math.inf, 2.0], [1.0, None]):
            assert not all_orderable(keys), keys

    def test_the_btree_holds_only_orderable_keys(self):
        index = BTreeIndex("i", "t", "x")
        index.extend([2.0, math.nan, math.inf, None, 1.0], [1, 2, 3, 4, 5])
        index.insert(-math.inf, 6)
        assert index._keys == [1.0, 2.0] and index._row_ids == [5, 1]


class TestIntBeyond2To53:
    def test_a_converted_value_is_refused(self):
        db = Database()
        db.sql("CREATE TABLE t (v INT)")
        for value in ("9007199254740993", 2.0 ** 60):
            with pytest.raises(DatabaseError, match="beyond"):
                db.insert("t", (value,))
        with pytest.raises(DatabaseError, match="beyond"):
            db.sql("INSERT INTO t VALUES ('-9007199254740993')")
        db.insert("t", ("9007199254740992",), (None,))
        assert len(db.table("t")) == 2

    def test_an_int_inserted_as_one_is_stored_and_compared_exactly(self):
        db = Database()
        db.sql("CREATE TABLE t (v INT)")
        db.insert("t", (2 ** 53 + 1,), (2 ** 53,))
        rows, _ = db.sql("SELECT v FROM t WHERE v > 9007199254740992")
        assert rows == [(2 ** 53 + 1,)]


class TestAnalyzeOverInfinities:
    def test_a_float_column_holding_infinities_is_analyzed(self):
        db = Database()
        db.create_table("t", [("x", FLOAT), ("s", TEXT), ("i", INT)])
        db.insert("t", (math.inf, "a", 1), (-math.inf, "b", 2),
                  (math.nan, "c", 3), (2.0, "d", 4))
        db.create_index("t", "x")
        stats = db.analyze()["t"].column("x")
        assert (stats.min, stats.max) == (2.0, 2.0)
        rows, _ = db.sql("SELECT i FROM t WHERE x > 0")
        assert rows == [(4,)]


@pytest.mark.parametrize("sql", [
    "SELECT id FROM a LIMIT 3..", "SELECT id FROM a WHERE id > 1..2",
    "SELECT 1.2.3 FROM a"])
def test_a_malformed_number_is_a_syntax_error(db, sql):
    with pytest.raises(SqlSyntaxError, match="malformed number"):
        db.sql(sql)
    assert issubclass(SqlSyntaxError, DatabaseError)


def test_an_untyped_correlation_key_keeps_the_probe(db):
    """Decorrelation would hash-join on the key pair: a key of unknown
    type keeps the correlated subquery, which compares as ``=``."""
    query = ("SELECT a.id, (SELECT COUNT(*) FROM b WHERE b.k = %s) FROM a"
             % CASE_KEY)
    ledger = DecisionLedger()
    db.optimize(parse_select(query), ledger=ledger)
    assert any("decided per row" in (decision.reason or "")
               for decision in ledger.decisions)
    for level in ("cost", "off"):
        assert db.execute(parse_select(query), level=level)[0] \
            == [(1, 1.0), (2, 0.0), (3, 0.0)], level
