"""Tests for tables, indexes, expressions, plans and the planner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CatalogError, DatabaseError
from repro.rdb import (
    Aggregate,
    Database,
    Filter,
    IndexScan,
    Limit,
    NestedLoopJoin,
    Query,
    Scan,
    Sort,
    FLOAT,
    INT,
    TEXT,
)
from repro.rdb.btree import BTreeIndex
from repro.rdb.expressions import (
    BinOp,
    CaseWhen,
    Const,
    FuncCall,
    IsNull,
    Not,
    ScalarSubquery,
    and_,
    col,
    concat,
    const,
    eq,
    gt,
)
from repro.rdb.plan import HashLeftJoin, explain
from repro.rdb.sqlxml import AggCall


def run(db, query, **kwargs):
    rows, stats = db.execute(query, **kwargs)
    return rows, stats


class TestCatalog:
    def test_create_and_scan(self, db):
        rows, stats = run(db, Query(Scan("dept"), [(None, col("dname"))]))
        assert [row[0] for row in rows] == ["ACCOUNTING", "OPERATIONS"]
        assert stats.rows_scanned == 2

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table("dept", [("x", INT)])

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.table("nope")

    def test_type_coercion(self):
        database = Database()
        database.create_table("t", [("n", INT), ("s", TEXT)])
        database.insert("t", ("42", 7))
        table = database.table("t")
        assert table.fetch(0) == (42, "7")

    def test_wrong_arity_insert(self, db):
        with pytest.raises(DatabaseError):
            db.insert("dept", (1,))

    def test_drop_table_removes_indexes(self, db):
        db.create_index("emp", "sal")
        db.drop_table("emp")
        assert db.find_index("emp", "sal") is None


class TestInsertMaintenance:
    """``Database.insert`` works from the table's own index list."""

    def make(self):
        database = Database()
        database.create_table("a", [("k", INT), ("v", TEXT)])
        database.create_table("b", [("k%d" % n, INT) for n in range(40)])
        return database

    def test_insert_does_no_work_for_another_tables_indexes(
            self, monkeypatch):
        from repro.rdb.types import TableSchema

        database = self.make()
        index = database.create_index("a", "k")
        others = [database.create_index("b", "k%d" % n) for n in range(40)]
        touched = []
        extend = BTreeIndex.extend
        monkeypatch.setattr(
            BTreeIndex, "extend",
            lambda self, keys, row_ids: (
                touched.append(self.name), extend(self, keys, row_ids)))
        monkeypatch.setattr(
            BTreeIndex, "insert",
            lambda self, key, row_id: touched.append("insert"))
        monkeypatch.setattr(
            TableSchema, "position_of",
            lambda self, name: touched.append("position_of %s" % name))
        database.insert("a", (1, "x"), (2, "y"))
        # one run per statement into a's one index; nothing per index on
        # b, no per-entry insert and no column lookup per row either (the
        # parent commit walked the whole catalog and called position_of
        # for every row)
        assert touched == [index.name]
        assert index.lookup_range_items() == [(1, 0), (2, 1)]
        assert all(len(other) == 0 for other in others)

    def test_index_created_after_rows_exist_sees_old_and_new_rows(self):
        database = self.make()
        database.insert("a", (3, "c"), (1, "a"))
        index = database.create_index("a", "k")
        assert database.insert("a", (2, "b"), (None, "n")) == [2, 3]
        assert index.lookup_op(">=", 1) == [1, 2, 0]  # NULL not indexed
        database.create_index("a", "v")
        database.insert("a", (4, "d"))
        assert database.find_index("a", "v").lookup_eq("d") == [4]
        assert index.lookup_eq(4) == [4]

    def test_one_statistics_note_per_statement(self):
        database = self.make()
        database.insert("a", (1, "x"))
        database.analyze("a")
        version = database.stats_version()
        database.insert("a", (2, "y"), (3, "z"))  # stale now: one bump
        assert database.stats_version() == version + 1
        database.insert("a", (4, "w"))  # never re-analyzed: no bump
        database.insert("a")
        assert database.stats_version() == version + 1
        database.analyze("a")
        version = database.stats_version()
        assert database.insert("a", (5, "v"), (6, "u")) == [4, 5]
        assert database.stats_version() == version + 1

    def test_a_failed_coercion_stores_nothing(self):
        database = self.make()
        database.create_index("a", "k")
        with pytest.raises(ValueError):
            database.insert("a", (1, "x"), ("not a number", "y"))
        assert len(database.table("a")) == 0
        assert len(database.find_index("a", "k")) == 0

    def test_a_failed_coercion_in_the_last_row_of_a_big_batch(self):
        database = self.make()
        database.create_index("a", "k")
        database.insert("a", (7, "kept"))
        rows = [(n, "x") for n in range(1499)] + [("not a number", "y")]
        with pytest.raises(ValueError):
            database.insert("a", *rows)
        assert database.table("a").rows == [(7, "kept")]
        assert database.find_index("a", "k").lookup_range_items() == [(7, 0)]

    def test_recreated_table_starts_without_the_dropped_indexes(self):
        database = self.make()
        database.create_index("a", "k")
        database.drop_table("a")
        database.create_table("a", [("k", INT)])
        database.insert("a", (1,))
        assert database.indexes_on("a") == []
        assert database.table("a").indexes == []


class TestBTree:
    def make_index(self):
        index = BTreeIndex("i", "t", "c")
        index.build([(5, 0), (1, 1), (3, 2), (3, 3), (9, 4)])
        return index

    def test_eq_lookup(self):
        assert sorted(self.make_index().lookup_eq(3)) == [2, 3]

    def test_eq_missing(self):
        assert self.make_index().lookup_eq(4) == []

    def test_range_lookups(self):
        index = self.make_index()
        assert sorted(index.lookup_op(">", 3)) == [0, 4]
        assert sorted(index.lookup_op(">=", 3)) == [0, 2, 3, 4]
        assert sorted(index.lookup_op("<", 3)) == [1]
        assert sorted(index.lookup_op("<=", 3)) == [1, 2, 3]

    def test_incremental_insert(self):
        index = self.make_index()
        index.insert(4, 5)
        assert sorted(index.lookup_op(">", 3)) == [0, 4, 5]

    def test_appends_keep_bisect_right_order(self):
        # the ingest fast path (key >= last key) and the bisect path must
        # agree: equal keys stay in insertion order
        index = BTreeIndex("i", "t", "c")
        for row_id, key in enumerate([1, 3, 3, 2, 3, 9, 9, 0]):
            index.insert(key, row_id)
        assert index.lookup_range_items() == [
            (0, 7), (1, 0), (2, 3), (3, 1), (3, 2), (3, 4), (9, 5), (9, 6)]

    def test_nulls_not_indexed(self):
        index = BTreeIndex("i", "t", "c")
        index.insert(None, 0)
        index.extend([None, None], [1, 2])
        assert len(index) == 0

    def test_nan_not_indexed_by_any_door(self):
        nan = float("nan")
        for keys in ([1.0, nan, 3.0], [nan, None, 2.0], [nan]):
            extended = BTreeIndex("i", "t", "c")
            extended.extend(keys, range(len(keys)))
            inserted = BTreeIndex("i", "t", "c")
            for row_id, key in enumerate(keys):
                inserted.insert(key, row_id)
            built = BTreeIndex("i", "t", "c")
            built.build(zip(keys, range(len(keys))))
            want = sorted((key, row_id) for row_id, key in enumerate(keys)
                          if key is not None and key == key)
            for index in (extended, inserted, built):
                assert index.lookup_range_items() == want

    NAN_ROWS = [(1, 1.0), (2, "nan"), (3, 3.0), (4, 2.0), (5, 0.5)]

    @pytest.mark.parametrize("index_when", ["before-rows", "after-rows"])
    @pytest.mark.parametrize("probe", [4.0, 2.0, float("nan")], ids=str)
    @pytest.mark.parametrize("op", ["<", "<=", "=", ">=", ">"])
    def test_index_and_scan_agree_with_a_nan_row_or_probe(
            self, op, probe, index_when):
        def ids(indexed):
            database = Database()
            database.create_table("t", [("id", INT), ("v", FLOAT)])
            if indexed and index_when == "before-rows":
                database.create_index("t", "v")
            database.insert("t", *self.NAN_ROWS)
            if indexed and index_when == "after-rows":
                database.create_index("t", "v")
            query = Query(
                Filter(Scan("t"), BinOp(op, col("v"), const(probe))),
                [(None, col("id"))])
            if indexed:
                assert "IndexScan" in str(database.explain(query))
            rows, _ = database.execute(query)
            return sorted(row[0] for row in rows)

        scanned = ids(indexed=False)
        assert 2 not in scanned  # no comparison is true of NaN
        assert ids(indexed=True) == scanned

    # few distinct keys: batches overlap the index, repeat its keys, lie
    # wholly before it or extend it; sorted ones are the runs ingest hands
    # over, and sizes 0 and 1 are drawn too
    BATCHES = st.lists(
        st.tuples(st.booleans(),
                  st.lists(st.one_of(st.none(), st.integers(0, 12)),
                           max_size=8)),
        max_size=6)

    @given(batches=BATCHES)
    @settings(max_examples=300, deadline=None)
    def test_extend_leaves_what_one_insert_per_entry_would(self, batches):
        extended = BTreeIndex("i", "t", "c")
        inserted = BTreeIndex("i", "t", "c")
        row_id = 0
        for as_run, keys in batches:
            if as_run:
                keys = sorted(keys, key=lambda key: (key is not None, key))
            row_ids = range(row_id, row_id + len(keys))
            row_id += len(keys)
            extended.extend(tuple(keys), row_ids)
            for key, entry in zip(keys, row_ids):
                inserted.insert(key, entry)
            assert extended._keys == inserted._keys
            assert extended._row_ids == inserted._row_ids
        assert extended._keys == sorted(extended._keys)

    def test_a_run_before_between_and_after_the_existing_keys(self):
        index = BTreeIndex("i", "t", "c")
        index.extend([10, 20, 20, 30], [0, 1, 2, 3])       # appended
        index.extend([30, 40], [4, 5])                     # appended
        index.extend([1, 2], [6, 7])                       # wholly before
        index.extend([2, 20, 25, 50], [8, 9, 10, 11])      # interleaved
        index.extend([45, 5], [12, 13])                    # not a run
        assert index.lookup_range_items() == [
            (1, 6), (2, 7), (2, 8), (5, 13), (10, 0), (20, 1), (20, 2),
            (20, 9), (25, 10), (30, 3), (30, 4), (40, 5), (45, 12),
            (50, 11)]

    def test_probe_stats(self):
        from repro.rdb.plan import ExecutionStats

        stats = ExecutionStats()
        self.make_index().lookup_eq(3, stats=stats)
        assert stats.index_probes == 1
        assert stats.index_entries == 2


class TestExpressions:
    def test_column_ref_qualified(self, db):
        rows, _ = run(db, Query(Scan("emp", "e"), [(None, col("ename", "e"))]))
        assert rows[0][0] == "CLARK"

    def test_unknown_column(self, db):
        with pytest.raises(DatabaseError):
            run(db, Query(Scan("emp"), [(None, col("bogus"))]))

    def test_arithmetic_and_comparison(self, db):
        query = Query(
            Filter(Scan("emp"), gt(BinOp("*", col("sal"), const(2)), const(4000))),
            [(None, col("ename"))],
        )
        rows, _ = run(db, query)
        assert [row[0] for row in rows] == ["CLARK", "SMITH"]

    def test_concat_operator(self, db):
        query = Query(
            Scan("dept"),
            [(None, concat(col("dname"), const("/"), col("loc")))],
        )
        rows, _ = run(db, query)
        assert rows[0][0] == "ACCOUNTING/NEW YORK"

    def test_case_when(self, db):
        query = Query(
            Scan("emp"),
            [(None, CaseWhen(
                [(gt(col("sal"), const(2000)), Const("high"))],
                Const("low"),
            ))],
        )
        rows, _ = run(db, query)
        assert [row[0] for row in rows] == ["high", "low", "high"]

    def test_func_calls(self, db):
        query = Query(
            Scan("dept"),
            [(None, FuncCall("LOWER", [col("dname")])),
             (None, FuncCall("LENGTH", [col("loc")]))],
        )
        rows, _ = run(db, query)
        assert rows[0] == ("accounting", 8.0)

    def test_is_null_and_not(self, db):
        query = Query(
            Scan("dept"),
            [(None, IsNull(col("dname"))), (None, Not(Const(False)))],
        )
        rows, _ = run(db, query)
        assert rows[0] == (False, True)

    def test_to_sql_rendering(self):
        expr = and_(gt(col("sal", "emp"), const(2000)),
                    eq(col("deptno", "emp"), col("deptno", "dept")))
        assert expr.to_sql() == (
            '"EMP"."SAL" > 2000 AND "EMP"."DEPTNO" = "DEPT"."DEPTNO"'
        )


class TestPlans:
    def test_filter(self, db):
        query = Query(
            Filter(Scan("emp"), gt(col("sal"), const(2000))),
            [(None, col("ename"))],
        )
        rows, stats = run(db, query, level="off")
        assert [row[0] for row in rows] == ["CLARK", "SMITH"]
        assert stats.rows_scanned == 3

    def test_index_scan(self, db):
        db.create_index("emp", "sal")
        query = Query(
            IndexScan("emp", "idx_emp_sal", ">", const(2000)),
            [(None, col("ename"))],
        )
        rows, stats = run(db, query, level="off")
        assert sorted(row[0] for row in rows) == ["CLARK", "SMITH"]
        assert stats.index_probes == 1
        assert stats.rows_scanned == 2  # only matching rows fetched

    def test_nested_loop_join(self, db):
        query = Query(
            NestedLoopJoin(
                Scan("dept", "d"), Scan("emp", "e"),
                eq(col("deptno", "d"), col("deptno", "e")),
            ),
            [(None, col("dname", "d")), (None, col("ename", "e"))],
        )
        rows, _ = run(db, query)
        assert ("ACCOUNTING", "CLARK") in rows
        assert ("OPERATIONS", "SMITH") in rows
        assert len(rows) == 3

    def test_sort(self, db):
        query = Query(
            Sort(Scan("emp"), [(col("sal"), False)]),
            [(None, col("sal"))],
        )
        rows, _ = run(db, query)
        assert [row[0] for row in rows] == [1300, 2450, 4900]

    def test_sort_descending(self, db):
        query = Query(
            Sort(Scan("emp"), [(col("sal"), True)]),
            [(None, col("ename"))],
        )
        rows, _ = run(db, query)
        assert rows[0][0] == "SMITH"

    def test_limit(self, db):
        query = Query(Limit(Scan("emp"), 2), [(None, col("empno"))])
        rows, _ = run(db, query)
        assert len(rows) == 2

    def test_aggregate_group_by(self, db):
        query = Query(
            Aggregate(
                Scan("emp"),
                group_by=[("deptno", col("deptno"))],
                outputs=[("total", AggCall("SUM", col("sal"))),
                         ("headcount", AggCall("COUNT"))],
            ),
            [(None, col("deptno", "agg")), (None, col("total", "agg")),
             (None, col("headcount", "agg"))],
        )
        rows, _ = run(db, query)
        assert (10, 3750.0, 2.0) in rows
        assert (40, 4900.0, 1.0) in rows

    def test_scalar_aggregate_query(self, db):
        query = Query(Scan("emp"), [(None, AggCall("MAX", col("sal")))])
        rows, _ = run(db, query)
        assert rows == [(4900,)]

    @staticmethod
    def _headcount_query():
        headcount = Query(
            Filter(Scan("emp", "e"), eq(col("deptno", "e"), col("deptno", "d"))),
            [(None, AggCall("COUNT"))],
        )
        return Query(
            Scan("dept", "d"),
            [(None, col("dname", "d")), (None, ScalarSubquery(headcount))],
        )

    def test_scalar_subquery_correlated(self, db):
        # run as emitted the probe stays correlated: one subquery
        # execution per outer row
        rows, stats = run(db, self._headcount_query(), level="off")
        assert rows == [("ACCOUNTING", 2.0), ("OPERATIONS", 1.0)]
        assert stats.subquery_executions == 2

    def test_scalar_subquery_decorrelated_at_cost_level(self, db):
        # the default (cost) level unnests the probe into a hash left
        # join over a grouped aggregate: same rows, no per-row subqueries
        rows, stats = run(db, self._headcount_query())
        assert rows == [("ACCOUNTING", 2.0), ("OPERATIONS", 1.0)]
        assert stats.subquery_executions == 0
        assert stats.hash_probes == 2

    def test_scalar_subquery_multiple_rows_rejected(self, db):
        bad = Query(Scan("emp"), [(None, col("empno"))])
        query = Query(Scan("dept"), [(None, ScalarSubquery(bad))])
        with pytest.raises(DatabaseError):
            run(db, query)

    def test_empty_scalar_subquery_is_null(self, db):
        none = Query(
            Filter(Scan("emp"), gt(col("sal"), const(99999))),
            [(None, col("empno"))],
        )
        query = Query(Scan("dept"), [(None, ScalarSubquery(none))])
        rows, _ = run(db, query)
        assert rows[0][0] is None


class TestPlanner:
    def test_filter_becomes_index_scan(self, db):
        db.create_index("emp", "sal")
        query = Query(
            Filter(Scan("emp"), gt(col("sal", "emp"), const(2000))),
            [(None, col("ename"))],
        )
        optimized = db.optimize(query)
        assert isinstance(optimized.plan, IndexScan)
        rows, stats = optimized.execute(db)
        assert stats.index_probes == 1

    def test_flipped_comparison(self, db):
        db.create_index("emp", "sal")
        query = Query(
            Filter(Scan("emp"), BinOp("<", const(2000), col("sal", "emp"))),
            [(None, col("ename"))],
        )
        optimized = db.optimize(query)
        assert isinstance(optimized.plan, IndexScan)
        assert optimized.plan.op == ">"

    def test_residual_predicate_kept(self, db):
        db.create_index("emp", "sal")
        predicate = and_(
            gt(col("sal", "emp"), const(2000)),
            eq(col("job", "emp"), const("VP")),
        )
        query = Query(Filter(Scan("emp"), predicate), [(None, col("ename"))])
        optimized = db.optimize(query)
        assert isinstance(optimized.plan, Filter)
        assert isinstance(optimized.plan.child, IndexScan)
        rows, _ = optimized.execute(db)
        assert [row[0] for row in rows] == ["SMITH"]

    def test_no_index_no_change(self, db):
        query = Query(
            Filter(Scan("emp"), gt(col("sal", "emp"), const(2000))),
            [(None, col("ename"))],
        )
        optimized = db.optimize(query)
        assert isinstance(optimized.plan, Filter)

    @staticmethod
    def _correlated_count_query():
        subquery = Query(
            Filter(Scan("emp", "e"), eq(col("deptno", "e"), col("deptno", "d"))),
            [(None, AggCall("COUNT"))],
        )
        return Query(Scan("dept", "d"), [(None, ScalarSubquery(subquery))])

    def test_correlated_subquery_optimized(self, db):
        db.create_index("emp", "deptno")
        # decorrelate=False keeps the correlated probe, which the cost
        # optimizer serves through the deptno index
        optimized = db.optimize(self._correlated_count_query(),
                                decorrelate=False)
        inner = optimized.outputs[0][1].query.plan
        assert isinstance(inner, IndexScan)
        rows, stats = optimized.execute(db)
        assert [row[0] for row in rows] == [2.0, 1.0]
        assert stats.index_probes == 2

    def test_correlated_subquery_decorrelated_by_default(self, db):
        db.create_index("emp", "deptno")
        optimized = db.optimize(self._correlated_count_query())
        assert isinstance(optimized.plan, HashLeftJoin)
        assert isinstance(optimized.plan.right, Aggregate)
        rows, stats = optimized.execute(db)
        assert [row[0] for row in rows] == [2.0, 1.0]
        assert stats.subquery_executions == 0

    def test_results_identical_with_and_without_index(self, db):
        query = Query(
            Filter(Scan("emp"), gt(col("sal", "emp"), const(2000))),
            [(None, col("empno"))],
        )
        before, _ = db.execute(query, level="off")
        db.create_index("emp", "sal")
        after, _ = db.execute(query)
        assert sorted(before) == sorted(after)


class TestRendering:
    def test_query_to_sql(self, db):
        query = Query(
            Filter(Scan("emp"), gt(col("sal", "emp"), const(2000))),
            [(None, col("ename", "emp"))],
        )
        assert query.to_sql() == (
            'SELECT "EMP"."ENAME" FROM EMP WHERE "EMP"."SAL" > 2000'
        )

    def test_explain_shows_index(self, db):
        db.create_index("emp", "sal")
        query = Query(
            Filter(Scan("emp"), gt(col("sal", "emp"), const(2000))),
            [(None, col("ename"))],
        )
        text = explain(db.optimize(query))
        assert "IndexScan" in text
        assert "idx_emp_sal" in text
