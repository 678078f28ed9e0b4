"""Planner access-path selection: equality probes beat range probes,
filter chains collapse, correlated keys work."""

import pytest

from repro.rdb import Database, Filter, IndexScan, INT, Query, Scan, TEXT
from repro.rdb.expressions import BinOp, and_, col, const, eq, gt


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "line", [("doc", INT), ("qty", INT), ("label", TEXT)]
    )
    for index in range(100):
        database.insert("line", (index % 10, index % 50, "L%d" % index))
    return database


class TestAccessPathChoice:
    def test_equality_preferred_over_range(self, db):
        db.create_index("line", "qty")
        db.create_index("line", "doc")
        predicate = and_(
            gt(col("qty", "line"), const(10)),
            eq(col("doc", "line"), const(3)),
        )
        query = Query(Filter(Scan("line"), predicate), [(None, col("label"))])
        optimized = db.optimize(query)
        scan = optimized.plan
        while isinstance(scan, Filter):
            scan = scan.child
        assert isinstance(scan, IndexScan)
        assert scan.op == "="
        assert scan.column_name == "doc"

    def test_range_used_when_no_equality(self, db):
        db.create_index("line", "qty")
        query = Query(
            Filter(Scan("line"), gt(col("qty", "line"), const(45))),
            [(None, col("label"))],
        )
        optimized = db.optimize(query)
        assert isinstance(optimized.plan, IndexScan)
        rows, stats = optimized.execute(db)
        assert stats.index_probes == 1
        assert all(True for _ in rows)

    def test_filter_chain_collapsed(self, db):
        db.create_index("line", "doc")
        inner = Filter(Scan("line"), gt(col("qty", "line"), const(10)))
        outer = Filter(inner, eq(col("doc", "line"), const(3)))
        query = Query(outer, [(None, col("label"))])
        optimized = db.optimize(query)
        # the equality (from the *outer* filter) still reaches the index
        scan = optimized.plan
        while isinstance(scan, Filter):
            scan = scan.child
        assert isinstance(scan, IndexScan)
        assert scan.op == "="

    def test_results_match_unoptimized(self, db):
        db.create_index("line", "doc")
        db.create_index("line", "qty")
        predicate = and_(
            gt(col("qty", "line"), const(20)),
            eq(col("doc", "line"), const(7)),
        )
        query = Query(Filter(Scan("line"), predicate), [(None, col("label"))])
        plain, _ = db.execute(query, level="off")
        optimized, _ = db.execute(query)
        assert sorted(plain) == sorted(optimized)

    def test_correlated_key_expression(self, db):
        db.create_table("doc", [("id", INT)])
        db.insert("doc", (3,), (7,))
        db.create_index("line", "doc")
        from repro.rdb.expressions import ScalarSubquery
        from repro.rdb.sqlxml import AggCall

        def build():
            count = Query(
                Filter(Scan("line", "l"), eq(col("doc", "l"), col("id", "d"))),
                [(None, AggCall("COUNT"))],
            )
            return Query(Scan("doc", "d"), [(None, ScalarSubquery(count))])

        # with decorrelation off the correlated probe keys the doc index
        optimized = db.optimize(build(), decorrelate=False)
        rows, stats = optimized.execute(db)
        assert [row[0] for row in rows] == [10.0, 10.0]
        assert stats.index_probes == 2
        # the default unnests; same rows through the hash left join
        rows, stats = db.execute(build())
        assert [row[0] for row in rows] == [10.0, 10.0]
        assert stats.subquery_executions == 0 and stats.hash_probes == 2

    def test_flipped_operand_orientation(self, db):
        db.create_index("line", "doc")
        query = Query(
            Filter(Scan("line"), BinOp("=", const(3), col("doc", "line"))),
            [(None, col("label"))],
        )
        optimized = db.optimize(query)
        assert isinstance(optimized.plan, IndexScan)
        rows, _ = optimized.execute(db)
        assert len(rows) == 10
