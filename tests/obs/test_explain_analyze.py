"""EXPLAIN ANALYZE: per-node row counts/timings, and the new
ExecutionStats fields (elapsed_seconds, btree_node_visits,
docs_materialized)."""

import pytest

from repro.errors import PlanError
from repro.rdb import Database, ExecutionStats, INT, PlanProfiler, TEXT, explain
from repro.rdb.expressions import Const, col, gt
from repro.rdb.plan import Filter, Query, Scan
from repro.rdb.storage import ClobStorage, ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document

from tests.core.paper_example import DEPT_DTD, DEPT_DOC_1, DEPT_DOC_2


def make_db():
    db = Database()
    db.create_table("t", [("id", INT), ("name", TEXT)])
    for i in range(10):
        db.insert("t", (i, "row%d" % i))
    return db


def filtered_query():
    return Query(
        Filter(Scan("t"), gt(col("id", "t"), Const(4))),
        [("id", col("id", "t"))],
    )


class TestExplainAnalyze:
    def test_annotates_per_node_rows(self):
        db = make_db()
        report = filtered_query().explain(db=db, analyze=True)
        lines = report.render().splitlines()
        assert lines[0].startswith("QUERY outputs=[id]")
        filter_line = next(line for line in lines if "Filter" in line)
        scan_line = next(line for line in lines if "Scan" in line)
        # the scan produced all 10 rows, the filter passed 5
        assert "rows=10" in scan_line
        assert "rows=5" in filter_line
        assert "opens=1" in scan_line
        assert "self=" in scan_line and "total=" in scan_line
        assert "Execution:" in lines[-1]
        assert "elapsed_seconds=" in lines[-1]

    def test_profile_times_nest(self):
        db = make_db()
        query = filtered_query()
        stats = ExecutionStats()
        stats.profiler = PlanProfiler(timed=True)
        query.execute(db, stats=stats)
        filter_node = query.plan
        scan_node = filter_node.child
        filter_profile = stats.profiler.get(filter_node)
        scan_profile = stats.profiler.get(scan_node)
        assert filter_profile.rows_out == 5
        assert scan_profile.rows_out == 10
        # parent total includes child total; self-time is the difference
        assert filter_profile.total_seconds >= scan_profile.total_seconds
        assert stats.profiler.self_seconds(filter_node) <= (
            filter_profile.total_seconds
        )

    def test_plain_explain_unchanged_without_profile(self):
        text = explain(filtered_query())
        assert "actual" not in text
        assert "Execution:" not in text

    def test_analyze_requires_query_and_db(self):
        with pytest.raises(PlanError):
            filtered_query().explain(analyze=True)

    def test_unexecuted_branch_is_marked(self):
        db = make_db()
        query = filtered_query()
        profiler = PlanProfiler()
        # render against an empty profiler: nothing executed
        text = explain(query, profile=profiler)
        assert text.count("(never executed)") == 2


class TestExecutionStatsFields:
    def test_elapsed_seconds_filled_by_execute(self):
        db = make_db()
        _, stats = db.execute(filtered_query())
        assert stats.elapsed_seconds > 0.0
        assert "elapsed_seconds" in stats.as_dict()

    def test_btree_node_visits_counted_per_probe(self):
        db = make_db()
        db.create_index("t", "id")
        index = db.find_index("t", "id")
        stats = ExecutionStats()
        index.lookup_eq(3, stats=stats)
        assert stats.index_probes == 1
        # 10 keys -> a 4-deep binary descent
        assert stats.btree_node_visits == 4
        index.lookup_range(low=2, high=8, stats=stats)
        assert stats.btree_node_visits == 8

    def test_repr_handles_float_fields(self):
        stats = ExecutionStats()
        stats.elapsed_seconds = 0.25
        assert "elapsed_seconds=0.250000" in repr(stats)


class TestDocsMaterialized:
    def test_object_relational_materialize_counts(self):
        db = Database()
        storage = ObjectRelationalStorage(db, schema_from_dtd(DEPT_DTD), "xd")
        storage.load(parse_document(DEPT_DOC_1))
        storage.load(parse_document(DEPT_DOC_2))
        stats = ExecutionStats()
        for doc_id in storage.document_ids():
            storage.materialize(doc_id, stats=stats)
        assert stats.docs_materialized == 2

    def test_clob_materialize_counts(self):
        db = Database()
        storage = ClobStorage(db, "c")
        doc_id = storage.load(parse_document(DEPT_DOC_1))
        stats = ExecutionStats()
        storage.materialize(doc_id, stats=stats)
        assert stats.docs_materialized == 1
