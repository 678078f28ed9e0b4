"""Structural path index + label-range StructuralJoin (paper §7.4).

The descendant-axis pattern ``//anc//desc`` over tree storage has two
physical shapes: the honest baseline — a nested-loop self-join whose
``TREE_CONTAINS`` predicate walks the ``parent_id`` chain per pair — and
the structural path index feeding a stack-based merge of two label
streams.  The cost planner must pick the index form when it exists, the
ledger must say so, and the bytes must never change.
"""

import pytest

from repro.errors import CatalogError
from repro.obs.decisions import STRUCTURAL_PATH, DecisionLedger
from repro.obs.metrics import global_metrics
from repro.rdb import Database
from repro.rdb.plan import ExecutionStats, StructuralJoin
from repro.rdb.structindex import StructuralPathIndex
from repro.rdb.treestorage import TreeStorage
from repro.xsltmark.generator import make_tree_document


def make_storage(docs=2, structural_index=True):
    db = Database()
    storage = TreeStorage(db, "t", structural_index=structural_index)
    for _ in range(docs):
        storage.load(make_tree_document(3, fanout=2))
    return db, storage


class TestStructuralPathIndex:
    def test_entries_and_count(self):
        _, storage = make_storage(docs=1)
        # depth 3 / fanout 2: 1+2+4 = 7 <node>, 7 <label>, 1 <tree>
        assert storage.structural.count_name("node") == 7
        assert storage.structural.count_name("label") == 7
        assert storage.structural.count_name("tree") == 1
        assert storage.structural.count_name("missing") == 0

    def test_scan_orders_by_doc_then_start(self):
        _, storage = make_storage(docs=2)
        keys = [key for key, _ in storage.structural.scan_name("node")]
        assert keys == sorted(keys)
        assert {doc for doc, _ in keys} == {1, 2}

    def test_scan_doc_filter(self):
        _, storage = make_storage(docs=2)
        keys = [key for key, _ in storage.structural.scan_name(
            "node", doc_id=2)]
        assert keys and all(doc == 2 for doc, _ in keys)

    def test_scan_counts_stats(self):
        _, storage = make_storage(docs=1)
        stats = ExecutionStats()
        list(storage.structural.scan_name("node", stats=stats))
        assert stats.struct_range_scans > 0

    def test_duplicate_registration_rejected(self):
        db, storage = make_storage(docs=1)
        with pytest.raises(CatalogError):
            db.register_structural_index(
                StructuralPathIndex(storage.table_name))

    def test_drop_table_clears_index(self):
        db, storage = make_storage(docs=1)
        db.drop_table(storage.table_name)
        assert db.structural_index(storage.table_name) is None


class TestStructuralJoinPlanning:
    def test_cost_level_plans_structural_join(self):
        db, storage = make_storage()
        query = storage.descendant_query("node", "label")
        optimized = db.optimize(query, level="cost")
        names = [type(node).__name__ for node in optimized.plan.iter_plan()]
        assert "StructuralJoin" in names
        assert "NestedLoopJoin" not in names

    def test_off_level_keeps_tree_walk(self):
        db, storage = make_storage()
        query = storage.descendant_query("node", "label")
        optimized = db.optimize(query, level="off")
        names = [type(node).__name__ for node in optimized.plan.iter_plan()]
        assert "StructuralJoin" not in names

    def test_byte_identical_results(self):
        db, storage = make_storage()
        query = storage.descendant_query("node", "label")
        walk_rows, _ = db.execute(query, level="off")
        index_rows, _ = db.execute(query, level="cost")
        assert walk_rows == index_rows
        assert len(index_rows) > 0

    def test_batched_execution_matches(self):
        db, storage = make_storage()
        query = storage.descendant_query("node", "label")
        optimized = db.optimize(query, level="cost")
        whole, _ = optimized.execute(db)
        batched = []
        stats = ExecutionStats()
        for batch in optimized.execute_batches(db, stats=stats,
                                               batch_size=7):
            batched.extend(batch)
        assert batched == whole

    def test_doc_id_restriction(self):
        db, storage = make_storage()
        query = storage.descendant_query("node", "label", doc_id=2)
        walk_rows, _ = db.execute(query, level="off")
        index_rows, stats = db.execute(query, level="cost")
        assert walk_rows == index_rows
        assert index_rows and all(row[0] == 2 for row in index_rows)

    def test_self_join_excludes_self_pairs(self):
        db, storage = make_storage(docs=1)
        query = storage.descendant_query("node", "node")
        walk_rows, _ = db.execute(query, level="off")
        index_rows, _ = db.execute(query, level="cost")
        assert walk_rows == index_rows
        assert all(row[1] != row[2] for row in index_rows)

    def test_without_index_falls_back(self):
        db, storage = make_storage(structural_index=False)
        query = storage.descendant_query("node", "label")
        optimized = db.optimize(query, level="cost")
        names = [type(node).__name__ for node in optimized.plan.iter_plan()]
        assert "StructuralJoin" not in names
        walk_rows, _ = db.execute(query, level="off")
        cost_rows, _ = db.execute(query, level="cost")
        assert walk_rows == cost_rows

    def test_ledger_records_the_choice(self):
        db, storage = make_storage()
        ledger = DecisionLedger()
        db.optimize(storage.descendant_query("node", "label"),
                    level="cost", ledger=ledger)
        chosen = [d for d in ledger.decisions if d.kind == STRUCTURAL_PATH]
        assert len(chosen) == 1
        assert chosen[0].action == "structural-join"
        assert "node" in chosen[0].subject and "label" in chosen[0].subject
        assert chosen[0].detail["structural_cost"] < \
            chosen[0].detail["tree_walk_cost"]

    def test_execution_stats_counters(self):
        db, storage = make_storage()
        optimized = db.optimize(storage.descendant_query("node", "label"),
                                level="cost")
        stats = ExecutionStats()
        rows, _ = optimized.execute(db, stats=stats)
        assert stats.struct_range_scans >= 2  # one per side of the join
        assert stats.struct_join_rows == len(rows)

    def test_explain_shows_structural_operators(self):
        from repro.rdb.plan import explain
        db, storage = make_storage()
        optimized = db.optimize(storage.descendant_query("node", "label"),
                                level="cost")
        rendered = explain(optimized)
        assert "StructuralJoin" in rendered
        assert "StructuralScan" in rendered


class TestFingerprints:
    def test_structural_index_changes_catalog_fingerprint(self):
        db_with, _ = make_storage(docs=1)
        db_without, _ = make_storage(docs=1, structural_index=False)
        assert db_with.fingerprint() != db_without.fingerprint()

    def test_storage_fingerprint_covers_structural_index(self):
        _, with_index = make_storage(docs=1)
        _, without = make_storage(docs=1, structural_index=False)
        assert with_index.fingerprint() != without.fingerprint()


class TestMetricsFamily:
    def test_structural_metrics_flow(self):
        metrics = global_metrics()
        scans_before = metrics.counter("structural.index.range_scans").value
        joins_before = metrics.counter("structural.index.join_rows").value
        db, storage = make_storage()
        assert metrics.gauge("structural.index.entries").value > 0
        rows, _ = db.execute(storage.descendant_query("node", "label"),
                             level="cost")
        assert metrics.counter("structural.index.range_scans").value \
            > scans_before
        assert metrics.counter("structural.index.join_rows").value \
            == joins_before + len(rows)
