"""The bind step: flat tuple rows, slot resolution once per (plan,
catalog), and the runtime handle a :class:`Query` caches it in."""

import pickle
import sys
import threading
import time

import pytest

from repro.api import Engine
from repro.errors import DatabaseError, DeadlineExceededError
from repro.obs import MetricsRegistry
from repro.rdb import (
    Aggregate,
    Database,
    Filter,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    Query,
    Scan,
    Sort,
    INT,
    TEXT,
)
from repro.rdb.binding import Layout, sort_pairs
from repro.rdb.expressions import (
    BinOp,
    ColumnRef,
    FuncCall,
    ScalarSubquery,
    TreeContains,
    col,
    const,
    eq,
    gt,
)
from repro.rdb.plan import ExecutionStats, HashLeftJoin, StructuralJoin
from repro.rdb.sqlxml import AggCall, XMLAgg, XMLElement
from repro.rdb.treestorage import TreeStorage
from repro.serve import decode_artifact, encode_artifact
from repro.xmlmodel import parse_document
from repro.xsltmark.cases import get_case
from repro.xsltmark.runner import prepare_case

BATCH_SIZES = [1, 2, 7, 256]


def run(db, query, batch_size=None, env=None):
    rows, _ = query.execute(db, env=env, batch_size=batch_size)
    return rows


class TestLayout:
    def test_slots_follow_segment_order(self):
        layout = Layout().extend("d", ["deptno", "dname"]).extend(
            "e", ["empno", "deptno"])
        assert layout.width == 4
        assert layout.slot("dname", "d") == 1
        assert layout.slot("deptno", "e") == 3
        assert layout.slot("empno") == 2

    def test_later_segment_shadows_the_same_alias(self):
        layout = Layout().extend("t", ["x"]).extend("t", ["y", "x"])
        assert layout.slot("x", "t") == 2
        assert layout.slot("x") == 2  # the shadowed segment is out of scope

    def test_anonymous_segment_takes_slots_but_no_names(self):
        layout = Layout().extend("a", ["x"]).extend(None, ["0", "1"]).extend(
            "b", ["y"])
        assert layout.slot("y", "b") == 3
        with pytest.raises(DatabaseError, match="unknown column '0'"):
            layout.slot("0")

    def test_env_is_flattened_once_into_the_prefix_row(self):
        layout, row = Layout.of_env({"d": {"deptno": 10, "dname": "A"}})
        assert row == (10, "A")
        assert layout.segments == (("d", ("deptno", "dname")),)


class TestBindKeySafety:
    """Slots are column positions: a bound program must never run against
    a catalog it was not bound to."""

    @staticmethod
    def make(columns, row):
        db = Database()
        db.create_table("t", columns)
        db.insert("t", row)
        return db

    def test_two_databases_with_reordered_columns(self):
        first = self.make([("a", INT), ("b", TEXT)], (1, "one"))
        second = self.make([("b", TEXT), ("a", INT)], ("two", 2))
        query = Query(Scan("t"), [(None, col("a")), (None, col("b"))])
        for _ in range(3):
            assert run(first, query) == [(1, "one")]
            assert run(second, query) == [(2, "two")]
        assert query.runtime.binds == 6

    def test_table_dropped_and_recreated_with_a_column_added(self):
        db = self.make([("a", INT), ("b", TEXT)], (1, "one"))
        query = Query(Filter(Scan("t"), gt(col("a"), const(0))),
                      [(None, col("b"))])
        assert run(db, query) == [("one",)]
        assert run(db, query) == [("one",)]
        assert query.runtime.binds == 1
        db.drop_table("t")
        db.create_table("t", [("extra", TEXT), ("a", INT), ("b", TEXT)])
        db.insert("t", ("x", 5, "five"))
        assert run(db, query) == [("five",)]
        assert query.runtime.binds == 2

    def test_caller_env_shape_is_part_of_the_key(self, db):
        query = Query(
            Filter(Scan("emp", "e"),
                   eq(col("deptno", "e"), col("deptno", "d"))),
            [(None, col("ename", "e")), (None, col("dname", "d"))],
        )
        narrow = {"d": {"deptno": 40, "dname": "OPS"}}
        wide = {"d": {"dname": "ACC", "loc": "NY", "deptno": 10}}
        assert run(db, query, env=narrow) == [("SMITH", "OPS")]
        assert run(db, query, env=wide) == [("CLARK", "ACC"),
                                            ("MILLER", "ACC")]
        assert run(db, query, env=narrow) == [("SMITH", "OPS")]
        assert query.runtime.binds == 3
        assert run(db, query, env=dict(narrow)) == [("SMITH", "OPS")]
        assert query.runtime.binds == 3  # same shape: no re-bind

    def test_dom_and_markup_bindings_are_cached_side_by_side(self, db):
        query = Query(Scan("emp"), [(None, XMLElement("e", col("ename")))])
        for _ in range(3):
            query.execute(db)
            "".join(query.stream_pieces(db))
        assert query.runtime.binds == 2


class TestNameErrorsAtBind:
    """Unknown alias / column and ambiguous column keep their error type
    and text, raised once at first execution instead of per row."""

    def test_messages(self, db):
        cases = [
            (col("x", "missing"),
             "alias 'missing' is not in scope (have: emp)"),
            (col("nope", "emp"), "no column 'nope' in alias 'emp'"),
            (col("nope"), "unknown column 'nope'"),
        ]
        for expr, message in cases:
            with pytest.raises(DatabaseError) as raised:
                Query(Scan("emp"), [(None, expr)]).execute(db)
            assert str(raised.value) == message
        join = NestedLoopJoin(Scan("emp", "e"), Scan("dept", "d"))
        with pytest.raises(DatabaseError) as raised:
            Query(join, [(None, col("deptno"))]).execute(db)
        assert str(raised.value) == "ambiguous column 'deptno'"
        with pytest.raises(DatabaseError) as raised:
            ColumnRef("x", "t").evaluate({})
        assert str(raised.value) == "alias 't' is not in scope (have: none)"

    def test_bad_reference_over_empty_input_now_raises(self, db):
        """The one visible difference from per-row resolution: there is
        no row to defer the error to, and none is needed."""
        empty = Filter(Scan("emp"), gt(col("sal"), const(10 ** 9)))
        assert run(db, Query(empty, [(None, col("ename"))])) == []
        for bad in (col("nope"), FuncCall("NOPE", [col("ename")]),
                    BinOp("??", col("sal"), const(1))):
            with pytest.raises(DatabaseError):
                Query(empty, [(None, bad)]).execute(db)

    def test_tree_contains_resolves_its_index_at_bind(self):
        db = Database()
        db.create_table("n", [("doc_id", INT), ("node_id", INT),
                              ("parent_id", INT)])
        query = Query(
            NestedLoopJoin(Scan("n", "a"), Scan("n", "d"),
                           TreeContains("n", "a", "d")),
            [(None, col("node_id", "a")), (None, col("node_id", "d"))],
        )
        with pytest.raises(DatabaseError, match="needs a node_id index"):
            query.execute(db)  # raised with no row in the table
        db.create_index("n", "node_id")
        db.insert("n", (1, 1, 0), (1, 2, 1), (1, 3, 2), (2, 4, 0))
        assert run(db, query) == [(1, 2), (1, 3), (2, 3)]


class TestDeadline:
    def test_expired_deadline_stops_the_drive_loop_between_batches(self, db):
        query = Query(Scan("emp"), [(None, col("ename"))])
        stats = ExecutionStats()
        produced = query.execute_batches(db, stats=stats, batch_size=1)
        assert next(produced) == [("CLARK",)]
        stats.deadline = time.perf_counter()  # passed by the second batch
        with pytest.raises(DeadlineExceededError, match="after 1 batches"):
            next(produced)
        assert stats.output_rows == 1

    def test_stream_pieces_checks_it_too(self, db):
        query = Query(Scan("emp"), [(None, XMLElement("e", col("ename")))])
        stats = ExecutionStats()
        pieces = query.stream_pieces(db, stats=stats, batch_size=1)
        assert next(pieces) == "<e>CLARK</e>"
        stats.deadline = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            next(pieces)

    def test_no_deadline_and_a_future_one_run_to_completion(self, db):
        query = Query(Scan("emp"), [(None, col("ename"))])
        stats = ExecutionStats()
        assert stats.deadline is None
        stats.deadline = time.perf_counter() + 60.0
        rows, _ = query.execute(db, stats=stats, batch_size=1)
        assert len(rows) == 3


class TestSortPairs:
    def test_last_key_first_and_arrival_order_breaks_ties(self):
        pairs = [((1, "b"), "r0"), ((0, "b"), "r1"), ((1, "a"), "r2"),
                 ((0, "b"), "r3")]
        ordered = sort_pairs(pairs, [False, True])
        assert [payload for _, payload in ordered] == ["r1", "r3", "r0", "r2"]
        assert pairs[0][1] == "r0"  # the input is not reordered

    def test_nulls_first_and_mixed_types_as_text(self):
        pairs = [((2,), "two"), ((None,), "null"), (("10",), "text"),
                 ((1.5,), "float")]
        assert [p for _, p in sort_pairs(pairs, [False])] == [
            "null", "float", "two", "text"]
        assert [p for _, p in sort_pairs(pairs, [True])] == [
            "text", "two", "float", "null"]


class TestOperatorsOverTupleRows:
    """Operators the audit in ``test_batches.py`` does not reach, against
    literal rows at every batch size."""

    @pytest.fixture
    def nulls(self, db):
        db.insert("emp", (8000, "GHOST", "TEMP", 100, None))
        db.insert("dept", (None, "LIMBO", "NOWHERE"))
        return db

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_correlated_scalar_subquery_under_nested_loop(self, db,
                                                          batch_size):
        count_above = Query(
            Filter(Scan("emp", "x"), BinOp(
                "AND", eq(col("deptno", "x"), col("deptno", "d")),
                gt(col("sal", "x"), col("sal", "e")))),
            [(None, AggCall("COUNT"))],
        )
        query = Query(
            NestedLoopJoin(Scan("dept", "d"), Scan("emp", "e"),
                           eq(col("deptno", "d"), col("deptno", "e"))),
            [(None, col("dname", "d")), (None, col("ename", "e")),
             (None, ScalarSubquery(count_above))],
        )
        rows, stats = query.execute(db, batch_size=batch_size)
        assert rows == [("ACCOUNTING", "CLARK", 0.0),
                        ("ACCOUNTING", "MILLER", 1.0),
                        ("OPERATIONS", "SMITH", 0.0)]
        assert stats.subquery_executions == 3
        assert stats.rows_scanned == 2 + 2 * 3 + 3 * 3

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_hash_join_with_residual_condition(self, db, batch_size):
        query = Query(
            HashJoin(Scan("dept", "d"), Scan("emp", "e"),
                     col("deptno", "d"), col("deptno", "e"),
                     condition=gt(col("sal", "e"), const(2000))),
            [(None, col("dname", "d")), (None, col("ename", "e"))],
        )
        rows, stats = query.execute(db, batch_size=batch_size)
        assert rows == [("ACCOUNTING", "CLARK"), ("OPERATIONS", "SMITH")]
        assert (stats.hash_build_rows, stats.hash_probes) == (3, 2)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_index_scan_with_correlated_key(self, db, batch_size):
        db.create_index("emp", "deptno")
        query = Query(
            NestedLoopJoin(
                Sort(Scan("dept", "d"), [(col("deptno", "d"), True)]),
                IndexScan("emp", "idx_emp_deptno", "=", col("deptno", "d"),
                          alias="e")),
            [(None, col("loc", "d")), (None, col("ename", "e"))],
        )
        rows, stats = query.execute(db, batch_size=batch_size)
        assert rows == [("BOSTON", "SMITH"), ("NEW YORK", "CLARK"),
                        ("NEW YORK", "MILLER")]
        assert stats.index_probes == 2
        assert stats.rows_scanned == 2 + 3

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_null_join_keys_never_match(self, nulls, batch_size):
        hash_join = Query(
            HashJoin(Scan("dept", "d"), Scan("emp", "e"),
                     col("deptno", "d"), col("deptno", "e")),
            [(None, col("dname", "d")), (None, col("ename", "e"))],
        )
        assert run(nulls, hash_join, batch_size) == [
            ("ACCOUNTING", "CLARK"), ("ACCOUNTING", "MILLER"),
            ("OPERATIONS", "SMITH")]
        left_join = Query(
            HashLeftJoin(
                Scan("dept", "d"),
                Aggregate(Scan("emp", "e"),
                          group_by=[("k", col("deptno", "e"))],
                          outputs=[("n", AggCall("COUNT")),
                                   ("names", XMLAgg(col("ename", "e")))],
                          alias="g"),
                [col("deptno", "d")], [col("k", "g")]),
            [(None, col("dname", "d")), (None, col("n", "g")),
             (None, col("names", "g")), (None, col("k", "g"))],
        )
        assert run(nulls, left_join, batch_size) == [
            ("ACCOUNTING", 2.0, ["CLARK", "MILLER"], 10),
            ("OPERATIONS", 1.0, ["SMITH"], 40),
            # the NULL dept matches no group, not even the NULL one
            ("LIMBO", 0.0, [], None)]

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_structural_join(self, batch_size):
        db = Database()
        storage = TreeStorage(db, "t")
        storage.load(parse_document("<a><b><c/><b><c/></b></b><c/></a>"))
        query = storage.descendant_query("b", "c")
        assert any(isinstance(node, StructuralJoin)
                   for node in db.optimize(query).plan.iter_plan())
        walk, _ = db.execute(query, level="off")
        rows, stats = db.optimize(query).execute(db, batch_size=batch_size)
        # outer <b> contains both nested <c>; inner <b> only its own
        assert len(rows) == 3 and rows == walk
        assert stats.struct_join_rows == 3


class TestSharedBinding:
    def test_threads_share_one_binding(self):
        """4 threads x 50 requests over one CompiledTransform: one bind,
        identical bytes, and a separate ExecutionStats per request."""
        prep = prepare_case(get_case("chart"), 40)
        engine = Engine(prep.db, metrics=MetricsRegistry())
        compiled = engine.compile(prep.storage, prep.case.stylesheet)
        assert compiled.is_rewritten and compiled.query.runtime.binds == 0
        results, errors = [], []
        barrier = threading.Barrier(4)

        def worker():
            try:
                barrier.wait(10.0)
                for _ in range(50):
                    results.append(engine.execute(prep.storage, compiled))
            except BaseException as exc:  # re-raised below, on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        assert len(results) == 200
        assert compiled.query.runtime.binds == 1
        assert len({tuple(r.serialized_rows()) for r in results}) == 1
        assert len({id(r.stats) for r in results}) == 200
        assert len({(r.stats.rows_scanned, r.stats.xml_elements,
                     r.stats.hash_probes, r.stats.output_rows)
                    for r in results}) == 1


class TestArtifactCarriesTheTreeNotTheBinding:
    def test_pickle_has_no_closure_and_a_loaded_artifact_binds_once(self):
        prep = prepare_case(get_case("avts"), 20)
        engine = Engine(prep.db, metrics=MetricsRegistry())
        compiled = engine.compile(prep.storage, prep.case.stylesheet)
        before = pickle.dumps(compiled)
        first = engine.execute(prep.storage, compiled)
        assert compiled.query.runtime.binds == 1
        # executing left closures on the query; none reaches the bytes
        assert pickle.dumps(compiled) == before
        data, _ = encode_artifact(compiled, "k")
        _, loaded = decode_artifact(data, expect_key="k")
        assert loaded.query.runtime.binds == 0
        for _ in range(4):
            again = engine.execute(prep.storage, loaded)
            assert again.serialized_rows() == first.serialized_rows()
        assert loaded.query.runtime.binds == 1  # once, then zero re-binds
        assert compiled.query.runtime.binds == 1
