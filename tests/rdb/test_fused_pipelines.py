"""Fused pipelines (DESIGN §9.1, §14.2): each chain of a bound plan — a
leaf access path, the filters over it and the loop that drains it — runs
as one generated loop, and a decorrelated nest runs as one groupjoin.
Only execution changed: rows, every work counter and each operator's
observed rows, batches and opens are what the operator-at-a-time
executor produced.

``fused_goldens.json`` pins, per XSLTMark case, batch size, optimizer
level and decorrelation toggle (and per hand-built edge query), the
output digest, every ``ExecutionStats`` counter and the per-operator
actuals, as :func:`record_case` and :func:`record_edge` below read
them.  It was captured from commit dbe2e6f — the last tree that ran
each operator as its own generator — and rechecked there; a later tree
cannot recapture it, only be compared to it.  Each entry's ``stats``
names its counters, so a counter added to ``ExecutionStats`` goes
unpinned and one dropped is deleted from the entries by name (the
structural-join counters, 0 in every entry, left that way).
"""

import gc
import hashlib
import json
import os
import re
import sys
import time

import pytest

from repro.api import Engine, TransformOptions
from repro.errors import DeadlineExceededError, PlanError
from repro.obs import MetricsRegistry, Tracer
from repro.rdb import (
    Aggregate, Database, Filter, IndexScan, Limit, NestedLoopJoin, Query,
    Scan, INT, TEXT)
from repro.rdb.expressions import ScalarSubquery, SqlExpr, col, const, eq
from repro.rdb.plan import ExecutionStats, HashLeftJoin, PlanProfiler
from repro.rdb.sqlxml import AggCall, XMLAgg, XMLElement
from repro.xsltmark import ALL_CASES, get_case
from repro.xsltmark.runner import prepare_case

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fused_goldens.json")
SIZE = 12
BATCH_SIZES = (1, 2, 7, 256)
LEVELS = ("cost", "off")
#: counters that depend on the clock or on streaming, not on the plan
UNPINNED = ("elapsed_seconds",)


def digest(texts):
    return hashlib.sha256("\x00".join(texts).encode("utf-8")).hexdigest()


def counters(stats):
    return {name: getattr(stats, name) for name in ExecutionStats._FIELDS
            if name not in UNPINNED}


def pinned(entry, golden):
    """``entry`` with only the counters ``golden`` names: a counter added
    since has no golden, and one dropped is a missing key."""
    return dict(entry, stats={name: entry["stats"][name]
                              for name in golden["stats"]})


def actuals(profiler):
    """``[op, rows, batches, opens]`` per observed operator, in EXPLAIN
    ``#n`` order (none for a functional run)."""
    if profiler is None or profiler.table is None:
        return []
    return [[row[2], profiler.rows_out[row[0]], profiler.batches[row[0]],
             profiler.opens[row[0]]] for row in profiler.table.rows]


def record_case(name, level, decorrelate):
    """``{batch size: entry}`` of one case compiled at ``level``: each a
    run through ``Engine.execute`` with the tracer on (so profiled)."""
    case = get_case(name)
    setup = prepare_case(case, SIZE)
    engine = Engine(setup.db, tracer=Tracer())
    compiled = engine.compile(setup.storage, case.stylesheet, options=(
        TransformOptions(optimizer_level=level, decorrelate=decorrelate)))
    entries = {}
    for batch_size in BATCH_SIZES:
        result = engine.execute(setup.storage, compiled,
                                options=TransformOptions(
                                    batch_size=batch_size))
        entries[batch_size] = {
            "strategy": result.strategy,
            "rows": digest(result.serialized_rows()),
            "stats": counters(result.stats),
            "actuals": actuals(result.plan_profile)}
    return entries


def edge_database():
    db = Database()
    db.create_table("dept", [("deptno", INT), ("dname", TEXT)])
    db.create_table("emp", [("empno", INT), ("ename", TEXT),
                            ("deptno", INT), ("sal", INT)])
    db.insert("dept", *[(10, "ACCOUNTING"), (20, "RESEARCH"),
                       (30, "SALES"), (None, "LIMBO")])
    db.insert("emp", *[(1, "CLARK", 10, 2450), (2, "MILLER", 10, 1300),
                      (3, "SMITH", 20, 800), (4, "ALLEN", 30, 1600),
                      (5, "WARD", None, 1250), (6, "KING", 10, 5000),
                      (7, "FORD", 20, 3000)])
    db.create_index("emp", "deptno")
    return db


def _grouped(child, alias="g", outputs=None):
    return Aggregate(child, [("k", col("deptno", "e"))], outputs or [
        ("n", AggCall("COUNT")),
        ("names", XMLAgg(XMLElement("e", col("ename", "e")),
                         [(col("empno", "e"), False)]))], alias=alias)


def edge_queries():
    """Hand-built plans for what the 40 cases do not reach: a chain
    opened under an outer prefix (a NestedLoopJoin's right side, a
    ScalarSubquery's source, a groupjoin inside one), a Limit over
    fused leaves, a NULL join key."""
    correlated_probe = IndexScan("emp", "idx_emp_deptno", "=",
                                 col("deptno", "d"), alias="e")
    return {
        "nlj-right-filter": Query(
            NestedLoopJoin(Scan("dept", "d"), Filter(
                Scan("emp", "e"), eq(col("deptno", "e"), col("deptno", "d")))),
            [(None, col("dname", "d")), (None, col("ename", "e"))]),
        "nlj-right-index": Query(
            NestedLoopJoin(Scan("dept", "d"), correlated_probe),
            [(None, col("dname", "d")), (None, col("ename", "e"))]),
        "nlj-right-groupjoin": Query(
            NestedLoopJoin(Scan("dept", "d"), HashLeftJoin(
                Filter(Scan("emp", "x"),
                       eq(col("deptno", "x"), col("deptno", "d"))),
                _grouped(Scan("emp", "e")),
                [col("deptno", "x")], [col("k", "g")])),
            [(None, col("dname", "d")), (None, col("ename", "x")),
             (None, col("n", "g")), (None, col("names", "g"))]),
        "scalar-subquery-scan": Query(Scan("dept", "d"), [
            (None, col("dname", "d")),
            (None, ScalarSubquery(Query(
                Filter(Scan("emp", "e"),
                       eq(col("deptno", "e"), col("deptno", "d"))),
                [(None, XMLAgg(XMLElement("e", col("ename", "e"))))])))]),
        "scalar-subquery-groupjoin": Query(Scan("dept", "d"), [
            (None, col("dname", "d")),
            (None, ScalarSubquery(Query(
                HashLeftJoin(
                    Filter(Scan("dept", "p"),
                           eq(col("deptno", "p"), col("deptno", "d"))),
                    _grouped(Scan("emp", "e")),
                    [col("deptno", "p")], [col("k", "g")]),
                [(None, col("names", "g"))])))]),
        "limit-scan": Query(Limit(Scan("emp", "e"), 3),
                            [(None, col("ename", "e"))]),
        "limit-filter": Query(
            Limit(Filter(Scan("emp", "e"), eq(col("deptno", "e"),
                                              const(10))), 2),
            [(None, col("ename", "e"))]),
        "limit-groupjoin": Query(
            Limit(HashLeftJoin(Scan("dept", "d"), _grouped(Scan("emp", "e")),
                               [col("deptno", "d")], [col("k", "g")]), 2),
            [(None, col("dname", "d")), (None, col("names", "g"))]),
        "null-key-groupjoin": Query(
            HashLeftJoin(Scan("dept", "d"), _grouped(Scan("emp", "e")),
                         [col("deptno", "d")], [col("k", "g")]),
            [(None, col("dname", "d")), (None, col("n", "g")),
             (None, col("names", "g")), (None, col("k", "g"))]),
        "nested-groupjoin": Query(
            HashLeftJoin(
                HashLeftJoin(Scan("dept", "d"), _grouped(Scan("emp", "e")),
                             [col("deptno", "d")], [col("k", "g")]),
                _grouped(Filter(Scan("emp", "e"), eq(col("sal", "e"),
                                                     col("sal", "e"))),
                         alias="h", outputs=[("m", AggCall("MAX", col(
                             "sal", "e")))]),
                [col("deptno", "d")], [col("k", "h")]),
            [(None, col("dname", "d")), (None, col("n", "g")),
             (None, col("m", "h"))]),
    }


def record_edge(name, batch_size):
    db = edge_database()
    query = edge_queries()[name]
    stats = ExecutionStats()
    stats.profiler = PlanProfiler()
    rows, _ = query.execute(db, stats=stats, batch_size=batch_size)
    return {"rows": repr(rows), "stats": counters(stats),
            "actuals": actuals(stats.profiler)}


def load_goldens():
    with open(GOLDENS) as handle:
        return json.load(handle)


GOLDEN_CASES = sorted({key.rsplit("@", 1)[0] for key in load_goldens()
                       if not key.startswith("edge:")})
GOLDEN_EDGES = sorted({key.rsplit("@", 1)[0] for key in load_goldens()
                       if key.startswith("edge:")})


class TestEquivalence:
    def test_goldens_cover_every_case_level_toggle_and_batch_size(self):
        goldens = load_goldens()
        assert len(GOLDEN_CASES) == len(ALL_CASES) * len(LEVELS) * 2 == 160
        assert len(goldens) == (len(GOLDEN_CASES) + len(GOLDEN_EDGES)) \
            * len(BATCH_SIZES)
        rewritten = {key.split("@")[0] for key, entry in goldens.items()
                     if entry.get("strategy") == "sql-rewrite"}
        assert len(rewritten) == 23

    @pytest.mark.parametrize("key", GOLDEN_CASES)
    def test_case_runs_as_the_operator_at_a_time_executor_did(self, key):
        goldens = load_goldens()
        name, level, decorrelate = key.split("@")
        entries = record_case(name, level, decorrelate == "True")
        for batch_size, entry in entries.items():
            golden = goldens["%s@%d" % (key, batch_size)]
            assert pinned(entry, golden) == golden, batch_size

    @pytest.mark.parametrize("key", GOLDEN_EDGES)
    def test_edge_query_runs_as_the_operator_at_a_time_executor_did(
            self, key):
        goldens = load_goldens()
        for batch_size in BATCH_SIZES:
            golden = goldens["%s@%d" % (key, batch_size)]
            assert pinned(record_edge(key[len("edge:"):], batch_size),
                          golden) == golden, batch_size


def _explain_tree(text):
    """``[(depth, op, total, self)]`` of an EXPLAIN ANALYZE plan."""
    nodes = []
    for line in text.splitlines():
        match = re.match(r"(\s*)#\d+ (\w+).*\(actual rows=.*", line)
        if match:
            timing = re.search(r"total=([\d.]+)ms self=([\d.]+)ms", line)
            assert timing, line
            nodes.append((len(match.group(1)), match.group(2),
                          float(timing.group(1)), float(timing.group(2))))
    return nodes


class TestTimedExplainAnalyze:
    """The timed variant of a chain reads the clock at each operator
    boundary: every operator has a total and a self time, and a parent's
    total holds its children's."""

    @pytest.mark.parametrize("name", ["avts", "chart"])
    def test_every_operator_is_timed_and_parents_hold_children(self, name):
        case = get_case(name)
        setup = prepare_case(case, 200)
        text = str(Engine(setup.db).explain(setup.storage, case.stylesheet,
                                            analyze=True))
        nodes = _explain_tree(text)
        ops = [op for _, op, _, _ in nodes]
        assert "HashLeftJoin" in ops and "Aggregate" in ops
        if name == "chart":
            assert ops.count("HashLeftJoin") >= 2  # a nested groupjoin
        for index, (depth, op, total, own) in enumerate(nodes):
            assert 0.0 <= own <= total, (op, total, own)
            # the parent is the nearest shallower line above
            parents = [node for node in nodes[:index] if node[0] < depth]
            if parents:
                assert parents[-1][2] >= total, (parents[-1], op, total)
        assert nodes[0][2] > 0.0


class Stall(SqlExpr):
    """A predicate that lets the deadline pass on its first row."""

    def bind(self, binder, layout):
        def stall(row, stats):
            if stats.deadline > time.perf_counter():
                time.sleep(stats.deadline - time.perf_counter() + 0.001)
            return True
        return stall

    def to_sql(self):
        return "STALL()"


class TestEdges:
    def test_deadline_passing_during_the_build_raises(self):
        db = edge_database()
        query = Query(
            HashLeftJoin(Scan("dept", "d"),
                         _grouped(Filter(Scan("emp", "e"), Stall())),
                         [col("deptno", "d")], [col("k", "g")]),
            [(None, col("dname", "d")), (None, col("n", "g"))])
        stats = ExecutionStats()
        stats.deadline = time.perf_counter() + 0.005
        with pytest.raises(DeadlineExceededError, match="after 0 batches"):
            query.execute(db, stats=stats)
        # the build ran to its end; no batch was handed over
        assert stats.hash_build_rows == 4 and stats.output_rows == 0

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_a_limit_over_a_fused_scan_reads_exactly_its_count(
            self, batch_size):
        """The limit opens its child asking for no more rows at once than
        it wants: a count that fits one batch reads exactly that many,
        a larger one the batches it needs."""
        db = edge_database()
        for count in (0, 1, 3, 7, 9):
            query = Query(Limit(Scan("emp", "e"), count),
                          [(None, col("ename", "e"))])
            rows, stats = query.execute(db, batch_size=batch_size)
            assert len(rows) == min(count, 7)
            assert stats.rows_scanned == min(
                7, -(-count // batch_size) * batch_size
                if count > batch_size else count)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_chains_under_an_outer_prefix(self, batch_size):
        db = edge_database()
        queries = edge_queries()
        rows, _ = queries["nlj-right-index"].execute(db,
                                                     batch_size=batch_size)
        assert rows == [("ACCOUNTING", "CLARK"), ("ACCOUNTING", "MILLER"),
                        ("ACCOUNTING", "KING"), ("RESEARCH", "SMITH"),
                        ("RESEARCH", "FORD"), ("SALES", "ALLEN")]
        rows, stats = queries["scalar-subquery-groupjoin"].execute(
            db, batch_size=batch_size)
        assert [(name, names and "".join(names)) for name, names in rows] \
            == [("ACCOUNTING", "<e>CLARK</e><e>MILLER</e><e>KING</e>"),
                ("RESEARCH", "<e>SMITH</e><e>FORD</e>"),
                ("SALES", "<e>ALLEN</e>"),
                ("LIMBO", None)]  # no parent row: the subquery is NULL
        assert stats.subquery_executions == 4

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_a_null_join_key_finds_no_group(self, batch_size):
        db = Database()
        db.create_table("p", [("a", INT), ("b", TEXT)])
        db.create_table("c", [("a", INT), ("b", TEXT), ("v", INT)])
        db.insert("p", *[(1, "x"), (1, None), (None, "x"), (None, None)])
        db.insert("c", *[(1, "x", 1), (1, None, 2), (None, "x", 4),
                        (None, None, 8)])
        query = Query(
            HashLeftJoin(
                Scan("p", "p"),
                Aggregate(Scan("c", "c"), [("ka", col("a", "c")),
                                           ("kb", col("b", "c"))],
                          [("s", AggCall("SUM", col("v", "c")))], alias="g"),
                [col("a", "p"), col("b", "p")],
                [col("ka", "g"), col("kb", "g")]),
            [(None, col("s", "g"))])
        rows, stats = query.execute(db, batch_size=batch_size)
        # every group is built (and finalised) once; only (1, 'x') joins
        assert rows == [(1.0,), (None,), (None,), (None,)]
        assert stats.hash_build_rows == 4 and stats.hash_probes == 4

    def test_right_keys_must_be_the_group_columns(self):
        db = edge_database()
        query = Query(
            HashLeftJoin(Scan("dept", "d"), _grouped(Scan("emp", "e")),
                         [col("deptno", "d")], [col("n", "g")]),
            [(None, col("dname", "d"))])
        with pytest.raises(PlanError, match="group columns"):
            query.execute(db)



class TestPipelinesStayFused:
    """Each chain of a bound plan runs as one generated loop and a
    decorrelated nest as one groupjoin: no operator generator, no
    aggregate row rebuilt and re-hashed.  Python calls of a warm
    execution (68 / 76 before; the caps are 5 % above what the fused
    plans read)."""

    @pytest.mark.parametrize("name, rows, cap",
                             [("dbonerow", 4000, 51), ("total", 2000, 55)])
    def test_python_calls_of_a_warm_execution(self, name, rows, cap):
        case = get_case(name)
        prepared = prepare_case(case, rows)
        engine = Engine(prepared.db, tracer=Tracer(enabled=False),
                        metrics=MetricsRegistry())
        compiled = engine.compile(prepared.storage, case.stylesheet)
        engine.execute(prepared.storage, compiled)
        calls = [0]

        def count(frame, event, arg):
            if event == "call":
                calls[0] += 1

        gc.disable()  # a collection would call the test runner's gc hooks
        sys.setprofile(count)
        try:
            engine.execute(prepared.storage, compiled)
        finally:
            sys.setprofile(None)
            gc.enable()
        assert calls[0] <= cap, (name, calls[0], cap)
