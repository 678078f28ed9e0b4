"""The per-binding observation table: what a bind pass fixes about
observing a plan, the slot-array profiler that counts into it, and the
one post-execution fold that reads it back (DESIGN §9.1, §11.1)."""

import pickle
import re
import sys
import threading

import pytest

from repro.api import Engine, TransformOptions
from repro.obs import MetricsRegistry, Tracer, format_qerror
from repro.rdb import Database, ExecutionStats, INT, PlanProfiler, TEXT, explain
from repro.rdb.expressions import Const, col, eq, gt
from repro.rdb.plan import Filter, NestedLoopJoin, PlanNode, Query, Scan
from repro.obs.feedback import QERROR_CAP, plan_feedback
from repro.xsltmark import get_case
from repro.xsltmark.runner import prepare_case

ROWS = 20


def prepared(name, **options):
    """``(engine, registry, storage, compiled)`` of one XSLTMark case
    over a ROWS-row document, each with a registry of its own."""
    case = get_case(name)
    setup = prepare_case(case, ROWS)
    registry = MetricsRegistry()
    engine = Engine(setup.db, tracer=Tracer(), metrics=registry)
    compiled = engine.compile(setup.storage, case.stylesheet,
                              options=TransformOptions(**options))
    assert compiled.is_rewritten
    registry.reset()  # the compile stages recorded their timings
    return engine, registry, setup.storage, compiled


def operator_rows(registry):
    return {counter.labels["op"]: counter.value
            for counter in registry.counters("plan.operator_rows")}


def untimed(text):
    text = re.sub(r"(total|self)=[0-9.]+ms", r"\1=-", text)
    return re.sub(r"elapsed_seconds=[0-9.]+", "elapsed_seconds=-", text)


def untimed_snapshot(registry):
    snapshot = registry.snapshot()
    return snapshot["counters"], {
        key: (summary["count"],
              None if key.endswith("_seconds") else summary["sum"])
        for key, summary in snapshot["histograms"].items()
    }


class TestNoPerRequestPlanWalk:
    def test_second_execution_walks_no_plan(self, monkeypatch):
        engine, registry, storage, compiled = prepared("avts")
        first = engine.execute(storage, compiled)
        first_snapshot = untimed_snapshot(registry)
        registry.reset()

        walks = []
        walk = PlanNode.iter_plan
        monkeypatch.setattr(
            PlanNode, "iter_plan",
            lambda node: walks.append(node) or walk(node))
        second = engine.execute(storage, compiled)
        monkeypatch.undo()

        assert walks == []
        assert compiled.query.runtime.binds == 1
        assert second.feedback.as_dict() == first.feedback.as_dict()
        assert untimed(str(second.explain())) == untimed(str(first.explain()))
        assert untimed_snapshot(registry) == first_snapshot

    def test_a_reset_registry_gets_its_instruments_back(self):
        engine, registry, storage, compiled = prepared("avts")
        engine.execute(storage, compiled)
        before = operator_rows(registry)
        registry.reset()
        engine.execute(storage, compiled)
        assert operator_rows(registry) == before

    def test_an_instrument_nothing_recorded_into_is_not_created(self):
        # a plan run as emitted carries no estimates to judge
        engine, registry, storage, compiled = prepared(
            "avts", optimizer_level="off")
        engine.execute(storage, compiled)
        assert operator_rows(registry)
        assert registry.histograms("planner.qerror") == []


class TestCounterAndFeedbackReadTheSameRows:
    """``plan.operator_rows`` used to walk the main tree only, so the
    correlated subquery plans the Q-error record judged never reached
    it."""

    def test_correlated_subquery_operators_are_counted(self):
        engine, registry, storage, compiled = prepared(
            "avts", decorrelate=False)
        result = engine.execute(storage, compiled)
        judged = {(node.op, node.actual_rows * node.opens)
                  for node in result.feedback.nodes}
        assert judged == {("Scan", 1), ("IndexScan", ROWS)}
        assert operator_rows(registry) == {"Scan": 1, "IndexScan": ROWS}

    def test_decorrelated_plan_counts_as_before(self):
        engine, registry, storage, compiled = prepared("avts")
        engine.execute(storage, compiled)
        assert operator_rows(registry) == {
            "Aggregate": 1, "HashLeftJoin": 1, "Scan": ROWS + 1}


def qerror_column(result):
    """EXPLAIN ANALYZE's ``q=`` values, in plan order."""
    return re.findall(r" q=(\S+?)\)", str(result.explain()))


def qerror_counts(registry):
    return {histogram.labels["op"]: histogram.count
            for histogram in registry.histograms("planner.qerror")}


class TestOneRecordEverySurface:
    """EXPLAIN ANALYZE's ``q=`` column, ``report()`` and the
    ``planner.qerror*`` instruments all show the one record
    ``plan_feedback`` makes of a profiled run's counts.  The cases span the
    plan shapes: a one-sided zero (``inf``), a filtered join, two
    grouped joins and an all-exact plan."""

    @pytest.mark.parametrize("name", [
        "dbonerow", "decoy", "avts", "chart", "summarize", "inventory",
        "workbook"])
    def test_surfaces_agree_with_the_record(self, name):
        engine, registry, storage, compiled = prepared(name)
        result = engine.execute(storage, compiled)
        feedback = result.feedback
        errors = [node.q_error for node in feedback.nodes]
        assert None not in errors and feedback.missing_estimates == 0
        assert feedback.max_q_error == max(errors) == feedback.worst.q_error
        assert qerror_column(result) == [format_qerror(e) for e in errors]
        report = result.report()
        for node in feedback.nodes:
            assert node.describe() in report
        ops = [node.op for node in feedback.nodes]
        assert qerror_counts(registry) == {op: ops.count(op) for op in ops}
        maxes = registry.histogram("planner.qerror.max")
        assert maxes.count == 1
        assert maxes.max == min(feedback.max_q_error, QERROR_CAP)
        assert registry.counters("planner.qerror.missing_estimates") == []

    @pytest.mark.parametrize("name", ["dbonerow", "chart", "inventory"])
    def test_a_plan_without_estimates_records_only_the_count(self, name):
        engine, registry, storage, compiled = prepared(
            name, optimizer_level="off")
        result = engine.execute(storage, compiled)
        feedback = result.feedback
        assert feedback.max_q_error is None and feedback.worst is None
        assert feedback.missing_estimates == len(feedback) > 0
        # no node has an estimate to print a q= column against; the
        # table still lists every node, judged "-"
        assert qerror_column(result) == []
        report = result.report()
        for node in feedback.nodes:
            assert node.describe().endswith(" q=-")
            assert node.describe() in report
        assert registry.histograms("planner.qerror") == []
        assert registry.histograms("planner.qerror.max") == []
        assert registry.counter("planner.qerror.missing_estimates").value \
            == len(feedback)


class TestSharedTablePrivateCounters:
    def test_threads_get_independent_correct_profiles(self):
        engine, registry, storage, compiled = prepared("avts")
        expected = engine.execute(storage, compiled)
        expected_feedback = expected.feedback.as_dict()
        expected_explain = untimed(str(expected.explain()))
        registry.reset()
        threads, runs = 4, 25  # more threads than this box has cores
        results, errors = [], []

        def worker():
            try:
                for _ in range(runs):
                    results.append(engine.execute(storage, compiled))
            except Exception as exc:  # asserted empty below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert errors == []
        assert len(results) == threads * runs
        assert compiled.query.runtime.binds == 1
        tables = {id(result.plan_profile.table) for result in results}
        assert len(tables) == 1  # one observation table ...
        arrays = {id(result.plan_profile.rows_out) for result in results}
        assert len(arrays) == len(results)  # ... counters per execution
        for result in results:
            assert result.feedback.as_dict() == expected_feedback
            assert untimed(str(result.explain())) == expected_explain
        # a lost update in the shared instruments would show here
        assert operator_rows(registry) == {
            "Aggregate": len(results), "HashLeftJoin": len(results),
            "Scan": (ROWS + 1) * len(results)}


class TestNeverOpenedBranch:
    def make(self):
        db = Database()
        db.create_table("t", [("id", INT), ("name", TEXT)])
        db.create_table("u", [("id", INT)])
        for i in range(4):
            db.insert("t", (i, "row%d" % i))
            db.insert("u", (i,))
        query = Query(
            NestedLoopJoin(Filter(Scan("t"), gt(col("id", "t"), Const(99))),
                           Scan("u"), eq(col("id", "t"), col("id", "u"))),
            [("id", col("id", "t"))])
        stats = ExecutionStats()
        stats.profiler = PlanProfiler()
        rows, _ = query.execute(db, stats=stats)
        assert rows == []
        return query, stats.profiler

    def test_feedback_skips_it(self):
        query, profiler = self.make()
        feedback = plan_feedback(profiler.table, profiler.rows_out,
                                 profiler.opens)
        assert [(node.op, node.table) for node in feedback.nodes] == [
            ("NestedLoopJoin", None), ("Filter", None), ("Scan", "t")]
        assert profiler.get(query.plan.right) is None

    def test_explain_analyze_renders_it_without_actuals(self):
        query, profiler = self.make()
        lines = explain(query, profile=profiler).splitlines()
        (never,) = [line for line in lines if "(never executed)" in line]
        assert "table=u" in never
        assert sum("actual rows=" in line for line in lines) == 3


class TestRuntimeHandlesAreNotPickled:
    def test_loaded_artifact_rebuilds_its_table_on_first_execution(self):
        engine, _, storage, compiled = prepared("avts")
        before = engine.execute(storage, compiled).feedback.as_dict()
        loaded = pickle.loads(pickle.dumps(compiled))
        assert loaded.query.runtime.binds == 0
        assert loaded.query.runtime._binding is None
        result = engine.execute(storage, loaded)
        assert loaded.query.runtime.binds == 1
        binding = loaded.query.runtime._binding
        assert result.plan_profile.table is binding.observation
        assert result.feedback.as_dict() == before

    def test_loaded_query_rebuilds_its_table_too(self):
        engine, _, storage, compiled = prepared("avts")
        loaded = pickle.loads(pickle.dumps(compiled.query))
        stats = ExecutionStats()
        stats.profiler = PlanProfiler()
        assert stats.profiler.table is None
        loaded.execute(storage.db, stats=stats)
        table = stats.profiler.table
        assert len(table.rows) == len(table.nodes) == 4
        assert stats.profiler.get(loaded.plan).rows_out == 1


class TestLazyPlanFeedback:
    def test_nodes_materialise_on_first_read(self):
        engine, _, storage, compiled = prepared("avts")
        feedback = engine.execute(storage, compiled).feedback
        assert feedback._nodes is None
        assert len(feedback) == 4
        assert feedback.max_q_error is not None  # eager, exact
        assert feedback._nodes is None
        assert feedback.worst is feedback.nodes[feedback._worst]
        assert feedback.worst.q_error == feedback.max_q_error

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickles_as_its_materialised_form(self, read_first):
        engine, _, storage, compiled = prepared("avts")
        feedback = engine.execute(storage, compiled).feedback
        if read_first:
            assert feedback.nodes
        data = pickle.dumps(feedback)
        loaded = pickle.loads(data)
        assert loaded.as_dict() == feedback.as_dict()
        assert loaded.render() == feedback.render()
        assert len(loaded) == len(feedback)
        # plain data only: no plan node (or its module) rides along
        assert b"repro.rdb" not in data
