"""The Q-error record: the math, and the one post-run fold
(``observe_profile``) that pairs estimates with actuals and exports
them."""

import math

import pytest

from repro.obs import (
    MetricsRegistry,
    NodeFeedback,
    format_qerror,
    observe_profile,
    q_error,
)
from repro.obs.feedback import QERROR_CAP
from repro.rdb import Database, ExecutionStats, INT, PlanProfiler, TEXT
from repro.rdb.expressions import Const, col, gt
from repro.rdb.plan import Filter, Query, Scan


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


def profiled_run(db, level=None):
    """Optimize + execute one query, returning (query, profiler)."""
    query = db.optimize(filtered_query(), level=level)
    stats = ExecutionStats()
    stats.profiler = PlanProfiler()
    query.execute(db, stats=stats)
    return query, stats.profiler


class TestQError:
    def test_symmetric_ratio(self):
        assert q_error(2, 19) == pytest.approx(9.5)
        assert q_error(19, 2) == pytest.approx(9.5)
        assert q_error(5, 5) == 1.0

    def test_missing_estimate_is_none(self):
        # optimizer level "off": nothing to judge, not a zero-row miss
        assert q_error(None, 5) is None
        assert q_error(None, 0) is None

    def test_both_zero_is_perfect(self):
        assert q_error(0, 0) == 1.0
        assert q_error(0.0, 0) == 1.0

    def test_one_side_zero_is_unbounded(self):
        assert q_error(0, 3) == float("inf")
        assert q_error(3, 0) == float("inf")
        assert q_error(0.0001, 0) == float("inf")

    def test_fractional_estimates(self):
        assert q_error(0.2, 2) == pytest.approx(10.0)

    def test_format(self):
        assert format_qerror(None) == "-"
        assert format_qerror(float("inf")) == "inf"
        assert format_qerror(9.5) == "9.50"
        assert format_qerror(1.0) == "1.00"


class TestNodeFeedback:
    def test_describe(self):
        node = NodeFeedback(3, "IndexScan", "xd_emp", 0.2, 2)
        assert node.describe() == "#3 IndexScan(xd_emp) est=0.2 actual=2 q=10.00"

    def test_actual_is_per_open(self):
        node = NodeFeedback(2, "IndexScan", "u", 1.0, 20, opens=10)
        assert node.actual_rows == 2.0
        assert node.q_error == pytest.approx(2.0)
        assert node.describe() == \
            "#2 IndexScan(u) est=1 actual=2 loops=10 q=2.00"

    def test_missing_estimate_describe(self):
        node = NodeFeedback(1, "Scan", "t", None, 10)
        assert node.q_error is None
        assert node.describe() == "#1 Scan(t) est=- actual=10 q=-"


class TestObserveProfile:
    def test_pairs_estimates_with_actuals(self):
        db = make_db()
        _, profiler = profiled_run(db)
        feedback = observe_profile(profiler)
        by_op = {node.op: node for node in feedback.nodes}
        assert by_op["Scan"].actual_rows == 10
        assert by_op["Scan"].q_error == pytest.approx(1.0)
        assert by_op["Filter"].actual_rows == 5
        assert feedback.max_q_error == pytest.approx(1.5)
        assert feedback.worst.op == "Filter"
        assert feedback.missing_estimates == 0

    def test_optimizer_off_counts_missing(self):
        db = make_db()
        _, profiler = profiled_run(db, level="off")
        feedback = observe_profile(profiler)
        assert feedback.max_q_error is None
        assert feedback.worst is None
        assert feedback.missing_estimates == len(feedback.nodes) > 0

    def test_nothing_ran(self):
        feedback = observe_profile(PlanProfiler(), MetricsRegistry())
        assert len(feedback) == 0
        assert feedback.max_q_error is None
        assert feedback.missing_estimates == 0

    def test_verdict_round_trip(self):
        db = make_db()
        _, profiler = profiled_run(db)
        feedback = observe_profile(profiler)
        lean = type(feedback).from_verdict(feedback.verdict())
        assert feedback.verdict() == (0, pytest.approx(1.5))
        assert lean.verdict() == feedback.verdict()
        assert len(lean) == 0
        assert lean.render() == ["q-error max=1.50"]

    def test_render_mentions_worst_node(self):
        db = make_db()
        _, profiler = profiled_run(db)
        feedback = observe_profile(profiler)
        lines = feedback.render()
        assert lines[0].startswith("q-error max=1.50 at")
        assert any("Scan(t)" in line for line in lines)


class TestQErrorMetrics:
    def test_histograms_by_op_and_max(self):
        db = make_db()
        _, profiler = profiled_run(db)
        registry = MetricsRegistry()
        observe_profile(profiler, registry)
        assert registry.histogram("planner.qerror", op="Filter").count == 1
        assert registry.histogram("planner.qerror", op="Scan").count == 1
        maxes = registry.histogram("planner.qerror.max")
        assert maxes.count == 1
        assert maxes.max == pytest.approx(1.5)

    def test_infinite_qerror_is_capped(self):
        _FakePlan([_FakeNode("Scan", "t", estimated_rows=5.0)])
        registry = MetricsRegistry()
        feedback = observe_profile(_FakeProfiler({"Scan": 0}), registry)
        assert math.isinf(feedback.max_q_error)
        histogram = registry.histogram("planner.qerror.max")
        assert histogram.max == QERROR_CAP
        assert not math.isinf(histogram.sum)

    def test_missing_counter(self):
        db = make_db()
        _, profiler = profiled_run(db, level="off")
        registry = MetricsRegistry()
        feedback = observe_profile(profiler, registry)
        assert registry.histograms("planner.qerror") == []
        assert registry.counter("planner.qerror.missing_estimates").value \
            == feedback.missing_estimates


def _FakeNode(op, table, estimated_rows=None):
    """A real scan whose estimate is stamped by hand; ``op`` is the name
    ``_FakeProfiler`` keys its actuals by."""
    node = Scan(table)
    node.op = op
    node.estimated_rows = estimated_rows
    node.plan_node_id = None
    return node


class _FakePlan(Query):
    """A real query over one hand-stamped node, bound against
    ``make_db()`` so it has an observation table — which it leaves in
    ``latest`` for the ``_FakeProfiler`` built next."""

    latest = None

    def __init__(self, nodes):
        (node,) = nodes
        super().__init__(node, [("id", col("id", node.alias))])
        binding, _ = self.runtime.get(self, make_db(), None, False)
        _FakePlan.latest = binding.observation


class _FakeProfiler(PlanProfiler):
    """A real profiler over the latest ``_FakePlan``, its counters set
    from op name -> rows_out (None = unprofiled) instead of by a run."""

    def __init__(self, rows_by_op):
        super().__init__()
        self.attach(_FakePlan.latest)
        for slot, node in enumerate(self.table.nodes):
            rows = rows_by_op.get(node.op)
            if rows is not None:
                self.opens[slot] = 1
                self.rows_out[slot] = rows


class TestFakeNodeTypeName:
    def test_fake_op_is_class_name_surrogate(self):
        # the observation table names ops via type(node).__name__; the
        # fakes above are real scans whatever ``op`` they were given, so
        # tests that need distinct op names must use real plans.  This
        # guards the assumption.
        _FakePlan([_FakeNode("Filter", "t", estimated_rows=1.0)])
        feedback = observe_profile(_FakeProfiler({"Filter": 1}))
        assert feedback.nodes[0].op == "Scan"
