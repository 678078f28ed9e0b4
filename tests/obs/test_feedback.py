"""The Q-error feedback loop: math, plan walking, policy, controller."""

import math

import pytest

from repro.obs import (
    DecisionLedger,
    FeedbackController,
    FeedbackPolicy,
    MetricsRegistry,
    NodeFeedback,
    compute_plan_feedback,
    format_qerror,
    q_error,
    record_feedback_metrics,
)
from repro.obs.decisions import AUTO_ANALYZE, FEEDBACK_STAGE, PLAN_QERROR
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
    def test_describe_and_tables_default(self):
        node = NodeFeedback(3, "IndexScan", "xd_emp", 0.2, 2)
        assert node.describe() == "#3 IndexScan(xd_emp) est=0.2 actual=2 q=10.00"
        assert node.tables == ("xd_emp",)

    def test_explicit_subtree_tables(self):
        node = NodeFeedback(2, "Filter", None, 0.5, 5,
                            tables=("a", "b"))
        assert node.table is None
        assert node.tables == ("a", "b")
        assert node.as_dict()["tables"] == ["a", "b"]

    def test_missing_estimate_describe(self):
        node = NodeFeedback(1, "Scan", "t", None, 10)
        assert node.q_error is None
        assert node.describe() == "#1 Scan(t) est=- actual=10 q=-"


class TestComputePlanFeedback:
    def test_pairs_estimates_with_actuals(self):
        db = make_db()
        query, profiler = profiled_run(db)
        feedback = compute_plan_feedback(query, profiler)
        by_op = {node.op: node for node in feedback.nodes}
        assert by_op["Scan"].actual_rows == 10
        assert by_op["Scan"].q_error == pytest.approx(1.0)
        assert by_op["Filter"].actual_rows == 5
        assert feedback.max_q_error == pytest.approx(1.5)
        assert feedback.worst.op == "Filter"
        assert feedback.missing_estimates == 0

    def test_filter_implicates_subtree_tables(self):
        db = make_db()
        query, profiler = profiled_run(db)
        feedback = compute_plan_feedback(query, profiler)
        flt = next(n for n in feedback.nodes if n.op == "Filter")
        assert "t" in flt.tables

    def test_optimizer_off_counts_missing(self):
        db = make_db()
        query, profiler = profiled_run(db, level="off")
        feedback = compute_plan_feedback(query, profiler)
        assert feedback.max_q_error is None
        assert feedback.worst is None
        assert feedback.missing_estimates == len(feedback.nodes) > 0
        # missing estimates never trip a policy
        assert not feedback.exceeds(FeedbackPolicy(node_threshold=1.0001,
                                                   plan_threshold=1.0001))

    def test_offending_and_exceeds(self):
        db = make_db()
        query, profiler = profiled_run(db)
        feedback = compute_plan_feedback(query, profiler)
        assert feedback.offending(1.4)  # Filter q=1.5
        assert not feedback.offending(2.0)
        assert feedback.exceeds(FeedbackPolicy(node_threshold=1.4,
                                               plan_threshold=99.0))
        assert not feedback.exceeds(FeedbackPolicy(node_threshold=2.0,
                                                   plan_threshold=2.0))

    def test_render_mentions_worst_node(self):
        db = make_db()
        query, profiler = profiled_run(db)
        feedback = compute_plan_feedback(query, profiler)
        lines = feedback.render()
        assert lines[0].startswith("q-error max=1.50 at")
        assert any("Scan(t)" in line for line in lines)


class TestRecordFeedbackMetrics:
    def test_histograms_by_op_and_max(self):
        db = make_db()
        query, profiler = profiled_run(db)
        feedback = compute_plan_feedback(query, profiler)
        registry = MetricsRegistry()
        record_feedback_metrics(feedback, registry)
        assert registry.histogram("planner.qerror", op="Filter").count == 1
        assert registry.histogram("planner.qerror", op="Scan").count == 1
        maxes = registry.histogram("planner.qerror.max")
        assert maxes.count == 1
        assert maxes.max == pytest.approx(1.5)

    def test_infinite_qerror_is_capped(self):
        feedback = compute_plan_feedback(
            _FakePlan([_FakeNode("Scan", "t", estimated_rows=5.0)]),
            _FakeProfiler({"Scan": 0}),
        )
        assert math.isinf(feedback.max_q_error)
        registry = MetricsRegistry()
        record_feedback_metrics(feedback, registry)
        histogram = registry.histogram("planner.qerror.max")
        assert histogram.max == QERROR_CAP
        assert not math.isinf(histogram.sum)

    def test_missing_counter(self):
        db = make_db()
        query, profiler = profiled_run(db, level="off")
        feedback = compute_plan_feedback(query, profiler)
        registry = MetricsRegistry()
        record_feedback_metrics(feedback, registry)
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
        feedback = compute_plan_feedback(
            _FakePlan([_FakeNode("Filter", "t", estimated_rows=1.0)]),
            _FakeProfiler({"Filter": 1}),
        )
        assert feedback.nodes[0].op == "Scan"


class TestFeedbackPolicy:
    def test_defaults(self):
        policy = FeedbackPolicy()
        assert policy.node_threshold == 4.0
        assert policy.plan_threshold == 4.0
        assert policy.consecutive_misses == 2
        assert policy.auto_analyze and policy.recost

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedbackPolicy(node_threshold=0.5)
        with pytest.raises(ValueError):
            FeedbackPolicy(plan_threshold=0.0)
        with pytest.raises(ValueError):
            FeedbackPolicy(consecutive_misses=0)


class TestFeedbackController:
    def test_database_ships_observe_only_controller(self):
        db = make_db()
        assert isinstance(db.feedback, FeedbackController)
        assert db.feedback.policy is None

    def test_observe_only_records_metrics_but_never_acts(self):
        db = make_db()
        registry = MetricsRegistry()
        ledger = DecisionLedger()
        for _ in range(3):
            query, profiler = profiled_run(db)
            feedback = db.feedback.observe(query, profiler,
                                           metrics=registry, ledger=ledger)
        assert feedback.max_q_error == pytest.approx(1.5)
        assert not feedback.triggered
        assert feedback.actions == []
        assert not ledger.decisions
        assert registry.histogram("planner.qerror.max").count == 3
        assert db.stats.table_stats("t") is None  # no auto-ANALYZE

    def test_consecutive_misses_gate_the_trigger(self):
        db = make_db()
        db.feedback.enable(FeedbackPolicy(node_threshold=1.4,
                                          plan_threshold=1.4,
                                          consecutive_misses=2))
        query, profiler = profiled_run(db)
        first = db.feedback.observe(query, profiler,
                                    metrics=MetricsRegistry())
        assert not first.triggered
        query, profiler = profiled_run(db)
        second = db.feedback.observe(query, profiler,
                                     metrics=MetricsRegistry())
        assert second.triggered
        assert any("auto-analyze" in a for a in second.actions)
        assert db.stats.table_stats("t") is not None

    def test_good_plan_resets_miss_count(self):
        db = make_db()
        controller = db.feedback
        controller.enable(FeedbackPolicy(node_threshold=1.4,
                                         plan_threshold=1.4,
                                         consecutive_misses=2,
                                         auto_analyze=False, recost=False))
        query, profiler = profiled_run(db)
        controller.observe(query, profiler, metrics=MetricsRegistry())
        # an accurate run in between clears the streak
        db.analyze()
        good_query, good_profiler = profiled_run(db)
        # same fingerprint (same SQL shape) so it targets the same streak
        good = controller.observe(good_query, good_profiler,
                                  metrics=MetricsRegistry())
        assert not good.triggered
        db.stats.invalidate("t")
        query, profiler = profiled_run(db)
        third = controller.observe(query, profiler,
                                   metrics=MetricsRegistry())
        assert not third.triggered  # streak restarted at 1, needs 2

    def test_auto_analyze_skips_tables_with_fresh_stats(self):
        db = make_db()
        db.analyze("t")
        version = db.stats_version()
        db.feedback.enable(FeedbackPolicy(node_threshold=1.05,
                                          plan_threshold=1.05,
                                          consecutive_misses=1))
        events = []
        db.feedback.add_listener(events.append)
        query, profiler = profiled_run(db)
        feedback = db.feedback.observe(query, profiler,
                                       metrics=MetricsRegistry())
        # analyzed q=1.11 still exceeds 1.05, but stats are fresh: the
        # corrective action is the re-cost alone, never ANALYZE churn
        assert feedback.triggered
        assert db.stats_version() == version
        assert not any("auto-analyze" in a for a in feedback.actions)
        assert any("recost" in a for a in feedback.actions)
        assert events and events[0].analyzed == []

    def test_ledger_decisions_deduped_across_repeat_triggers(self):
        db = make_db()
        db.feedback.enable(FeedbackPolicy(node_threshold=1.05,
                                          plan_threshold=1.05,
                                          consecutive_misses=1))
        ledger = DecisionLedger()
        # a cached compiled plan is one plan object executed many times:
        # the ledger travels with it, so repeat triggers must not append
        query, profiler = profiled_run(db)
        for _ in range(3):
            db.feedback.observe(query, profiler, ledger=ledger,
                                metrics=MetricsRegistry())
        qerror_decisions = [d for d in ledger.decisions
                            if d.kind == PLAN_QERROR]
        assert len(qerror_decisions) == 1
        assert qerror_decisions[0].stage == FEEDBACK_STAGE
        analyze_decisions = [d for d in ledger.decisions
                             if d.kind == AUTO_ANALYZE]
        assert len(analyze_decisions) == 1
        assert analyze_decisions[0].subject == "t"

    def test_listener_receives_event_and_can_unsubscribe(self):
        db = make_db()
        db.feedback.enable(FeedbackPolicy(node_threshold=1.4,
                                          plan_threshold=1.4,
                                          consecutive_misses=1))
        events = []
        db.feedback.add_listener(events.append)
        query, profiler = profiled_run(db)
        db.feedback.observe(query, profiler, metrics=MetricsRegistry())
        assert len(events) == 1
        event = events[0]
        assert event.feedback.triggered
        assert event.analyzed == ["t"]
        assert event.stats_version == db.stats_version()
        db.feedback.remove_listener(events.append)
        db.stats.invalidate("t")
        query, profiler = profiled_run(db)
        db.feedback.observe(query, profiler, metrics=MetricsRegistry())
        assert len(events) == 1  # unsubscribed

    def test_disable_returns_to_observe_only(self):
        db = make_db()
        db.feedback.enable()
        assert db.feedback.policy is not None
        db.feedback.disable()
        query, profiler = profiled_run(db)
        feedback = db.feedback.observe(query, profiler,
                                       metrics=MetricsRegistry())
        assert not feedback.triggered
