"""End-to-end Q-error feedback loop through the serve tier.

The acceptance scenario for adaptive feedback: unanalyzed data makes
the cost planner pick a plan from default selectivities; the profiled
execution shows the estimates were badly off (Q-error above the policy
threshold); the controller auto-ANALYZEs the offending tables and the
serve tier evicts the distrusted compiled plan (``reason=recost``); the
next request recompiles against real statistics and the Q-error
collapses — all of it visible in EXPLAIN REWRITE, EXPLAIN ANALYZE,
Prometheus text, and ``TransformResult.report()``.
"""

from repro.api import Engine, TransformOptions
from repro.obs import FeedbackPolicy, MetricsRegistry, prometheus_text
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import TransformService
from repro.serve.cache import EVICT_RECOST
from repro.serve.loadgen import WorkItem, run_load
from repro.xmlmodel import parse_document

from ..core.paper_example import DEPT_DTD, DEPT_DOC_1, EXAMPLE1_STYLESHEET


def make_storage():
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    return db, storage


POLICY = dict(node_threshold=4.0, plan_threshold=4.0, consecutive_misses=1)

# The mis-estimation scenario needs the correlated probe shape: with
# decorrelation on, the grouped hash join is estimated well enough that
# the policy never triggers (which is the optimizer working as intended,
# but not what this loop test exercises).
KEEP_CORRELATED = TransformOptions(decorrelate=False)


def make_service(db, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("feedback_policy", FeedbackPolicy(**POLICY))
    return TransformService(db, **kwargs)


class TestServeFeedbackLoop:
    def test_bad_estimates_trigger_analyze_and_recost(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, metrics=metrics) as service:
            first = service.transform(storage, EXAMPLE1_STYLESHEET,
                                      options=KEEP_CORRELATED)
            feedback = first.feedback
            assert feedback is not None
            # default selectivities mis-estimate the correlated probe
            assert feedback.max_q_error >= POLICY["plan_threshold"]
            assert feedback.triggered
            assert any("auto-analyze" in a for a in feedback.actions)
            assert any("recost" in a for a in feedback.actions)
            assert db.stats_version() > 0

            # the distrusted compiled plan was evicted, not re-served
            assert service.cache.stats().evictions.get(EVICT_RECOST) == 1
            second = service.transform(storage, EXAMPLE1_STYLESHEET,
                                       options=KEEP_CORRELATED)
            assert not second.cache_hit
            assert second.serialized_rows() == first.serialized_rows()

            # fresh statistics: estimates now track actuals
            recovered = second.feedback
            assert recovered.max_q_error < feedback.max_q_error
            assert recovered.max_q_error < POLICY["plan_threshold"]
            assert not recovered.triggered

            # the recovered plan is trusted and stays cached
            third = service.transform(storage, EXAMPLE1_STYLESHEET,
                                      options=KEEP_CORRELATED)
            assert third.cache_hit

    def test_loop_is_visible_in_every_surface(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, metrics=metrics) as service:
            first = service.transform(storage, EXAMPLE1_STYLESHEET,
                                      options=KEEP_CORRELATED)

            # EXPLAIN REWRITE: the plan-feedback stage tells the story
            explain = first.explain().render()
            assert "plan-feedback" in explain
            assert "[plan-qerror]" in explain
            assert "distrust plan" in explain
            assert "[auto-analyze]" in explain
            assert "[plan-recost]" in explain

            # report(): the Q-error table and the actions taken
            report = first.report()
            assert "plan feedback (Q-error):" in report
            assert "q-error max=" in report
            assert "action: recost: notified serve tier" in report

            # Prometheus: per-op histograms and the trigger counter
            text = prometheus_text(metrics)
            assert "planner_qerror" in text
            assert "planner_qerror_max" in text
            assert "planner_feedback_triggered_total 1" in text
            assert 'planner_feedback_auto_analyze_total{table="' in text

    def test_explain_analyze_shows_qerror_column(self):
        db, storage = make_storage()
        engine = Engine(db)
        text = engine.explain(storage, EXAMPLE1_STYLESHEET, analyze=True)
        assert " q=" in text

    def test_feedback_visible_in_request_metadata_dict(self):
        db, storage = make_storage()
        with make_service(db) as service:
            result = service.transform(storage, EXAMPLE1_STYLESHEET,
                                       options=KEEP_CORRELATED)
            as_dict = result.feedback.as_dict()
            assert as_dict["triggered"] is True
            assert as_dict["nodes"]
            assert any(node["q_error"] is not None
                       for node in as_dict["nodes"])


class TestFeedbackOption:
    def test_feedback_false_skips_observation(self):
        db, storage = make_storage()
        db.feedback.enable(FeedbackPolicy(**POLICY))
        engine = Engine(db)
        result = engine.transform(
            storage, EXAMPLE1_STYLESHEET,
            options=TransformOptions(feedback=False),
        )
        assert result.feedback is None
        assert db.stats_version() == 0  # nothing analyzed

    def test_streaming_execution_is_judged_too(self):
        db, storage = make_storage()
        engine = Engine(db, metrics=MetricsRegistry())
        # materialized run first, for the reference Q-error
        reference = engine.transform(storage, EXAMPLE1_STYLESHEET)
        stream = engine.transform_stream(storage, EXAMPLE1_STYLESHEET)
        assert stream.feedback is None  # not judged until fully drained
        "".join(stream)
        assert stream.feedback is not None
        assert stream.feedback.max_q_error == \
            reference.feedback.max_q_error

    def test_observe_only_without_policy(self):
        db, storage = make_storage()
        engine = Engine(db)
        result = engine.transform(storage, EXAMPLE1_STYLESHEET)
        feedback = result.feedback
        assert feedback is not None
        assert feedback.max_q_error is not None
        assert not feedback.triggered  # no policy installed on db
        assert feedback.actions == []
        assert db.stats_version() == 0


class TestServiceLatencyHistogram:
    def test_latency_recorded_by_cache_outcome(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        # feedback off: hit/miss pattern must be the cache's own
        with make_service(db, metrics=metrics,
                          feedback_policy=None) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            service.transform(storage, EXAMPLE1_STYLESHEET)
            miss = metrics.histogram("serve.request.latency", cache="miss")
            hit = metrics.histogram("serve.request.latency", cache="hit")
            assert miss.count == 1
            assert hit.count == 1
            assert miss.sum > 0.0

    def test_loadgen_reports_service_latency(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, metrics=metrics,
                          feedback_policy=None) as service:
            report = run_load(
                service,
                [WorkItem(storage, EXAMPLE1_STYLESHEET, name="dept")],
                clients=2, requests_per_client=3,
            )
        assert report.requests == 6
        assert report.service_latency
        assert any("cache=hit" in key for key in report.service_latency)
        total = sum(summary["count"]
                    for summary in report.service_latency.values())
        assert total == 6
        assert "service_latency" in report.as_dict()
