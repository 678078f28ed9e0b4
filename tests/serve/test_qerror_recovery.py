"""The Q-error record through the serve tier, and how a bad plan recovers.

Unanalyzed data makes the cost planner pick a plan from default
selectivities; the profiled execution records how far off the estimates
were — EXPLAIN ANALYZE's ``q=`` column, ``report()``, Prometheus
``planner_qerror*``, ``result.feedback``.  Nothing acts on the record
and nothing writes to the cached plan.  A manual ``db.analyze()`` is the
fix: the plan cache's ``stats:`` key component retires the plan chosen
under the old statistics, so the next request recompiles and its
Q-error collapses.
"""

import pytest

from repro.api import Engine, TransformOptions
from repro.obs import MetricsRegistry, Tracer
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import TransformService
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


# The mis-estimate needs the correlated probe shape: with decorrelation
# on, the grouped hash join is estimated well (max q 1.5 on this data).
KEEP_CORRELATED = TransformOptions(decorrelate=False)


def make_service(db, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return TransformService(db, **kwargs)


class TestRecoveryByAnalyze:
    def test_analyze_retires_the_plan_and_the_qerror_collapses(self):
        db, storage = make_storage()
        with make_service(db) as service:
            first = service.transform(storage, EXAMPLE1_STYLESHEET,
                                      options=KEEP_CORRELATED)
            assert first.cache_tier == "miss"
            # default selectivities mis-estimate the correlated probe
            assert first.feedback.max_q_error == pytest.approx(15.0)
            assert first.feedback.worst.op == "Filter"

            # the record acts on nothing: no ANALYZE, the plan is reused
            again = service.transform(storage, EXAMPLE1_STYLESHEET,
                                      options=KEEP_CORRELATED)
            assert db.stats_version() == 0
            assert again.cache_tier == "l1"
            assert again.feedback.max_q_error == pytest.approx(15.0)

            # fresh statistics: a new plan, the same bytes, good estimates
            db.analyze()
            second = service.transform(storage, EXAMPLE1_STYLESHEET,
                                       options=KEEP_CORRELATED)
            assert second.cache_tier == "miss"
            assert second.serialized_rows() == first.serialized_rows()
            assert second.feedback.max_q_error == pytest.approx(1.28,
                                                                abs=0.005)

            # and that plan is the one served from now on
            third = service.transform(storage, EXAMPLE1_STYLESHEET,
                                      options=KEEP_CORRELATED)
            assert third.cache_tier == "l1"
            assert third.feedback.max_q_error == second.feedback.max_q_error

    def test_record_is_visible_in_every_surface(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, metrics=metrics) as service:
            first = service.transform(storage, EXAMPLE1_STYLESHEET,
                                      options=KEEP_CORRELATED)

            # EXPLAIN ANALYZE: actuals with their q= column, then the table
            explain = first.explain().render()
            assert " q=1.00)" in explain
            assert "plan feedback (Q-error):" in explain
            assert "q-error max=15.00 at #2 Filter" in explain
            # the ledger holds compile decisions only
            assert {decision.stage for decision in first.ledger.decisions} \
                <= set(first.ledger.STAGES)

            # report(): the Q-error table
            report = first.report()
            assert "plan feedback (Q-error):" in report
            assert "#3 IndexScan(xd_emp) est=0.2 actual=2 q=10.00" in report

            # metrics: per-op histograms and the plan maximum
            histograms = metrics.snapshot()["histograms"]
            assert histograms["planner.qerror{op=Filter}"]["count"] == 1
            assert histograms["planner.qerror.max"]["count"] == 1
            assert not [key for key in histograms
                        if key.startswith("planner.feedback")]

    def test_explain_analyze_shows_qerror_column(self):
        db, storage = make_storage()
        engine = Engine(db)
        text = engine.explain(storage, EXAMPLE1_STYLESHEET, analyze=True)
        assert " q=" in text

    def test_record_as_a_dict(self):
        db, storage = make_storage()
        with make_service(db) as service:
            result = service.transform(storage, EXAMPLE1_STYLESHEET,
                                       options=KEEP_CORRELATED)
            as_dict = result.feedback.as_dict()
            assert set(as_dict) == {"max_q_error", "missing_estimates",
                                    "nodes"}
            assert as_dict["max_q_error"] == pytest.approx(15.0)
            assert [node["op"] for node in as_dict["nodes"]] == [
                "Scan", "Filter", "IndexScan"]


class TestWhenTheRecordIsTaken:
    def test_unprofiled_run_has_no_record(self):
        db, storage = make_storage()
        result = Engine(db, tracer=Tracer(enabled=False)).transform(
            storage, EXAMPLE1_STYLESHEET)
        assert result.feedback is None

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

    def test_every_profiled_run_is_judged(self):
        db, storage = make_storage()
        result = Engine(db).transform(storage, EXAMPLE1_STYLESHEET)
        assert result.feedback is not None
        assert result.feedback.max_q_error is not None
        assert db.stats_version() == 0
