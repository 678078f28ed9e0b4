"""End-to-end request tracing through the serve tier.

The acceptance shape of the observability plane: a cached-hit and a
cold-miss request each produce ONE connected trace — every span from
admission through plan execution (and the stream drain, on the
streaming path) shares the request's trace id — retrievable from the
flight recorder by trace id.
"""

import threading

from repro.core import STRATEGY_SQL
from repro.obs import MetricsRegistry
from repro.obs.trace import (
    TraceContext,
    Tracer,
    new_span_id,
    new_trace_id,
    use_trace_context,
)
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import TransformService
from repro.xmlmodel import parse_document

from ..core.paper_example import (
    DEPT_DTD,
    DEPT_DOC_1,
    DEPT_DOC_2,
    EXAMPLE1_STYLESHEET,
    EXPECTED_ROW1,
    EXPECTED_ROW2,
)


def make_storage():
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    storage.load(parse_document(DEPT_DOC_2))
    return db, storage


def make_service(db, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return TransformService(db, **kwargs)


def one_trace(result):
    """Assert the result's span tree is internally connected and return
    its trace id."""
    trace_ids = {span["trace_id"]
                 for span in (s.to_dict() for s in result.trace.iter_spans())}
    assert len(trace_ids) == 1
    return trace_ids.pop()


class TestConnectedTraces:
    def test_cold_miss_yields_one_connected_trace(self):
        db, storage = make_storage()
        with make_service(db) as service:
            result = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert not result.cache_hit
            assert result.trace_id is not None
            assert one_trace(result) == result.trace_id
            # the compile ran under this trace: compile spans present
            assert result.trace.find("compile.stylesheet") is not None
            assert result.trace.find("serve.execute") is not None
            # the plan profiler captured the same trace id
            assert result.plan_profile.trace_id == result.trace_id

    def test_cached_hit_yields_its_own_connected_trace(self):
        db, storage = make_storage()
        with make_service(db) as service:
            cold = service.transform(storage, EXAMPLE1_STYLESHEET)
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert warm.cache_hit
            assert warm.trace_id is not None
            assert warm.trace_id != cold.trace_id
            assert one_trace(warm) == warm.trace_id
            # a hit trace contains no compile spans at all
            assert warm.trace.find("compile.stylesheet") is None
            assert warm.trace.find("serve.execute") is not None

    def test_future_carries_trace_id_at_admission(self):
        db, storage = make_storage()
        with make_service(db) as service:
            future = service.submit(storage, EXAMPLE1_STYLESHEET)
            assert future.trace_id is not None
            result = future.result(timeout=10)
            assert result.trace_id == future.trace_id

    def test_transform_result_trace_id_matches(self):
        db, storage = make_storage()
        with make_service(db) as service:
            future = service.submit(storage, EXAMPLE1_STYLESHEET)
            result = future.result(timeout=10)
            # one record: the view's id is the run's, minted at admission
            assert result.trace_id == result.run.trace_id == future.trace_id


class TestTraceparentIngress:
    def test_ambient_caller_context_adopted(self):
        db, storage = make_storage()
        tracer = Tracer()
        with make_service(db) as service:
            with tracer.span("caller") as caller:
                result = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert result.trace_id == caller.trace_id


class TestStreamTracing:
    def test_stream_compile_and_drain_share_one_trace(self):
        db, storage = make_storage()
        with make_service(db) as service:
            stream = service.transform_stream(storage, EXAMPLE1_STYLESHEET)
            assert stream.trace_id is not None
            text = stream.text()
            assert text == EXPECTED_ROW1 + EXPECTED_ROW2
            record = service.recorder.get(stream.trace_id)
            assert record is not None
            assert record.name == "stream"
            assert record.status == "ok"
            assert record.bytes_out == len(text)
            span_names = {span["name"] for span in record.spans}
            assert "serve.stream.compile" in span_names
            assert "serve.stream.drain" in span_names
            assert {span["trace_id"] for span in record.spans} \
                == {stream.trace_id}

    def test_stream_joins_upstream_trace(self):
        db, storage = make_storage()
        upstream = TraceContext(new_trace_id(), new_span_id())
        with make_service(db) as service:
            with use_trace_context(upstream):
                stream = service.transform_stream(storage,
                                                  EXAMPLE1_STYLESHEET)
            assert stream.trace_id == upstream.trace_id
            stream.text()
            assert service.recorder.get(upstream.trace_id) is not None


class TestFlightRecorderIntegration:
    def test_hit_and_miss_both_recorded(self):
        db, storage = make_storage()
        with make_service(db) as service:
            cold = service.transform(storage, EXAMPLE1_STYLESHEET)
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
            cold_rec = service.recorder.get(cold.trace_id)
            warm_rec = service.recorder.get(warm.trace_id)
            assert cold_rec.cache_hit is False
            assert warm_rec.cache_hit is True
            for rec in (cold_rec, warm_rec):
                assert rec.status == "ok"
                assert rec.strategy == STRATEGY_SQL
                assert rec.rows == 2
                assert rec.queue_wait_seconds >= 0.0
                assert rec.total_seconds > 0.0
                assert rec.stages  # per-stage timing breakdown present
                assert {s["trace_id"] for s in rec.spans} == {rec.trace_id}

    def test_slow_request_retains_explain_and_ledger(self):
        db, storage = make_storage()
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(slow_threshold_seconds=0.0)
        with make_service(db, recorder=recorder) as service:
            result = service.transform(storage, EXAMPLE1_STYLESHEET)
            record = recorder.get(result.trace_id)
            assert record.detail_reason == "slow"
            assert "actual rows=" in record.detail  # EXPLAIN ANALYZE
            assert "rewrite decisions:" in record.detail  # EXPLAIN REWRITE

    def test_recorder_disabled(self):
        db, storage = make_storage()
        with make_service(db, recorder=False) as service:
            assert service.recorder is None
            result = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert result.trace_id is not None  # tracing still on

    def test_tracing_off_still_records_compact(self):
        db, storage = make_storage()
        with make_service(db, trace_requests=False) as service:
            result = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert result.trace is None
            assert result.trace_id is not None
            record = service.recorder.get(result.trace_id)
            assert record.status == "ok"
            assert record.spans == []


class TestConcurrentIsolation:
    def test_n_threads_disjoint_traces_no_span_leakage(self):
        """8 concurrent callers: 8 distinct trace ids, each request's
        span tree internally consistent, each retrievable from the
        recorder with only its own spans."""
        db, storage = make_storage()
        results = {}
        errors = []
        barrier = threading.Barrier(8)

        with make_service(db, workers=4, queue_size=64) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)  # warm cache

            def caller(index):
                barrier.wait()
                try:
                    results[index] = service.transform(
                        storage, EXAMPLE1_STYLESHEET
                    )
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not errors
            assert len(results) == 8
            trace_ids = {result.trace_id for result in results.values()}
            assert len(trace_ids) == 8, "trace ids collided across requests"
            for result in results.values():
                assert one_trace(result) == result.trace_id
                record = service.recorder.get(result.trace_id)
                assert record is not None
                assert {s["trace_id"] for s in record.spans} \
                    == {result.trace_id}


class TestQueueGauges:
    def test_gauges_track_capacity_and_saturation(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, metrics=metrics, queue_size=32) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            assert metrics.gauge("serve.queue.capacity").value == 32
            assert metrics.gauge("serve.queue.depth").value == 0
            assert metrics.gauge("serve.queue.saturation").value == 0.0

    def test_health_reports_queue_under_concurrent_clients(self):
        db, storage = make_storage()
        with make_service(db, workers=2) as service:
            def client():
                for _ in range(3):
                    service.transform(storage, EXAMPLE1_STYLESHEET)

            threads = [threading.Thread(target=client) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
            health = service.health()
            assert health["queue"] == {"depth": 0, "capacity": 64,
                                       "saturation": 0.0}
            assert health["rejected"] == 0
            assert health["recorder"]["size"] == 6


class TestRecorderIntegration:
    def test_recorder_retrieves_hit_and_miss(self):
        """Both a cold-miss and a cached-hit request are retrievable
        from the flight recorder by trace id, with one connected span
        tree each."""
        db, storage = make_storage()
        with make_service(db) as service:
            cold = service.transform(storage, EXAMPLE1_STYLESHEET)
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
            for result, hit in ((cold, False), (warm, True)):
                record = service.recorder.get(result.trace_id).as_dict(
                    include_spans=True)
                assert record["trace_id"] == result.trace_id
                assert record["cache_hit"] is hit
                assert record["status"] == "ok"
                assert {s["trace_id"] for s in record["spans"]} \
                    == {result.trace_id}
                names = {s["name"] for s in record["spans"]}
                assert "serve.request" in names
                assert ("compile.stylesheet" in names) is (not hit)

    def test_health_and_metrics_reflect_service(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, metrics=metrics) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            health = service.health()
            assert health["queue"]["capacity"] == 64
            assert health["recorder"]["size"] == 1
            snapshot = metrics.snapshot()
            assert snapshot["gauges"]["serve.queue.capacity"] == 64
            assert any(key.startswith("serve.completed")
                       for key in snapshot["counters"])
