"""End-to-end request tracing through the serve tier.

The acceptance shape of the observability plane: a cached-hit and a
cold-miss request each produce ONE connected trace — every span from
admission through plan execution (and the stream drain, on the
streaming path) shares the request's trace id — retrievable from the
flight recorder by trace id.
"""

import threading
import time

import pytest

from repro.api import Engine, TransformOptions
from repro.core import STRATEGY_SQL
from repro.errors import DeadlineExceededError
from repro.obs import FlightRecorder, InMemorySink, MetricsRegistry
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
from repro.serve import RequestTimeoutError, ServeError, TransformService
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
            # the run is keyed by the request's trace: the root the front
            # door opened and the span its plan executed under
            assert result.trace_id == result.trace.trace_id
            assert result.trace.find("plan.execute").trace_id \
                == result.trace_id

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
        with make_service(db, tracer=Tracer(enabled=False)) as service:
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


def serve(engine, backend, storage):
    """``engine.serve()`` on thread workers, or its process-backed twin
    (an engine with two workers) over ``storage`` named ``"doc"``."""
    if backend == "thread":
        return engine.serve(sources={"doc": storage})
    return Engine(engine.db, tracer=engine.tracer, metrics=engine.metrics,
                  recorder=engine.recorder, workers=2).serve(
        sources={"doc": storage})


class TestOneTracerPerEngine:
    """A served request reports through its Engine: the engine's tracer
    traces it, the engine's recorder records it, and the record's spans
    are the root tree(s) the request opened."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_tracer_off_records_no_spans(self, backend):
        db, storage = make_storage()
        engine = Engine(db, tracer=Tracer(enabled=False),
                        metrics=MetricsRegistry())
        with serve(engine, backend, storage) as service:
            result = service.transform("doc", EXAMPLE1_STYLESHEET)
            record = service.recorder.get(result.trace_id)
        assert result.trace_id is not None
        assert record.status == "ok"
        assert record.spans == []
        assert result.trace is None

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_the_engine_recorder_records_served_requests(self, backend):
        db, storage = make_storage()
        recorder = FlightRecorder()
        engine = Engine(db, metrics=MetricsRegistry(), recorder=recorder)
        with serve(engine, backend, storage) as service:
            assert service.recorder is recorder
            result = service.transform("doc", EXAMPLE1_STYLESHEET)
        assert [record.trace_id for record in recorder.records()] \
            == [result.trace_id]

    def test_a_sink_on_the_tracer_sees_the_whole_tree(self):
        db, storage = make_storage()
        sink = InMemorySink()
        recorder = FlightRecorder()
        engine = Engine(db, tracer=Tracer(sinks=[sink]),
                        metrics=MetricsRegistry(), recorder=recorder)
        with serve(engine, "thread", storage) as service:
            result = service.transform("doc", EXAMPLE1_STYLESHEET)
        assert sink.roots_for(result.trace_id) == [result.trace]
        seen = {span.span_id for span in sink.spans
                if span.trace_id == result.trace_id}
        assert seen == {span.span_id for span in result.trace.iter_spans()}
        assert seen == {span["span_id"] for span
                        in recorder.get(result.trace_id).spans}
        assert len(seen) > 3

    def test_process_workers_keep_their_spans_out_of_the_sink(self):
        """Sinks do not cross the pipe: the parent's sink sees the
        parent-side root, the record holds the worker's tree too."""
        db, storage = make_storage()
        sink = InMemorySink()
        recorder = FlightRecorder()
        engine = Engine(db, tracer=Tracer(sinks=[sink]),
                        metrics=MetricsRegistry(), recorder=recorder)
        with serve(engine, "process", storage) as service:
            result = service.transform("doc", EXAMPLE1_STYLESHEET)
        assert [span.name for span in sink.spans
                if span.trace_id == result.trace_id] == ["cluster.request"]
        names = {span["name"] for span in recorder.get(result.trace_id).spans}
        assert {"cluster.request", "cluster.worker", "serve.execute",
                "plan.execute"} <= names

    def test_serving_builds_no_tracer(self, monkeypatch):
        db, storage = make_storage()
        with serve(Engine(db, metrics=MetricsRegistry()), "thread",
                   storage) as service:
            service.transform("doc", EXAMPLE1_STYLESHEET)
            built = []
            init = Tracer.__init__

            def counting(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)

            monkeypatch.setattr(Tracer, "__init__", counting)
            for _ in range(20):
                service.transform("doc", EXAMPLE1_STYLESHEET)
                service.transform_stream("doc", EXAMPLE1_STYLESHEET).text()
        assert built == []


class TestEveryStatusKeepsItsSpans:
    """Whatever ends a served request, its flight record carries the
    spans of the root tree(s) it opened."""

    @pytest.fixture
    def served(self):
        db, storage = make_storage()
        recorder = FlightRecorder()
        engine = Engine(db, tracer=Tracer(), metrics=MetricsRegistry(),
                        recorder=recorder)
        with serve(engine, "thread", storage) as service:
            service.transform("doc", EXAMPLE1_STYLESHEET)  # plan cached
            recorder.reset()
            yield service, storage, recorder

    @staticmethod
    def only_record(recorder, status):
        record, = recorder.records()
        assert record.status == status
        spans = record.spans
        assert {span["trace_id"] for span in spans} == {record.trace_id}
        return {span["name"]: span["status"] for span in spans}

    def test_ok(self, served):
        service, _, recorder = served
        service.transform("doc", EXAMPLE1_STYLESHEET)
        spans = self.only_record(recorder, "ok")
        assert spans == {"serve.request": "ok", "serve.execute": "ok",
                         "plan.execute": "ok"}

    def test_error(self, served):
        service, _, recorder = served
        with pytest.raises(ServeError, match="no source"):
            service.transform("missing", EXAMPLE1_STYLESHEET)
        assert self.only_record(recorder, "error") \
            == {"serve.request": "error"}

    def test_deadline_expiring_mid_run(self, served):
        service, storage, recorder = served
        fingerprint = storage.fingerprint

        def stalled():  # the plan lookup outlives the deadline
            time.sleep(0.4)
            return fingerprint()

        storage.fingerprint = stalled
        with pytest.raises(RequestTimeoutError, match="during execution"):
            service.transform("doc", EXAMPLE1_STYLESHEET,
                              options=TransformOptions(deadline=0.2))
        spans = self.only_record(recorder, "timeout")
        assert spans["serve.request"] == "error"
        assert spans["plan.execute"] == "error"

    def test_stream_drained_to_the_end(self, served):
        service, _, recorder = served
        service.transform_stream("doc", EXAMPLE1_STYLESHEET).text()
        spans = self.only_record(recorder, "ok")
        assert spans == {"serve.stream.compile": "ok",
                         "serve.stream.drain": "ok", "plan.execute": "ok"}

    def test_stream_failing_mid_drain(self, served):
        service, _, recorder = served
        stream = service.transform_stream(
            "doc", EXAMPLE1_STYLESHEET, options=TransformOptions(
                deadline=0.3, batch_size=1, chunk_chars=1))
        assert next(stream.chunks)
        time.sleep(0.4)
        with pytest.raises(DeadlineExceededError):
            list(stream.chunks)
        spans = self.only_record(recorder, "error")
        assert spans == {"serve.stream.compile": "ok",
                         "serve.stream.drain": "error",
                         "plan.execute": "error"}
