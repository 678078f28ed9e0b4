"""The request lifecycle, asserted once over both worker backends.

Admission, deadlines, cancellation, close, health, trace adoption and
flight recording all live in the one :class:`TransformService` front
door, so every test here runs against thread workers *and* process
workers and must see the same behaviour.  Requests name their source
(``"doc"`` / ``"gate"``) — the call shape both backends accept.
"""

import multiprocessing
import sys
import threading

import pytest

from repro.api import TransformOptions
from repro.core import STRATEGY_SQL
from repro.obs import MetricsRegistry
from repro.obs.trace import TraceContext, new_span_id, new_trace_id
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import (
    RequestCancelledError,
    RequestTimeoutError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    TransformService,
)
from repro.xmlmodel import parse_document

from ..core.paper_example import (
    DEPT_DTD,
    DEPT_DOC_1,
    DEPT_DOC_2,
    EXAMPLE1_STYLESHEET,
    EXPECTED_ROW1,
    EXPECTED_ROW2,
)

BACKENDS = ("thread", "process")
#: the root span a request's trace starts with, per backend
ROOT_SPAN = {"thread": "serve.request", "process": "cluster.request"}


class Gate:
    """A 'source' whose fingerprint stalls the worker until released.
    The events are ``multiprocessing`` ones so the stall also works in a
    forked worker process."""

    def __init__(self):
        self.running = multiprocessing.Event()
        self.release = multiprocessing.Event()

    def fingerprint(self):
        self.running.set()
        self.release.wait(10.0)
        return "gate"

    def document_ids(self):
        return []


class Served:
    """A service over the paper's dept documents plus a gate source."""

    def __init__(self, backend, tmp_path, **kwargs):
        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(DEPT_DTD), "xd",
            column_types={"sal": INT, "empno": INT},
        )
        storage.load(parse_document(DEPT_DOC_1))
        storage.load(parse_document(DEPT_DOC_2))
        self.gate = Gate()
        self.metrics = kwargs.setdefault("metrics", MetricsRegistry())
        self.service = TransformService(
            db, backend=backend,
            sources={"doc": storage, "gate": self.gate},
            artifact_dir=str(tmp_path / "plans"), **kwargs
        )

    def stall(self):
        """Occupy the (single) worker until ``gate.release`` is set."""
        future = self.service.submit("gate", EXAMPLE1_STYLESHEET)
        assert self.gate.running.wait(10.0)
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.gate.release.set()
        self.service.close()


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestServing:
    def test_transform_and_repeat_hit(self, backend, tmp_path):
        with Served(backend, tmp_path) as served:
            cold = served.service.transform("doc", EXAMPLE1_STYLESHEET)
            warm = served.service.transform("doc", EXAMPLE1_STYLESHEET)
        assert cold.strategy == STRATEGY_SQL
        assert cold.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]
        assert cold.cache_tier == "miss" and not cold.cache_hit
        assert warm.cache_hit
        assert warm.serialized_rows() == cold.serialized_rows()
        assert warm.queue_wait_seconds >= 0
        assert warm.total_seconds >= warm.execute_seconds > 0
        assert warm.worker in (0, 1, 2, 3)

    def test_transform_on_bypasses_the_queue(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=2) as served:
            result = served.service.transform_on(1, "doc",
                                                 EXAMPLE1_STYLESHEET)
            assert result.worker == 1
            assert result.queue_wait_seconds == 0.0
            assert result.serialized_rows() == [EXPECTED_ROW1,
                                                EXPECTED_ROW2]


class TestAdmission:
    def test_queue_full_rejects(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=1, queue_size=1) as served:
            service, metrics = served.service, served.metrics
            served.stall()
            service.submit("doc", EXAMPLE1_STYLESHEET)  # fills the queue
            with pytest.raises(ServiceOverloadedError):
                service.submit("doc", EXAMPLE1_STYLESHEET)
            assert metrics.counter(
                "serve.rejected", reason="queue-full"
            ).value == 1
            assert metrics.gauge("serve.queue.depth").value == 1
            assert metrics.gauge("serve.queue.capacity").value == 1
            assert metrics.gauge("serve.queue.saturation").value == 1.0
            assert service.health()["rejected"] == 1
            ready, _ = service.ready()
            assert not ready  # saturated

    def test_deadline_enforced_at_dequeue(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=1) as served:
            served.stall()
            # queued behind the stalled worker with a deadline that will
            # already have passed when it is dequeued
            future = served.service.submit(
                "doc", EXAMPLE1_STYLESHEET,
                options=TransformOptions(deadline=0.05),
            )
            threading.Event().wait(0.1)
            served.gate.release.set()
            with pytest.raises(RequestTimeoutError):
                future.result(timeout=10)
            assert served.metrics.counter("serve.timeouts").value == 1

    def test_deadline_enforced_during_execution(self, backend, tmp_path):
        """``transform_on`` skips the queue (and its dequeue check), so an
        already-spent deadline is met by the executor's drive loop: the
        request fails as a timeout, and the worker keeps serving."""
        with Served(backend, tmp_path) as served:
            service = served.service
            service.transform("doc", EXAMPLE1_STYLESHEET)  # plan cached
            with pytest.raises(RequestTimeoutError,
                               match="during execution"):
                service.transform_on(0, "doc", EXAMPLE1_STYLESHEET,
                                     options=TransformOptions(deadline=0))
            assert served.metrics.counter("serve.timeouts").value == 1
            assert served.metrics.counter("serve.errors").value == 0
            again = service.transform_on(
                0, "doc", EXAMPLE1_STYLESHEET,
                options=TransformOptions(deadline=60))
            assert again.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_zero_deadline_times_out(self, backend, tmp_path):
        """``deadline=0`` is a deadline, not "no deadline"."""
        with Served(backend, tmp_path) as served:
            with pytest.raises(RequestTimeoutError):
                served.service.transform(
                    "doc", EXAMPLE1_STYLESHEET,
                    options=TransformOptions(deadline=0),
                )
        with Served(backend, tmp_path, default_timeout=0) as served:
            with pytest.raises(RequestTimeoutError):
                served.service.transform("doc", EXAMPLE1_STYLESHEET)

    def test_negative_deadlines_rejected(self, backend, tmp_path):
        with pytest.raises(ValueError, match="invalid deadline"):
            TransformOptions(deadline=-1)
        with pytest.raises(ValueError, match="invalid default_timeout"):
            Served(backend, tmp_path, default_timeout=-0.5)

    def test_cancel_while_queued(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=1) as served:
            served.stall()
            future = served.service.submit("doc", EXAMPLE1_STYLESHEET)
            assert future.cancel()
            assert future.cancelled()
            served.gate.release.set()
            with pytest.raises(RequestCancelledError):
                future.result(timeout=10)
            served.service.close()  # the dispatcher has dequeued it by now
            assert served.metrics.counter("serve.cancelled").value == 1


class TestClose:
    def test_closed_service_rejects_and_close_is_idempotent(
            self, backend, tmp_path):
        with Served(backend, tmp_path) as served:
            service = served.service
            service.close()
            service.close()
            with pytest.raises(ServiceClosedError):
                service.submit("doc", EXAMPLE1_STYLESHEET)
            with pytest.raises(ServiceClosedError):
                service.transform_on(0, "doc", EXAMPLE1_STYLESHEET)

    def test_close_drains_queued_work(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=2) as served:
            futures = [
                served.service.submit("doc", EXAMPLE1_STYLESHEET)
                for _ in range(6)
            ]
            served.service.close(wait=True)
            for future in futures:
                assert future.result(timeout=10).strategy == STRATEGY_SQL

    def test_submitters_racing_close_never_hang(self, backend, tmp_path):
        """Every future handed out around ``close()`` resolves; every
        submit that lost the race raises ServiceClosedError — nothing
        lands behind the shutdown sentinels."""
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                with Served(backend, tmp_path, workers=2,
                            queue_size=256, recorder=False) as served:
                    service = served.service
                    service.transform("doc", EXAMPLE1_STYLESHEET)
                    futures, lock = [], threading.Lock()
                    go = threading.Event()

                    def submitter():
                        go.wait(10.0)
                        while True:
                            try:
                                future = service.submit(
                                    "doc", EXAMPLE1_STYLESHEET)
                            except ServiceOverloadedError:
                                continue
                            except ServiceClosedError:
                                return
                            with lock:
                                futures.append(future)

                    threads = [threading.Thread(target=submitter)
                               for _ in range(8)]
                    for thread in threads:
                        thread.start()
                    go.set()
                    while len(futures) < 20:
                        threading.Event().wait(0.001)
                    service.close()
                    for thread in threads:
                        thread.join(10.0)
                        assert not thread.is_alive()
                    for future in futures:
                        # a hang surfaces as "no result within 5s"
                        assert future.result(timeout=5).strategy \
                            == STRATEGY_SQL
        finally:
            sys.setswitchinterval(switch_interval)


class TestHealth:
    def test_health_and_ready_shape(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=2, queue_size=16) as served:
            service = served.service
            body = service.health()
            assert body["status"] == "ok"
            assert body["workers"] == 2
            assert body["queue"] == {"depth": 0, "capacity": 16,
                                     "saturation": 0.0}
            assert body["rejected"] == 0
            assert body["recorder"]["capacity"] == 256
            ready, _ = service.ready()
            assert ready
            stats = service.stats()
            assert stats["workers"] == stats["workers_alive"] == 2
            assert stats["queue_capacity"] == 16
            service.close()
            ready, body = service.ready()
            assert not ready
            assert body["status"] == "closed"


class TestTracing:
    def test_traceparent_adopted(self, backend, tmp_path):
        upstream = TraceContext(new_trace_id(), new_span_id())
        with Served(backend, tmp_path) as served:
            future = served.service.submit(
                "doc", EXAMPLE1_STYLESHEET,
                traceparent=upstream.to_traceparent(),
            )
            assert future.trace_id == upstream.trace_id
            result = future.result(timeout=30)
            assert result.trace_id == upstream.trace_id
            record = served.service.recorder.get(upstream.trace_id)
        spans = {span["name"]: span for span in record.spans}
        assert {span["trace_id"] for span in record.spans} \
            == {upstream.trace_id}
        # the request's root span is parent-linked to the caller's span
        assert spans[ROOT_SPAN[backend]]["parent_id"] == upstream.span_id
        assert "serve.execute" in spans

    def test_malformed_traceparent_degrades_to_fresh_trace(
            self, backend, tmp_path):
        with Served(backend, tmp_path) as served:
            result = served.service.transform(
                "doc", EXAMPLE1_STYLESHEET, traceparent="garbage-header")
            assert len(result.trace_id) == 32


class TestFlightRecorder:
    def test_one_record_per_terminal_status(self, backend, tmp_path):
        """ok / rejected / timeout / cancelled / error each leave
        exactly one record, under the request's trace id."""
        with Served(backend, tmp_path, workers=1, queue_size=2) as served:
            service = served.service
            ok = service.transform("doc", EXAMPLE1_STYLESHEET)
            with pytest.raises(ServeError) as failure:
                service.transform("nope", EXAMPLE1_STYLESHEET)
            assert "nope" in str(failure.value)

            stalled = served.stall()
            timed_out = service.submit(
                "doc", EXAMPLE1_STYLESHEET,
                options=TransformOptions(deadline=0),
            )
            cancelled = service.submit("doc", EXAMPLE1_STYLESHEET)
            assert cancelled.cancel()
            with pytest.raises(ServiceOverloadedError):
                service.submit("doc", EXAMPLE1_STYLESHEET)
            served.gate.release.set()
            with pytest.raises(RequestTimeoutError):
                timed_out.result(timeout=10)
            service.close()

            recorder = service.recorder
            assert sorted(
                record.status for record in recorder.records()
                if record.trace_id != stalled.trace_id
            ) == ["cancelled", "error", "ok", "rejected", "timeout"]
            record = recorder.get(ok.trace_id)
            assert record.status == "ok"
            assert record.strategy == STRATEGY_SQL
            assert record.cache_hit is False
            assert record.rows == 2
            assert record.queue_wait_seconds >= 0.0
            assert record.total_seconds > 0.0
            assert record.stages
            assert recorder.get(timed_out.trace_id).status == "timeout"
            assert "deadline exceeded" in \
                recorder.get(timed_out.trace_id).error
            assert recorder.get(cancelled.trace_id).status == "cancelled"
            errored = [r for r in recorder.records()
                       if r.status == "error"]
            assert "nope" in errored[0].error

    def test_transform_stream_needs_an_in_process_runtime(
            self, backend, tmp_path):
        with Served(backend, tmp_path) as served:
            if backend == "thread":
                text = served.service.transform_stream(
                    "doc", EXAMPLE1_STYLESHEET).text()
                assert text == EXPECTED_ROW1 + EXPECTED_ROW2
            else:
                with pytest.raises(ServeError, match="thread workers"):
                    served.service.transform_stream(
                        "doc", EXAMPLE1_STYLESHEET)
