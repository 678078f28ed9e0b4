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
import time

import pytest

from repro.api import TransformOptions
from repro.core import STRATEGY_SQL
from repro.obs import MetricsRegistry
from repro.obs.trace import (
    TraceContext,
    new_span_id,
    new_trace_id,
    use_trace_context,
)
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
#: how long a plan lookup stalls while ``Served.slow`` is set
SLOW_SECONDS = 0.4
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
        #: while set, every plan lookup on "doc" first sleeps SLOW_SECONDS
        #: — after the request is claimed, before its plan executes
        self.slow = multiprocessing.Event()
        fingerprint = storage.fingerprint

        def slowed():
            if self.slow.is_set():
                time.sleep(SLOW_SECONDS)
            return fingerprint()

        storage.fingerprint = slowed
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
            assert 0.0 <= result.queue_wait_seconds < 0.1
            assert result.serialized_rows() == [EXPECTED_ROW1,
                                                EXPECTED_ROW2]


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class Instrumented:
    """Wraps a service's backend: every run notes the thread it ran on
    and how many runs overlapped, and (while ``go`` is clear) waits for
    ``go`` — the barrier that lets a test fill every worker first."""

    def __init__(self, service):
        backend = service._backend
        self.threads, self.events = [], []
        self.active = self.peak = 0
        self.go = threading.Event()
        self.go.set()
        self._lock = threading.Lock()
        run, close = backend.run, backend.close

        def tracked_run(*args):
            with self._lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
                self.threads.append(threading.current_thread())
                self.events.append("run")
            try:
                assert self.go.wait(10.0)
                return run(*args)
            finally:
                with self._lock:
                    self.active -= 1
                    self.events.append("ran")

        def tracked_close():
            self.events.append("close")
            close()

        backend.run, backend.close = tracked_run, tracked_close

    def on_dispatchers(self):
        return sum(thread.name.startswith("repro-serve-")
                   for thread in self.threads)


class TestCallerRuns:
    """A synchronous request that finds the queue empty and a live
    worker idle takes that worker's slot and runs on the caller's
    thread, through the same claim/record/resolve path as a dispatched
    one."""

    def test_never_more_than_workers_at_once(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=2) as served:
            service = served.service
            service.transform("doc", EXAMPLE1_STYLESHEET)  # plan cached
            probe = Instrumented(service)
            probe.go.clear()
            results = []

            def caller():
                results.append(service.transform("doc",
                                                 EXAMPLE1_STYLESHEET))

            first = [threading.Thread(target=caller) for _ in range(2)]
            for thread in first:
                thread.start()
            # both workers are now held by callers running in place
            wait_until(lambda: probe.active == 2)
            futures = [service.submit("doc", EXAMPLE1_STYLESHEET)
                       for _ in range(4)]
            later = [threading.Thread(target=caller) for _ in range(2)]
            for thread in later:
                thread.start()
            probe.go.set()
            for thread in first + later:
                thread.join(10.0)
                assert not thread.is_alive()
            results += [future.result(timeout=10) for future in futures]
        assert probe.peak == 2
        assert len(probe.threads) == 8
        assert set(probe.threads[:2]) == {thread for thread in first}
        assert probe.on_dispatchers() >= 4  # the submits, at least
        assert [result.serialized_rows() for result in results] \
            == [[EXPECTED_ROW1, EXPECTED_ROW2]] * 8

    def test_callers_racing_each_other_and_close(self, backend, tmp_path):
        """More callers than workers, more workers than cores, frequent
        thread switches: no more than ``workers`` runs overlap, every
        answer is right, and ``close()`` never closes the backend under
        a run — nothing runs after it, no caller hangs."""
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Served(backend, tmp_path, workers=3, queue_size=256,
                        recorder=False) as served:
                service = served.service
                service.transform("doc", EXAMPLE1_STYLESHEET)
                probe = Instrumented(service)
                outcomes = []

                def caller():
                    while True:
                        try:
                            result = service.transform(
                                "doc", EXAMPLE1_STYLESHEET)
                        except ServiceClosedError:
                            outcomes.append("closed")
                            return
                        except ServiceOverloadedError:
                            continue
                        outcomes.append(result.serialized_rows()
                                        == [EXPECTED_ROW1, EXPECTED_ROW2])

                threads = [threading.Thread(target=caller)
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                wait_until(lambda: len(outcomes) >= 40)
                service.close()
                for thread in threads:
                    thread.join(10.0)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch_interval)
        assert 1 <= probe.peak <= 3
        assert set(outcomes) == {True, "closed"}
        assert outcomes.count("closed") == 6
        assert probe.events[-1] == "close"
        assert probe.events.count("run") == probe.events.count("ran")

    def test_a_caller_run_leaves_one_ok_record(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=2) as served:
            service = served.service
            probe = Instrumented(service)
            result = service.transform("doc", EXAMPLE1_STYLESHEET)
            records = [record for record in service.recorder.records()
                       if record.trace_id == result.trace_id]
        assert probe.threads == [threading.current_thread()]
        assert [record.status for record in records] == ["ok"]
        assert result.worker in (0, 1)
        assert 0.0 <= records[0].queue_wait_seconds \
            == result.queue_wait_seconds < 0.1
        assert served.metrics.counter("serve.requests").value == 1
        assert served.metrics.histogram(
            "serve.queue_wait_seconds").count == 1
        names = {span["name"] for span in records[0].spans}
        assert {ROOT_SPAN[backend], "serve.execute"} <= names

    def test_close_waits_for_a_caller_run(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=1) as served:
            service = served.service
            service.transform("doc", EXAMPLE1_STYLESHEET)  # plan cached
            probe = Instrumented(service)
            served.slow.set()  # the run below stalls in its plan lookup
            results = []
            caller = threading.Thread(target=lambda: results.append(
                service.transform("doc", EXAMPLE1_STYLESHEET)))
            caller.start()
            wait_until(lambda: probe.events)
            service.close()
            caller.join(10.0)
            assert not caller.is_alive()
        assert probe.threads == [caller]
        assert probe.events == ["run", "ran", "close"]
        assert results[0].serialized_rows() == [EXPECTED_ROW1,
                                                EXPECTED_ROW2]

    def test_a_worker_killed_while_idle_is_skipped(self, tmp_path):
        with Served("process", tmp_path, workers=2) as served:
            service = served.service
            process = service._backend._handles[0].process
            process.terminate()
            process.join(timeout=10)
            probe = Instrumented(service)
            for _ in range(3):
                result = service.transform("doc", EXAMPLE1_STYLESHEET)
                assert result.worker == 1
                assert result.serialized_rows() == [EXPECTED_ROW1,
                                                    EXPECTED_ROW2]
            assert service.health()["status"] == "degraded"
        assert probe.threads == [threading.current_thread()] * 3
        assert served.metrics.counter("cluster.worker_failures").value == 1
        assert served.metrics.counter_total("serve.errors") == 0

    def test_a_queued_request_takes_the_first_free_worker(
            self, backend, tmp_path):
        """A queued request counts in the queue depth until it runs, and
        runs on whichever worker frees first: a caller-run holding
        worker 0 does not hold it up once worker 1 is free."""
        with Served(backend, tmp_path, workers=2) as served:
            service = served.service
            service.transform("doc", EXAMPLE1_STYLESHEET)  # plan cached
            probe = Instrumented(service)

            def hold():
                try:
                    service.transform("gate", EXAMPLE1_STYLESHEET)
                except Exception:  # the gate is no real source
                    pass

            held = threading.Thread(target=hold)
            held.start()
            assert served.gate.running.wait(10.0)  # worker 0, held
            probe.go.clear()
            results = []
            busy = threading.Thread(target=lambda: results.append(
                service.transform("doc", EXAMPLE1_STYLESHEET)))
            busy.start()
            wait_until(lambda: probe.active == 2)  # worker 1, until go
            queued = service.submit("doc", EXAMPLE1_STYLESHEET)
            threading.Event().wait(0.05)
            assert service.health()["queue"]["depth"] == 1
            probe.go.set()
            result = queued.result(timeout=5)
            assert held.is_alive()  # worker 0 is still held
            busy.join(10.0)
            served.gate.release.set()
            held.join(10.0)
        assert [run.worker for run in results + [result]] == [1, 1]
        assert probe.threads[2].name.startswith("repro-serve-")
        assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_an_oversubscribed_service_queues_its_callers(
            self, backend, tmp_path):
        """With a dispatcher busy, or more threads waiting for results
        than workers, a caller takes the queue even though a worker is
        idle; once neither holds, it runs in place again."""
        with Served(backend, tmp_path, workers=2) as served:
            service = served.service
            service.transform("doc", EXAMPLE1_STYLESHEET)  # plan cached
            probe = Instrumented(service)
            stalled = served.stall()  # a dispatcher holds a worker
            behind_dispatcher = service.transform("doc", EXAMPLE1_STYLESHEET)
            served.gate.release.set()
            stalled.exception(timeout=10)
            wait_until(lambda: service._dispatching == 0)
            service._count_waiter(2)  # two clients already waiting
            try:
                crowded = service.transform("doc", EXAMPLE1_STYLESHEET)
            finally:
                service._count_waiter(-2)
            alone = service.transform("doc", EXAMPLE1_STYLESHEET)
        assert [thread.name.startswith("repro-serve-")
                for thread in probe.threads] == [True, True, True, False]
        for result in (behind_dispatcher, crowded, alone):
            assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_busy_slots_queue_with_rejection_and_deadline(
            self, backend, tmp_path):
        """With the one worker held, ``transform`` is a queued request:
        a full queue rejects it and its deadline holds at dequeue."""
        with Served(backend, tmp_path, workers=1, queue_size=1) as served:
            service, metrics = served.service, served.metrics
            served.stall()
            errors = []

            def caller():
                try:
                    service.transform("doc", EXAMPLE1_STYLESHEET,
                                      options=TransformOptions(deadline=0.05))
                except ServeError as exc:
                    errors.append(exc)

            queued = threading.Thread(target=caller)
            queued.start()
            wait_until(lambda: service.health()["queue"]["depth"] == 1)
            with pytest.raises(ServiceOverloadedError):
                service.transform("doc", EXAMPLE1_STYLESHEET)
            threading.Event().wait(0.1)
            served.gate.release.set()
            queued.join(10.0)
            assert not queued.is_alive()
            assert metrics.counter(
                "serve.rejected", reason="queue-full").value == 1
            assert metrics.counter("serve.timeouts").value == 1
        assert len(errors) == 1
        assert isinstance(errors[0], RequestTimeoutError)
        assert "waiting to run" in str(errors[0])


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
            assert service.health()["queue"]["saturation"] == 1.0

    def test_rejections_are_counted_per_service(self, backend, tmp_path):
        """Two services on one registry share the ``serve.rejected``
        counter; each ``health()["rejected"]`` is the service's own."""
        metrics = MetricsRegistry()
        with Served(backend, tmp_path, workers=1, queue_size=1,
                    metrics=metrics) as full, \
                Served(backend, tmp_path, workers=1,
                       metrics=metrics) as idle:
            full.stall()
            full.service.submit("doc", EXAMPLE1_STYLESHEET)
            with pytest.raises(ServiceOverloadedError):
                full.service.submit("doc", EXAMPLE1_STYLESHEET)
            assert metrics.counter_total("serve.rejected") == 1
            assert full.service.health()["rejected"] == 1
            assert idle.service.health()["rejected"] == 0

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
        """A request claimed in time whose deadline passes before its
        plan runs (a stalled plan lookup) is met by the executor's drive
        loop: the request fails as a timeout, and the worker keeps
        serving."""
        with Served(backend, tmp_path) as served:
            service = served.service
            service.transform("doc", EXAMPLE1_STYLESHEET)  # plan cached
            served.slow.set()
            with pytest.raises(RequestTimeoutError,
                               match="during execution"):
                service.transform_on(
                    0, "doc", EXAMPLE1_STYLESHEET,
                    options=TransformOptions(deadline=SLOW_SECONDS / 2))
            served.slow.clear()
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
        lands in a queue the exiting dispatchers no longer drain."""
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
    def test_health_shape(self, backend, tmp_path):
        with Served(backend, tmp_path, workers=2, queue_size=16) as served:
            service = served.service
            body = service.health()
            assert body["status"] == "ok"
            assert body["workers"] == 2
            assert body["queue"] == {"depth": 0, "capacity": 16,
                                     "saturation": 0.0}
            assert body["rejected"] == 0
            assert body["recorder"]["capacity"] == 256
            stats = service.stats()
            assert stats["workers"] == stats["workers_alive"] == 2
            assert stats["queue_capacity"] == 16
            service.close()
            assert service.health()["status"] == "closed"


class TestTracing:
    def test_upstream_trace_adopted(self, backend, tmp_path):
        upstream = TraceContext(new_trace_id(), new_span_id())
        with Served(backend, tmp_path) as served:
            with use_trace_context(upstream):
                future = served.service.submit("doc", EXAMPLE1_STYLESHEET)
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

    def test_outside_any_trace_a_fresh_one_is_minted(self, backend,
                                                     tmp_path):
        with Served(backend, tmp_path) as served:
            first = served.service.transform("doc", EXAMPLE1_STYLESHEET)
            second = served.service.transform("doc", EXAMPLE1_STYLESHEET)
        assert len(first.trace_id) == len(second.trace_id) == 32
        assert first.trace_id != second.trace_id


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
