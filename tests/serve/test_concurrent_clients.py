"""Closed-loop clients against one service, over both worker backends.

A few client threads each call ``service.transform`` in a loop; what a
load report would summarise is read straight from the service's own
surfaces — ``metrics`` (counters and latency histograms),
``health()``, and ``recorder`` — so the facts hold for thread and
process workers alike.
"""

import threading
import time

import pytest

from repro.core import STRATEGY_SQL, xml_transform
from repro.obs import FlightRecorder, MetricsRegistry
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import ServeError, TransformService
from repro.xmlmodel import parse_document

from ..core.paper_example import (
    DEPT_DTD,
    DEPT_DOC_1,
    DEPT_DOC_2,
    EXAMPLE1_STYLESHEET,
    EXPECTED_ROW1,
    EXPECTED_ROW2,
)

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'

#: a second stylesheet over the same documents: one row per document
COUNT_STYLESHEET = (
    '<xsl:stylesheet version="1.0" %s><xsl:template match="/">'
    '<out><xsl:value-of select="count(//emp)"/></out>'
    "</xsl:template></xsl:stylesheet>" % XSL
)

BROKEN_STYLESHEET = "<not-a-stylesheet/>"

#: how long one client thread may take before the test gives up on it
JOIN_SECONDS = 30.0
#: requests every client of a time-bounded loop makes
MIN_REQUESTS = 3


@pytest.fixture(params=("thread", "process"))
def backend(request):
    return request.param


def make_service(backend, tmp_path, workers=2, **kwargs):
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    storage.load(parse_document(DEPT_DOC_2))
    kwargs.setdefault("metrics", MetricsRegistry())
    service = TransformService(
        db, workers=workers, backend=backend, sources={"doc": storage},
        artifact_dir=str(tmp_path / "plans"), **kwargs
    )
    return db, storage, service


def run_clients(service, stylesheets, clients=2, requests_per_client=None,
                until=None):
    """Run ``clients`` threads, each cycling through ``stylesheets``
    either ``requests_per_client`` times or until the ``until``
    perf-counter deadline (but at least ``MIN_REQUESTS`` times, so a
    client started late on a loaded machine still takes part); return
    (results, errors) over all clients."""
    results, errors = [], []
    lock = threading.Lock()

    def client(offset):
        n = 0
        while (n < requests_per_client if until is None
               else n < MIN_REQUESTS or time.perf_counter() < until):
            stylesheet = stylesheets[(offset + n) % len(stylesheets)]
            n += 1
            try:
                result = service.transform("doc", stylesheet)
            except Exception as exc:  # collected, asserted by the caller
                with lock:
                    errors.append(exc)
            else:
                with lock:
                    results.append(result)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_SECONDS)
        assert not thread.is_alive(), "a client never finished"
    return results, errors


def completed(metrics, cache):
    return sum(counter.value for counter in metrics.counters("serve.completed")
               if counter.labels["cache"] == cache)


class TestClosedLoop:
    def test_every_request_is_counted(self, backend, tmp_path):
        _, _, service = make_service(backend, tmp_path)
        metrics = service.metrics
        with service:
            results, errors = run_clients(
                service, [EXAMPLE1_STYLESHEET], clients=3,
                requests_per_client=5)
            health = service.health()
        assert errors == []
        assert len(results) == 15
        assert {result.strategy for result in results} == {STRATEGY_SQL}
        assert metrics.counter_total("serve.requests") == 15
        assert metrics.counter_total("serve.completed") == 15
        assert metrics.histogram("serve.request_seconds").count == 15
        assert health["recorder"]["size"] == 15
        assert health["queue"]["depth"] == 0

    def test_one_stylesheet_hits_after_each_workers_first(
            self, backend, tmp_path):
        workers = 2
        _, _, service = make_service(backend, tmp_path, workers=workers)
        with service:
            results, errors = run_clients(
                service, [EXAMPLE1_STYLESHEET], clients=4,
                requests_per_client=5)
            cache = service.cache
        assert errors == []
        hits = sum(result.cache_hit for result in results)
        # each worker's runtime misses at most once; everything after hits
        assert hits >= len(results) - workers
        assert completed(service.metrics, "hit") == hits
        if backend == "thread":
            # one shared runtime: concurrent misses compile once
            assert cache.stats().compiles == 1

    def test_latency_percentiles_are_ordered(self, backend, tmp_path):
        _, _, service = make_service(backend, tmp_path)
        with service:
            run_clients(service, [EXAMPLE1_STYLESHEET],
                        requests_per_client=10)
        summary = service.metrics.snapshot()["histograms"][
            "serve.request_seconds"]
        assert summary["count"] == 20
        assert 0.0 < summary["min"] <= summary["p50"] <= summary["p95"] \
            <= summary["max"]
        assert summary["sum"] >= summary["max"]

    def test_errors_reach_the_caller_and_are_counted(
            self, backend, tmp_path):
        _, _, service = make_service(backend, tmp_path)
        with service:
            results, errors = run_clients(
                service, [EXAMPLE1_STYLESHEET, BROKEN_STYLESHEET],
                requests_per_client=4)
            health = service.health()
        assert len(results) == len(errors) == 4
        # a failed request does not take the service down
        assert health["status"] == "ok"
        assert service.metrics.counter_total("serve.errors") == 4
        assert all("not xsl:stylesheet" in str(error) for error in errors)
        if backend == "process":
            assert all(isinstance(error, ServeError) for error in errors)
        statuses = [record.status for record in service.recorder.records()]
        assert sorted(statuses) == ["error"] * 4 + ["ok"] * 4

    def test_results_match_the_uncached_baseline(self, backend, tmp_path):
        db, storage, service = make_service(backend, tmp_path)
        baseline = xml_transform(
            db, storage, EXAMPLE1_STYLESHEET).serialized_rows()
        assert baseline == [EXPECTED_ROW1, EXPECTED_ROW2]
        with service:
            results, errors = run_clients(
                service, [EXAMPLE1_STYLESHEET], requests_per_client=3)
        assert errors == []
        assert any(result.cache_hit for result in results)
        assert all(result.serialized_rows() == baseline
                   for result in results)

    def test_mixed_workload_keeps_each_stylesheets_rows(
            self, backend, tmp_path):
        db, storage, service = make_service(backend, tmp_path)
        expected = {
            sheet: xml_transform(db, storage, sheet).serialized_rows()
            for sheet in (EXAMPLE1_STYLESHEET, COUNT_STYLESHEET)
        }
        with service:
            results, errors = run_clients(
                service, [EXAMPLE1_STYLESHEET, COUNT_STYLESHEET],
                clients=3, requests_per_client=6)
        assert errors == []
        assert len(results) == 18
        assert sorted(tuple(result.serialized_rows()) for result in results) \
            == sorted([tuple(rows) for rows in expected.values()] * 9)
        assert {result.strategy for result in results} == {STRATEGY_SQL}
        # two stylesheets, each missing at most once per worker
        assert completed(service.metrics, "miss") <= 2 * 2

    def test_time_bounded_loop_runs_clean(self, backend, tmp_path):
        _, _, service = make_service(backend, tmp_path)
        with service:
            started = time.perf_counter()
            results, errors = run_clients(
                service, [EXAMPLE1_STYLESHEET],
                until=started + 0.4)
            elapsed = time.perf_counter() - started
        assert elapsed >= 0.4
        assert errors == []
        assert len(results) >= 2 * MIN_REQUESTS
        # each of the two workers misses at most once
        assert completed(service.metrics, "hit") >= len(results) - 2
        assert service.metrics.counter_total("serve.errors") == 0


class TestRecordsOfAConcurrentRun:
    def test_recorder_lists_newest_first(self, backend, tmp_path):
        _, _, service = make_service(backend, tmp_path)
        with service:
            results, _ = run_clients(service, [EXAMPLE1_STYLESHEET],
                                     requests_per_client=4)
        recorder = service.recorder
        listed = recorder.snapshot()
        assert len(listed) == 8
        sequences = [record["sequence"] for record in listed]
        assert sequences == sorted(sequences, reverse=True)
        assert {record["trace_id"] for record in listed} \
            == {result.trace_id for result in results}
        assert len(recorder.snapshot(limit=3)) == 3
        assert all("spans" not in record and "detail" not in record
                   for record in listed)

    def test_unknown_trace_id_finds_nothing(self, backend, tmp_path):
        _, _, service = make_service(backend, tmp_path)
        with service:
            run_clients(service, [EXAMPLE1_STYLESHEET],
                        requests_per_client=2)
        assert service.recorder.get("0" * 32) is None

    def test_slow_requests_keep_their_explain(self, backend, tmp_path):
        _, _, service = make_service(
            backend, tmp_path,
            recorder=FlightRecorder(slow_threshold_seconds=0.0))
        with service:
            results, errors = run_clients(
                service, [EXAMPLE1_STYLESHEET], requests_per_client=2)
        assert errors == []
        for result in results:
            record = service.recorder.get(result.trace_id)
            assert record.detail_reason == "slow"
            assert record.detail.startswith("strategy: sql-rewrite")
            body = record.as_dict(include_spans=True, include_detail=True)
            assert body["detail"] == record.detail
            assert {span["trace_id"] for span in body["spans"]} \
                == {result.trace_id}

    def test_no_recorder_means_no_records(self, backend, tmp_path):
        _, _, service = make_service(backend, tmp_path, recorder=False)
        with service:
            results, errors = run_clients(
                service, [EXAMPLE1_STYLESHEET], requests_per_client=2)
            health = service.health()
        assert errors == [] and len(results) == 4
        assert service.recorder is None
        assert "recorder" not in health
        assert health["status"] == "ok"

    def test_health_of_two_services_on_one_registry(self, backend, tmp_path):
        metrics = MetricsRegistry()
        _, _, busy = make_service(backend, tmp_path / "busy",
                                  metrics=metrics, queue_size=8)
        _, _, quiet = make_service(backend, tmp_path / "quiet",
                                   metrics=metrics, queue_size=4)
        with busy, quiet:
            run_clients(busy, [EXAMPLE1_STYLESHEET], requests_per_client=3)
            busy_health, quiet_health = busy.health(), quiet.health()
        assert busy_health["recorder"]["size"] == 6
        assert quiet_health["recorder"]["size"] == 0
        assert busy_health["queue"]["capacity"] == 8
        assert quiet_health["queue"]["capacity"] == 4
        assert busy_health["rejected"] == quiet_health["rejected"] == 0
        if backend == "thread":
            assert busy_health["cache"]["misses"] >= 1
            assert quiet_health["cache"]["misses"] == 0
        else:
            assert "cache" not in busy_health
