"""Tests for TransformService over thread workers: concurrency and
cache semantics with live sources and full in-process results.  The
request lifecycle (admission, deadlines, cancel, close) is asserted over
both backends in ``test_lifecycle.py``."""

import threading

from repro.api import TransformOptions
from repro.core import STRATEGY_FUNCTIONAL, STRATEGY_SQL, xml_transform
from repro.obs import MetricsRegistry, Tracer
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import PlanCache, TransformService
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


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


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


class TestBasicServing:
    def test_serves_rewritten_result(self):
        db, storage = make_storage()
        with make_service(db) as service:
            result = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert result.strategy == STRATEGY_SQL
            assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]
            assert not result.cache_hit

    def test_results_identical_to_uncached_front_door(self):
        db, storage = make_storage()
        baseline = xml_transform(db, storage, EXAMPLE1_STYLESHEET)
        with make_service(db) as service:
            cold = service.transform(storage, EXAMPLE1_STYLESHEET)
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
        assert cold.serialized_rows() == baseline.serialized_rows()
        assert warm.serialized_rows() == baseline.serialized_rows()
        assert warm.cache_hit

    def test_submit_returns_future(self):
        db, storage = make_storage()
        with make_service(db) as service:
            future = service.submit(storage, EXAMPLE1_STYLESHEET)
            result = future.result(timeout=10)
            assert result.strategy == STRATEGY_SQL
            assert future.done()

    def test_latency_split_recorded(self):
        db, storage = make_storage()
        with make_service(db) as service:
            result = service.transform(storage, EXAMPLE1_STYLESHEET)
        assert result.queue_wait_seconds >= 0
        assert result.execute_seconds > 0
        assert result.total_seconds >= result.execute_seconds

    def test_functional_requests_served(self):
        db, storage = make_storage()
        with make_service(db) as service:
            result = service.transform(
                storage, EXAMPLE1_STYLESHEET,
                options=TransformOptions(strategy="functional"),
            )
            assert result.strategy == STRATEGY_FUNCTIONAL
            assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]
            # the compiled stylesheet is still cached for reuse
            again = service.transform(
                storage, EXAMPLE1_STYLESHEET,
                options=TransformOptions(strategy="functional"),
            )
            assert again.cache_hit

    def test_params_evaluate_functionally(self):
        db, storage = make_storage()
        body = (
            '<xsl:param name="p"/>'
            '<xsl:template match="dept">'
            '<xsl:value-of select="$p"/></xsl:template>'
        )
        with make_service(db) as service:
            result = service.transform(
                storage, sheet(body), params={"p": "X"}
            )
            assert result.strategy == STRATEGY_FUNCTIONAL
            assert result.serialized_rows() == ["X", "X"]


class TestCompileSharing:
    def test_n_threads_one_compile(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, workers=4, metrics=metrics) as service:
            barrier = threading.Barrier(8)
            results = []
            lock = threading.Lock()

            def client():
                barrier.wait(10.0)
                result = service.transform(storage, EXAMPLE1_STYLESHEET)
                with lock:
                    results.append(result)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert len(results) == 8
            rows = results[0].serialized_rows()
            assert all(r.serialized_rows() == rows for r in results)
            # the whole burst compiled exactly once
            assert service.cache.stats().compiles == 1
            assert metrics.counter("transform.rewrite_attempts").value == 1
            assert sum(1 for r in results if not r.cache_hit) >= 1
            assert sum(1 for r in results if r.cache_hit) == 8 - sum(
                1 for r in results if not r.cache_hit
            )

    def test_cache_hit_trace_has_no_compile_spans(self):
        db, storage = make_storage()
        with make_service(db) as service:
            cold = service.transform(storage, EXAMPLE1_STYLESHEET)
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
        cold_spans = [span.name for span in cold.trace.iter_spans()]
        warm_spans = [span.name for span in warm.trace.iter_spans()]
        assert any(name.startswith("compile") for name in cold_spans)
        assert not any(name.startswith("compile") for name in warm_spans)
        assert "serve.execute" in warm_spans

    def test_ledger_preserved_on_cache_hit(self):
        db, storage = make_storage()
        with make_service(db) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
        assert warm.cache_hit
        assert warm.ledger is not None
        assert len(warm.ledger) > 0
        explained = warm.explain().render()
        assert "rewrite decisions:" in explained
        assert "(no rewrite decisions recorded)" not in explained

    def test_failed_rewrite_negative_cached(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        # xsl:number cannot be rewritten → functional fallback
        body = (
            '<xsl:template match="emp"><i><xsl:number value="42"/></i>'
            "</xsl:template>"
        )
        with make_service(db, metrics=metrics) as service:
            cold = service.transform(storage, sheet(body))
            warm = service.transform(storage, sheet(body))
        assert cold.strategy == STRATEGY_FUNCTIONAL
        assert warm.strategy == STRATEGY_FUNCTIONAL
        assert warm.cache_hit
        assert service.cache.stats().compiles == 1
        # the categorized fallback is replayed per execution
        assert cold.fallback_category
        assert (warm.fallback_category
                == cold.fallback_category)
        assert metrics.counter_total("transform.fallback") == 2


class TestInvalidation:
    def test_schema_change_invalidates(self):
        db, storage = make_storage()
        with make_service(db) as service:
            cold = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert not cold.cache_hit
            before = storage.fingerprint()
            storage.create_value_index("sal")
            assert storage.fingerprint() != before
            # the new fingerprint misses; the plan is recompiled against
            # the indexed storage
            fresh = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert not fresh.cache_hit
            assert fresh.serialized_rows() == cold.serialized_rows()
            assert service.cache.stats().compiles == 2

    def test_explicit_invalidate_by_source(self):
        db, storage = make_storage()
        with make_service(db) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            assert service.invalidate(source=storage) == 1
            again = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert not again.cache_hit

    def test_distinct_stylesheets_distinct_entries(self):
        db, storage = make_storage()
        other = sheet(
            '<xsl:template match="emp"><e><xsl:value-of select="empno"/>'
            "</e></xsl:template>"
        )
        with make_service(db) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            result = service.transform(storage, other)
            assert not result.cache_hit
            assert len(service.cache) == 2


class TestFutures:
    def test_cancel_after_completion_fails(self):
        db, storage = make_storage()
        with make_service(db) as service:
            future = service.submit(storage, EXAMPLE1_STYLESHEET)
            future.result(timeout=10)
            assert not future.cancel()

class TestObservability:
    def test_serve_metrics_recorded(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, metrics=metrics) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            service.transform(storage, EXAMPLE1_STYLESHEET)
        assert metrics.counter("serve.requests").value == 2
        assert metrics.counter_total("serve.completed") == 2
        assert metrics.counter(
            "serve.completed", strategy=STRATEGY_SQL, cache="hit"
        ).value == 1
        assert metrics.histogram("serve.queue_wait_seconds").count == 2
        assert metrics.histogram("serve.execute_seconds").count == 2
        assert metrics.histogram("serve.request_seconds").count == 2
        assert metrics.histogram("serve.cache.compile_seconds").count == 1

    def test_request_span_attributes(self):
        db, storage = make_storage()
        with make_service(db) as service:
            warm_up = service.transform(storage, EXAMPLE1_STYLESHEET)
            hit = service.transform(storage, EXAMPLE1_STYLESHEET)
        root = hit.trace
        assert root.name == "serve.request"
        assert root.attrs["cache_hit"] is True
        assert root.attrs["strategy"] == STRATEGY_SQL
        assert "queue_wait_ms" in root.attrs
        assert warm_up.trace.attrs["cache_hit"] is False

    def test_tracing_can_be_disabled(self):
        db, storage = make_storage()
        with make_service(db, tracer=Tracer(enabled=False)) as service:
            result = service.transform(storage, EXAMPLE1_STYLESHEET)
        assert result.trace is None
        assert result.strategy == STRATEGY_SQL

    def test_stats_snapshot(self):
        db, storage = make_storage()
        with make_service(db, workers=3) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            stats = service.stats()
        assert stats["workers"] == 3
        assert stats["compiles"] == 1
        assert stats["size"] == 1


class TestSharedCache:
    def test_injected_cache_serves_and_invalidates(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        cache = PlanCache(metrics=metrics)
        with make_service(db, cache=cache, metrics=metrics) as service:
            assert service.cache is cache
            service.transform(storage, EXAMPLE1_STYLESHEET)
            assert service.transform(
                storage, EXAMPLE1_STYLESHEET
            ).cache_hit
            assert service.invalidate(storage) == 1
            assert not service.transform(
                storage, EXAMPLE1_STYLESHEET
            ).cache_hit
            assert cache.stats().evictions == {"invalidated": 1}


class TestServiceLatencyHistogram:
    def test_latency_recorded_by_cache_outcome(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, metrics=metrics) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            service.transform(storage, EXAMPLE1_STYLESHEET)
            miss = metrics.histogram("serve.request.latency", cache="miss")
            hit = metrics.histogram("serve.request.latency", cache="hit")
            assert miss.count == 1
            assert hit.count == 1
            assert miss.sum > 0.0

    def test_concurrent_clients_each_record_latency(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, workers=2, metrics=metrics) as service:
            def client():
                for _ in range(3):
                    service.transform(storage, EXAMPLE1_STYLESHEET)

            threads = [threading.Thread(target=client) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
        latency = {
            histogram.labels["cache"]: histogram.count
            for histogram in metrics.histograms("serve.request.latency")
        }
        assert sum(latency.values()) == 6
        assert latency["hit"] >= 4
        assert "serve.request.latency{cache=hit}" in \
            metrics.snapshot()["histograms"]
