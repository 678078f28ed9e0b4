"""Tests for what only process workers do: separate interpreters, the
shared plan tier, cross-process invalidation, trace stitching across
the pipe, worker death.  The request lifecycle both backends share is
asserted once, over both, in ``test_lifecycle.py``."""

import os
import pickle
import threading

import pytest

from repro.api import Engine
from repro.obs import MetricsRegistry, TraceContext, use_trace_context
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import (
    ClusterWorkerError,
    TransformService,
    WorkerRequestError,
)
from repro.serve.runtime import EVICT_STALE_STATS
from repro.xmlmodel import parse_document
from repro.xsltmark import get_case
from repro.xsltmark.runner import prepare_case

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
    return ('<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>'
            % (XSL, body))


def make_storage():
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    storage.load(parse_document(DEPT_DOC_2))
    return db, storage


def make_cluster(db, storage, tmp_path, workers=2, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    kwargs.setdefault("artifact_dir", str(tmp_path / "plans"))
    return TransformService(db, backend="process", sources={"doc": storage},
                            workers=workers, **kwargs)


def avts_sources():
    """The ``avts`` case at 20 rows as ``(db, sources)``: a worker
    factory (module level, so the ``spawn`` start method pickles it by
    name and the child builds its own storage)."""
    prepared = prepare_case(get_case("avts"), 20)
    return prepared.db, {"avts": prepared.storage}


class TestBasicServing:
    def test_workers_are_separate_processes(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            pids = {reply["pid"] for reply in cluster.ping()}
            assert len(pids) == 2
            assert os.getpid() not in pids

    def test_submit_returns_future(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            future = cluster.submit("doc", EXAMPLE1_STYLESHEET)
            result = future.result(timeout=30)
            assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]
            assert future.done()

    def test_results_are_picklable(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            result = cluster.transform("doc", EXAMPLE1_STYLESHEET)
        restored = pickle.loads(pickle.dumps(result))
        assert restored.serialized_rows() == result.serialized_rows()
        assert restored.cache_tier == result.cache_tier

    def test_source_and_stylesheet_must_cross_by_value(self, tmp_path):
        db, storage = make_storage()
        from repro.xslt.stylesheet import compile_stylesheet

        with make_cluster(db, storage, tmp_path) as cluster:
            with pytest.raises(TypeError):
                cluster.submit(storage, EXAMPLE1_STYLESHEET)
            with pytest.raises(TypeError):
                cluster.submit("doc",
                               compile_stylesheet(EXAMPLE1_STYLESHEET))

    def test_unknown_source_fails_request_not_worker(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            with pytest.raises(WorkerRequestError):
                cluster.transform("nope", EXAMPLE1_STYLESHEET)
            # the worker survives the failed request
            result = cluster.transform("doc", EXAMPLE1_STYLESHEET)
            assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]


class TestSpawnStartMethod:
    def test_a_spawned_worker_serves_what_a_thread_worker_does(
            self, tmp_path):
        stylesheet = get_case("avts").stylesheet
        db, sources = avts_sources()
        with TransformService(db, sources=sources, workers=1,
                              metrics=MetricsRegistry()) as threads:
            expected = threads.transform("avts", stylesheet)
        with TransformService(backend="process", factory=avts_sources,
                              start_method="spawn", workers=1,
                              metrics=MetricsRegistry(),
                              artifact_dir=str(tmp_path / "plans")) \
                as spawned:
            result = spawned.transform("avts", stylesheet)
            record = spawned.recorder.get(result.trace_id)
        assert result.strategy == expected.strategy == "sql-rewrite"
        assert result.serialized_rows() == expected.serialized_rows()
        # the request's trace id crossed the pipe
        spans = {span["name"]: span for span in record.spans}
        assert spans["cluster.worker"]["trace_id"] == result.trace_id
        assert spans["cluster.worker"]["parent_id"] == \
            spans["cluster.request"]["span_id"]
        assert "serve.execute" in spans


class TestTwoTierCache:
    def test_plan_compiled_by_one_worker_hits_in_all(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            first = cluster.transform_on(0, "doc", EXAMPLE1_STYLESHEET)
            assert first.cache_tier == "miss"
            # worker 0 again: in-memory tier
            assert cluster.transform_on(
                0, "doc", EXAMPLE1_STYLESHEET).cache_tier == "l1"
            # worker 1, never compiled it: shared disk tier
            other = cluster.transform_on(1, "doc", EXAMPLE1_STYLESHEET)
            assert other.cache_tier == "l2"
            assert other.serialized_rows() == first.serialized_rows()
            stats = cluster.stats()
            assert stats["tier2"]["hits"] == 1
            assert stats["tier2"]["puts"] == 1
            assert stats["tier1"]["compiles"] == 2  # one real, one loaded

    def test_warm_restart_serves_from_disk_without_recompiling(
            self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            cold = cluster.transform("doc", EXAMPLE1_STYLESHEET)

        # full restart: new cluster processes, same artifact directory
        with make_cluster(db, storage, tmp_path) as cluster:
            warm = cluster.transform("doc", EXAMPLE1_STYLESHEET)
            assert warm.cache_tier == "l2"
            assert warm.serialized_rows() == cold.serialized_rows()
            merged = cluster.stats()["metrics"]["counters"]
            assert merged.get("serve.cache.disk.hits") == 1
            # the acceptance signal: no worker attempted a rewrite
            assert "transform.rewrite_attempts" not in merged

    def test_distinct_stylesheets_distinct_entries(self, tmp_path):
        db, storage = make_storage()
        other = sheet(
            '<xsl:template match="/"><xsl:for-each select="//employee">'
            '<e><xsl:value-of select="name"/></e>'
            "</xsl:for-each></xsl:template>"
        )
        with make_cluster(db, storage, tmp_path) as cluster:
            a = cluster.transform("doc", EXAMPLE1_STYLESHEET)
            b = cluster.transform("doc", other)
            assert a.serialized_rows() != b.serialized_rows()
            assert len(cluster.artifact_store) == 2

    def test_invalidate_source_clears_both_tiers(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            for worker in (0, 1):
                cluster.transform_on(worker, "doc", EXAMPLE1_STYLESHEET)
            assert len(cluster.artifact_store) == 1
            cluster.invalidate("doc")
            assert len(cluster.artifact_store) == 0
            refreshed = cluster.transform_on(0, "doc", EXAMPLE1_STYLESHEET)
            assert refreshed.cache_tier == "miss"


class TestCrossProcessInvalidation:
    def test_analyze_on_one_worker_evicts_in_all(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            # warm both workers' tier-1 caches
            for worker in (0, 1):
                cluster.transform_on(worker, "doc", EXAMPLE1_STYLESHEET)
            assert all(w["cache"]["size"] == 1
                       for w in cluster.worker_stats())

            # ANALYZE in worker 0 only: bumps its stats_version, which
            # bumps the shared epoch
            replies = cluster.analyze(worker=0)
            assert replies[0]["stats_version"]["after"] > \
                replies[0]["stats_version"]["before"]
            assert replies[0]["epoch"] == 1
            assert replies[0]["evicted"] == 1

            # worker 1 notices the epoch on its next request and evicts
            # its (never-ANALYZEd) entry before serving
            cluster.transform_on(1, "doc", EXAMPLE1_STYLESHEET)
            per_worker = {w["worker"]: w for w in cluster.worker_stats()}
            assert per_worker[1]["epoch"] == 1
            evictions = per_worker[1]["cache"]["evictions"]
            assert evictions.get(EVICT_STALE_STATS) == 1

    def test_broadcast_analyze_reaches_every_worker(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            replies = cluster.analyze()
            assert len(replies) == 2
            assert all(r["stats_version"]["after"] >= 1 for r in replies)


class TestTraceStitching:
    def test_one_connected_trace_across_the_process_boundary(
            self, tmp_path):
        db, storage = make_storage()
        trace_id = "ab" * 16
        upstream_span = "cd" * 8
        with make_cluster(db, storage, tmp_path) as cluster:
            with use_trace_context(TraceContext(trace_id, upstream_span)):
                result = cluster.transform("doc", EXAMPLE1_STYLESHEET)
            assert result.trace_id == trace_id
            record = cluster.recorder.get(trace_id)
        spans = {span["name"]: span for span in record.spans}
        assert all(span["trace_id"] == trace_id
                   for span in record.spans)
        dispatcher = spans["cluster.request"]
        worker_root = spans["cluster.worker"]
        # upstream -> dispatcher -> worker: parent links all the way up
        assert dispatcher["parent_id"] == upstream_span
        assert worker_root["parent_id"] == dispatcher["span_id"]
        assert "serve.execute" in spans

    def test_minted_trace_still_connected(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            result = cluster.transform("doc", EXAMPLE1_STYLESHEET)
            record = cluster.recorder.get(result.trace_id)
        spans = {span["name"]: span for span in record.spans}
        assert spans["cluster.worker"]["parent_id"] == \
            spans["cluster.request"]["span_id"]


class TestWorkerDeath:
    @staticmethod
    def kill(cluster, worker):
        process = cluster._backend._handles[worker].process
        process.terminate()
        process.join(timeout=10)
        assert not process.is_alive()

    def test_worker_failure_surfaces_and_degrades(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            self.kill(cluster, 0)
            with pytest.raises(ClusterWorkerError):
                cluster.transform_on(0, "doc", EXAMPLE1_STYLESHEET)
            assert cluster.health()["status"] == "degraded"
            # the surviving worker still serves
            result = cluster.transform_on(1, "doc", EXAMPLE1_STYLESHEET)
            assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_dead_worker_does_not_eat_the_queue(self, tmp_path):
        """A dead worker's dispatcher stops pulling from the shared
        queue: everything queued after the death goes to the survivor."""
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_cluster(db, storage, tmp_path, metrics=metrics) as cluster:
            self.kill(cluster, 0)
            futures = [cluster.submit("doc", EXAMPLE1_STYLESHEET)
                       for _ in range(50)]
            for future in futures:
                result = future.result(timeout=30)
                assert result.worker == 1
                assert result.serialized_rows() == [EXPECTED_ROW1,
                                                    EXPECTED_ROW2]
            body = cluster.health()
            assert body["status"] == "degraded"
            assert body["workers"] == 1
            assert metrics.counter_total("serve.errors") == 0
            assert metrics.counter("cluster.worker_failures").value == 1

    def test_no_worker_alive_fails_fast(self, tmp_path):
        """With every worker dead, queued requests and new submissions
        fail with ClusterWorkerError instead of waiting forever."""
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_cluster(db, storage, tmp_path, metrics=metrics) as cluster:
            for worker in (0, 1):
                self.kill(cluster, worker)
            queued = [cluster.submit("doc", EXAMPLE1_STYLESHEET)
                      for _ in range(10)]
            for future in queued:
                with pytest.raises(ClusterWorkerError):
                    future.result(timeout=10)
            assert cluster.health()["workers"] == 0
            with pytest.raises(ClusterWorkerError):
                cluster.submit("doc", EXAMPLE1_STYLESHEET)
            assert metrics.counter(
                "serve.rejected", reason="no-workers"
            ).value == 1


class TestAggregation:
    def test_stats_merges_worker_metrics(self, tmp_path):
        db, storage = make_storage()
        with make_cluster(db, storage, tmp_path) as cluster:
            for worker in (0, 1):
                cluster.transform_on(worker, "doc", EXAMPLE1_STYLESHEET)
            stats = cluster.stats()
            assert stats["workers"] == 2
            assert stats["workers_alive"] == 2
            merged = stats["metrics"]["counters"]
            # one real compile + one disk load, summed across workers
            assert merged["serve.cache.disk.puts"] == 1
            assert merged["serve.cache.disk.hits"] == 1
            assert len(stats["per_worker"]) == 2

    def test_soak_smoke(self, tmp_path):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        results, errors = [], []
        with make_cluster(db, storage, tmp_path, metrics=metrics) as cluster:
            def client():
                for _ in range(5):
                    try:
                        results.append(
                            cluster.transform("doc", EXAMPLE1_STYLESHEET))
                    except Exception as exc:  # collected, asserted below
                        errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        assert errors == []
        assert len(results) == 10
        assert any(result.cache_hit for result in results)
        assert all(result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]
                   for result in results)
        assert metrics.counter_total("serve.errors") == 0


class TestEngineIntegration:
    def test_engine_workers_one_builds_thread_service(self):
        db, storage = make_storage()
        service = Engine(db).serve()
        try:
            assert isinstance(service, TransformService)
            assert service.cache is not None  # the plan runtime is local
            assert [reply["pid"] for reply in service.ping()] \
                == [os.getpid()]
        finally:
            service.close()

    def test_engine_workers_n_builds_cluster(self, tmp_path):
        db, storage = make_storage()
        cluster = Engine(db, workers=2).serve(
            sources={"doc": storage},
            artifact_dir=str(tmp_path / "plans"),
            metrics=MetricsRegistry(),
        )
        try:
            assert isinstance(cluster, TransformService)
            assert cluster.cache is None  # the runtimes live in the workers
            assert os.getpid() not in {r["pid"] for r in cluster.ping()}
            result = cluster.transform("doc", EXAMPLE1_STYLESHEET)
            assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]
        finally:
            cluster.close()

    def test_engine_rejects_zero_workers(self):
        db, _ = make_storage()
        with pytest.raises(ValueError):
            Engine(db, workers=0)
