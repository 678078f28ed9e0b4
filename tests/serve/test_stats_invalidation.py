"""ANALYZE and the serve plan cache: statistics changes must invalidate
compiled plans so a request never runs a plan chosen for stale stats.

The cache key carries the database's statistics version, so a plan
compiled before an ANALYZE (or before DML invalidated cached stats) is
simply never looked up again — the next request recompiles against the
fresh statistics.
"""

from repro.obs import MetricsRegistry
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
)


def make_storage():
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    return db, storage


def make_service(db, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return TransformService(db, **kwargs)


class TestAnalyzeInvalidatesPlanCache:
    def test_analyze_forces_recompile(self):
        db, storage = make_storage()
        with make_service(db) as service:
            cold = service.transform(storage, EXAMPLE1_STYLESHEET)
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert not cold.cache_hit and warm.cache_hit

            db.analyze()  # new statistics -> stale plan must not be served
            recompiled = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert not recompiled.cache_hit
            assert recompiled.serialized_rows() == cold.serialized_rows()

            again = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert again.cache_hit  # the fresh plan is cached normally

    def test_dml_on_analyzed_table_forces_recompile(self):
        db, storage = make_storage()
        db.analyze()
        with make_service(db) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert warm.cache_hit

            # loading another document INSERTs into analyzed tables,
            # dropping their cached statistics -> version bump -> miss
            storage.load(parse_document(DEPT_DOC_2))
            after = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert not after.cache_hit

    def test_dml_without_statistics_keeps_cache_warm(self):
        # never-ANALYZEd databases behave exactly as before the stats
        # subsystem existed: DML does not churn the plan cache
        db, storage = make_storage()
        with make_service(db) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            storage.load(parse_document(DEPT_DOC_2))
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
            assert warm.cache_hit

    def test_distinct_optimizer_levels_cache_separately(self):
        from repro.api import TransformOptions

        db, storage = make_storage()
        with make_service(db) as service:
            service.transform(storage, EXAMPLE1_STYLESHEET)
            other_level = service.transform(
                storage, EXAMPLE1_STYLESHEET,
                options=TransformOptions(optimizer_level="off"),
            )
            assert not other_level.cache_hit
            same_as_default = service.transform(
                storage, EXAMPLE1_STYLESHEET,
                options=TransformOptions(optimizer_level="cost"),
            )
            assert same_as_default.cache_hit
