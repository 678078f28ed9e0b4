"""Tests for TransformService.transform_stream: cache interplay and
equivalence with the materialized serving path."""

import pytest

from repro.api import TransformOptions
from repro.core import STRATEGY_FUNCTIONAL, STRATEGY_SQL
from repro.obs import MetricsRegistry
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import ServiceClosedError, TransformService
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
    storage.load(parse_document(DEPT_DOC_2))
    return db, storage


def make_service(db, **kwargs):
    kwargs.setdefault("metrics", MetricsRegistry())
    return TransformService(db, **kwargs)


class TestServiceStreaming:
    def test_stream_matches_materialized_request(self):
        db, storage = make_storage()
        with make_service(db) as service:
            materialized = service.transform(storage, EXAMPLE1_STYLESHEET)
            stream = service.transform_stream(storage, EXAMPLE1_STYLESHEET)
            text = stream.text()
        assert stream.strategy == STRATEGY_SQL
        assert text == "".join(materialized.serialized_rows())
        assert stream.stats.docs_materialized == 0

    def test_stream_shares_plan_cache(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        with make_service(db, metrics=metrics) as service:
            # materialized request compiles; the stream must hit
            service.transform(storage, EXAMPLE1_STYLESHEET)
            service.transform_stream(storage, EXAMPLE1_STYLESHEET).text()
        counters = metrics.snapshot()["counters"]
        assert counters["serve.stream_requests"] == 1
        assert counters["serve.stream_cache{cache=hit}"] == 1
        assert counters["transform.rewrite_attempts"] == 1

    def test_stream_populates_cache_for_later_requests(self):
        db, storage = make_storage()
        with make_service(db) as service:
            service.transform_stream(storage, EXAMPLE1_STYLESHEET).text()
            warm = service.transform(storage, EXAMPLE1_STYLESHEET)
        assert warm.cache_hit

    def test_functional_stream_through_options(self):
        db, storage = make_storage()
        with make_service(db) as service:
            materialized = service.transform(
                storage, EXAMPLE1_STYLESHEET,
                options=TransformOptions(strategy="functional"),
            )
            stream = service.transform_stream(
                storage, EXAMPLE1_STYLESHEET,
                options=TransformOptions(strategy="functional"),
            )
            text = stream.text()
        assert stream.strategy == STRATEGY_FUNCTIONAL
        assert text == "".join(materialized.serialized_rows())

    def test_closed_service_rejects_stream(self):
        db, storage = make_storage()
        service = make_service(db)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.transform_stream(storage, EXAMPLE1_STYLESHEET)

    def test_chunk_chars_option_respected(self):
        db, storage = make_storage()
        with make_service(db) as service:
            reference = service.transform_stream(
                storage, EXAMPLE1_STYLESHEET
            ).text()
            stream = service.transform_stream(
                storage, EXAMPLE1_STYLESHEET,
                options=TransformOptions(chunk_chars=64),
            )
            chunks = list(stream)
        assert len(chunks) > 1
        assert "".join(chunks) == reference
