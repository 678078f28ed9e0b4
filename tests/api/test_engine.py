"""Engine behaviour: the facade's verbs agree with the legacy doors."""

from repro.api import Engine, TransformOptions
from repro.core import (
    STRATEGY_FUNCTIONAL,
    STRATEGY_SQL,
    CompiledTransform,
    xml_transform,
)
from repro.obs import MetricsRegistry, Tracer, InMemorySink
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document

from ..core.paper_example import (
    DEPT_DTD,
    DEPT_DOC_1,
    DEPT_DOC_2,
    EXAMPLE1_STYLESHEET,
    EXPECTED_ROW1,
    EXPECTED_ROW2,
)


def make_storage(docs=(DEPT_DOC_1, DEPT_DOC_2), name="xd", db=None):
    db = db or Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), name,
        column_types={"sal": INT, "empno": INT},
    )
    for doc in docs:
        storage.load(parse_document(doc))
    return db, storage


class TestTransform:
    def test_matches_xml_transform(self):
        db, storage = make_storage()
        via_engine = Engine(db).transform(storage, EXAMPLE1_STYLESHEET)
        via_legacy = xml_transform(db, storage, EXAMPLE1_STYLESHEET)
        assert via_engine.strategy == via_legacy.strategy == STRATEGY_SQL
        assert via_engine.serialized_rows() == via_legacy.serialized_rows()
        assert via_engine.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_rewrite_false_forces_functional(self):
        db, storage = make_storage()
        result = Engine(db).transform(
            storage, EXAMPLE1_STYLESHEET,
            options=TransformOptions(strategy="functional"),
        )
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.serialized_rows() == [EXPECTED_ROW1, EXPECTED_ROW2]

    def test_carries_trace_and_metrics(self):
        db, storage = make_storage()
        metrics = MetricsRegistry()
        tracer = Tracer(sinks=[InMemorySink()])
        engine = Engine(db, tracer=tracer, metrics=metrics)
        result = engine.transform(storage, EXAMPLE1_STYLESHEET)
        assert result.trace is not None
        assert result.trace.name == "xml_transform"
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["transform.rewrite_attempts"] == 1


class TestCompileExecute:
    def test_compiled_artifact_reusable(self):
        db, storage = make_storage()
        engine = Engine(db)
        compiled = engine.compile(storage, EXAMPLE1_STYLESHEET)
        assert isinstance(compiled, CompiledTransform)
        assert compiled.strategy == STRATEGY_SQL
        first = engine.execute(storage, compiled)
        second = engine.execute(storage, compiled)
        assert first.serialized_rows() == second.serialized_rows()

    def test_compile_rewrite_false_is_functional_artifact(self):
        db, storage = make_storage()
        compiled = Engine(db).compile(
            storage, EXAMPLE1_STYLESHEET,
            options=TransformOptions(strategy="functional"),
        )
        assert compiled.strategy == STRATEGY_FUNCTIONAL
        assert compiled.error is None


class TestStream:
    def test_stream_matches_materialized(self):
        db, storage = make_storage()
        engine = Engine(db)
        materialized = engine.transform(storage, EXAMPLE1_STYLESHEET)
        stream = engine.transform_stream(storage, EXAMPLE1_STYLESHEET)
        assert stream.text() == "".join(materialized.serialized_rows())
        assert stream.strategy == STRATEGY_SQL
        assert stream.stats.docs_materialized == 0

    def test_functional_stream_matches(self):
        db, storage = make_storage()
        engine = Engine(db)
        opts = TransformOptions(strategy="functional")
        materialized = engine.transform(storage, EXAMPLE1_STYLESHEET,
                                        options=opts)
        stream = engine.transform_stream(storage, EXAMPLE1_STYLESHEET,
                                         options=opts)
        assert stream.text() == "".join(materialized.serialized_rows())
        assert stream.strategy == STRATEGY_FUNCTIONAL


class TestTransformMany:
    def test_results_in_order_and_equal_to_singles(self):
        db, storage_a = make_storage(docs=(DEPT_DOC_1,), name="a")
        _, storage_b = make_storage(docs=(DEPT_DOC_2,), name="b", db=db)
        engine = Engine(db)
        results = engine.transform_many(
            [storage_a, storage_b], EXAMPLE1_STYLESHEET
        )
        assert [r.serialized_rows() for r in results] == [
            engine.transform(s, EXAMPLE1_STYLESHEET).serialized_rows()
            for s in (storage_a, storage_b)
        ]

    def test_same_shape_compiles_once(self):
        metrics = MetricsRegistry()
        dbs = []
        for n in range(5):
            db, storage = make_storage(docs=(DEPT_DOC_1,), name="xd")
            dbs.append((db, storage))
        engine = Engine(dbs[0][0], metrics=metrics)
        results = engine.transform_many(dbs, EXAMPLE1_STYLESHEET)
        assert len(results) == 5
        assert all(r.strategy == STRATEGY_SQL for r in results)
        snapshot = metrics.snapshot()
        # one compile amortized over five same-shaped sources
        assert snapshot["counters"]["transform.rewrite_attempts"] == 1


class TestExplain:
    def test_explain_renders_without_executing(self):
        db, storage = make_storage()
        text = Engine(db).explain(storage, EXAMPLE1_STYLESHEET)
        assert "strategy: sql-rewrite" in text
        assert "rewrite decisions:" in text
        assert "plan:" in text
        assert "actual" not in text

    def test_explain_analyze_includes_actuals(self):
        db, storage = make_storage()
        text = Engine(db).explain(storage, EXAMPLE1_STYLESHEET, analyze=True)
        assert "actual" in text
