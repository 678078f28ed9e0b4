"""The silent-fallback fix: categorized, counted, logged fallbacks.

Compile-time failures (unsupported constructs, structureless sources) and
run-time failures (a RewriteError escaping plan execution) must be
distinguishable on the result, in the fallback counter labels and in the
warning the obs layer emits.
"""

import logging

import pytest

from repro.core import STRATEGY_FUNCTIONAL, xml_transform
from repro.core.transform import categorize_fallback
from repro.errors import RewriteError
from repro.obs import MetricsRegistry, Tracer
from repro.rdb import Database
from repro.rdb.storage import ClobStorage
from repro.xmlmodel import parse_document

from tests.core.paper_example import (
    DEPT_DOC_1,
    EXAMPLE1_STYLESHEET,
    dept_emp_view_query,
    make_database,
)
from tests.obs.fakes import ExplodingQuery

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'

UNSUPPORTED_SHEET = (
    '<xsl:stylesheet version="1.0" %s>'
    '<xsl:template match="emp"><i><xsl:number value="42"/></i>'
    "</xsl:template></xsl:stylesheet>" % XSL
)


def fresh_obs():
    return Tracer(), MetricsRegistry()


class TestCompileTimeFallback:
    def test_reason_is_categorized_and_phased(self):
        tracer, metrics = fresh_obs()
        db = make_database()
        result = xml_transform(db, dept_emp_view_query(), UNSUPPORTED_SHEET,
                               tracer=tracer, metrics=metrics)
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.fallback_phase == "compile"
        assert result.fallback_category == "unsupported-construct"
        assert result.fallback_reason.startswith("compile: ")

    def test_fallback_counter_incremented(self):
        tracer, metrics = fresh_obs()
        db = make_database()
        xml_transform(db, dept_emp_view_query(), UNSUPPORTED_SHEET,
                      tracer=tracer, metrics=metrics)
        counter = metrics.counter("transform.fallback", phase="compile",
                                  reason="unsupported-construct")
        assert counter.value == 1
        assert metrics.counter("transform.rewrite_attempts").value == 1
        assert metrics.counter("transform.rewrite_success").value == 0

    def test_success_does_not_touch_fallback_counter(self):
        tracer, metrics = fresh_obs()
        db = make_database()
        xml_transform(db, dept_emp_view_query(), EXAMPLE1_STYLESHEET,
                      tracer=tracer, metrics=metrics)
        assert metrics.counter_total("transform.fallback") == 0
        assert metrics.counter("transform.rewrite_success").value == 1

    def test_warning_emitted_via_obs_logger(self, caplog):
        tracer, metrics = fresh_obs()
        db = make_database()
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            xml_transform(db, dept_emp_view_query(), UNSUPPORTED_SHEET,
                          tracer=tracer, metrics=metrics)
        messages = [record.getMessage() for record in caplog.records]
        assert any("falling back to functional evaluation" in message
                   and "phase=compile" in message for message in messages)

    def test_clob_source_categorized_as_no_structure(self):
        tracer, metrics = fresh_obs()
        db = Database()
        storage = ClobStorage(db, "c")
        storage.load(parse_document(DEPT_DOC_1))
        result = xml_transform(db, storage, EXAMPLE1_STYLESHEET,
                               tracer=tracer, metrics=metrics)
        assert result.fallback_phase == "compile"
        assert result.fallback_category == "no-structure"
        assert metrics.counter(
            "transform.fallback", phase="compile", reason="no-structure"
        ).value == 1

    def test_trace_records_the_failed_stage(self):
        tracer, metrics = fresh_obs()
        db = make_database()
        result = xml_transform(db, dept_emp_view_query(), UNSUPPORTED_SHEET,
                               tracer=tracer, metrics=metrics)
        failed = result.trace.find("compile.xquery-gen")
        assert failed is not None
        assert failed.status == "error"
        assert "NumberInstr" in failed.error
        # the fallback annotates the root span too
        assert result.trace.attrs["fallback_phase"] == "compile"


class TestRunTimeFallback:
    def test_execute_phase_distinguished(self, monkeypatch):
        tracer, metrics = fresh_obs()
        db = make_database()
        monkeypatch.setattr(
            Database, "optimize",
            lambda self, query, **kwargs: ExplodingQuery(),
        )
        result = xml_transform(db, dept_emp_view_query(),
                               EXAMPLE1_STYLESHEET,
                               tracer=tracer, metrics=metrics)
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.fallback_phase == "execute"
        assert result.fallback_category == "execute"
        assert result.fallback_reason.startswith("execute: ")
        assert metrics.counter(
            "transform.fallback", phase="execute", reason="execute"
        ).value == 1

    def test_runtime_fallback_still_produces_rows(self, monkeypatch):
        tracer, metrics = fresh_obs()
        db = make_database()
        monkeypatch.setattr(
            Database, "optimize",
            lambda self, query, **kwargs: ExplodingQuery(),
        )
        result = xml_transform(db, dept_emp_view_query(),
                               EXAMPLE1_STYLESHEET,
                               tracer=tracer, metrics=metrics)
        assert len(result.rows) == 2  # both departments, functionally


class TestRunTimeFallbackDoors:
    """The execute-phase fallback is one routine behind two doors; the
    only thing a door decides is whether its consumer has already seen
    output when the plan fails."""

    def doors(self, monkeypatch, good_batches):
        """Both doors over a plan that fails after ``good_batches``
        rows: ``(metrics, run materialised, open stream)``."""
        from repro.api import Engine, TransformOptions

        tracer, metrics = fresh_obs()
        monkeypatch.setattr(
            Database, "optimize",
            lambda self, query, **kwargs: ExplodingQuery(good_batches),
        )
        engine = Engine(make_database(), tracer=tracer, metrics=metrics)
        options = TransformOptions(chunk_chars=1)
        source = dept_emp_view_query()
        return (
            metrics,
            lambda: engine.transform(source, EXAMPLE1_STYLESHEET,
                                     options=options),
            lambda: engine.transform_stream(source, EXAMPLE1_STYLESHEET,
                                            options=options),
        )

    def fallbacks(self, metrics):
        return metrics.counter("transform.fallback", phase="execute",
                               reason="execute").value

    @pytest.mark.parametrize("good_batches", [0, 1])
    def test_materialised_door_always_retries(self, monkeypatch,
                                              good_batches):
        metrics, transform, _ = self.doors(monkeypatch, good_batches)
        result = transform()
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.fallback_phase == "execute"
        # rows the plan produced before failing never leave the call
        assert len(result.rows) == 2
        assert "<row" not in "".join(result.serialized_rows())
        assert self.fallbacks(metrics) == 1

    def test_stream_door_retries_before_first_chunk(self, monkeypatch):
        metrics, transform, transform_stream = self.doors(monkeypatch, 0)
        stream = transform_stream()
        text = stream.text()
        assert self.fallbacks(metrics) == 1
        result = transform()
        assert text == "".join(result.serialized_rows())
        for field in ("strategy", "fallback_phase", "fallback_category",
                      "fallback_reason", "vm_stats", "executed_query",
                      "plan_profile"):
            assert getattr(stream, field) == getattr(result, field), field
        assert stream.trace.attrs == result.trace.attrs
        assert stream.trace.attrs["fallback_phase"] == "execute"
        for view in (stream, result):
            failed = view.trace.find("plan.execute")
            assert failed.status == "error"
            assert view.trace.find("functional.execute").status == "ok"

    def test_stream_door_propagates_after_first_chunk(self, monkeypatch):
        metrics, _, transform_stream = self.doors(monkeypatch, 1)
        stream = transform_stream()
        chunks = [next(stream)]
        with pytest.raises(RewriteError) as raised:
            chunks.extend(stream)
        assert raised.value.phase == "execute"
        # the consumer holds plan output: no silent strategy switch,
        # nothing emitted twice, no fallback counted
        assert chunks == ["<row n='0'/>"]
        assert list(stream) == []
        assert stream.fallback_reason is None
        assert self.fallbacks(metrics) == 0
        assert stream.trace.find("functional.execute") is None
        assert stream.trace.status == "error"


class TestCategorize:
    @pytest.mark.parametrize("exc,expected", [
        (RewriteError("X carries no structural information for the rewrite"),
         "no-structure"),
        (RewriteError("boom", phase="execute"), "execute"),
        (RewriteError("partial evaluation failed on the sample document: x",
                      stage="partial-eval"), "partial-eval"),
        (RewriteError("NumberInstr cannot be rewritten", stage="xquery-gen"),
         "unsupported-construct"),
        (RewriteError("mystery", stage="sql-merge"), "sql-merge"),
        (RewriteError("mystery"), "other"),
    ])
    def test_categories(self, exc, expected):
        assert categorize_fallback(exc) == expected
