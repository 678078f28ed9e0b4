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


class _ExplodingQuery:
    """Stand-in for an optimized plan that fails at run time."""

    def execute(self, db, env=None, stats=None, batch_size=None):
        raise RewriteError("simulated runtime rewrite failure")


class TestRunTimeFallback:
    def test_execute_phase_distinguished(self, monkeypatch):
        tracer, metrics = fresh_obs()
        db = make_database()
        monkeypatch.setattr(
            Database, "optimize",
            lambda self, query, **kwargs: _ExplodingQuery(),
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
            lambda self, query, **kwargs: _ExplodingQuery(),
        )
        result = xml_transform(db, dept_emp_view_query(),
                               EXAMPLE1_STYLESHEET,
                               tracer=tracer, metrics=metrics)
        assert len(result.rows) == 2  # both departments, functionally


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
