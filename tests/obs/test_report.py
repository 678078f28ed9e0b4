"""The acceptance surface: ``xml_transform(...).report()`` shows the full
span tree (three compile stages + plan execution) with timings, and the
functional path reports its VM counters."""

import re

from repro.core import STRATEGY_FUNCTIONAL, STRATEGY_SQL, xml_transform
from repro.obs import InMemorySink, MetricsRegistry, Tracer

from tests.core.paper_example import (
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


def run(stylesheet, tracer=None):
    db = make_database()
    return xml_transform(db, dept_emp_view_query(), stylesheet,
                         tracer=tracer or Tracer(),
                         metrics=MetricsRegistry())


class TestRewriteReport:
    def test_span_tree_has_all_stages_with_timings(self):
        result = run(EXAMPLE1_STYLESHEET)
        assert result.strategy == STRATEGY_SQL
        report = result.report()
        for stage in ("xml_transform", "compile.partial-eval",
                      "compile.xquery-gen", "compile.sql-merge",
                      "plan.execute"):
            assert stage in report, report
        # every span line carries a wall-time in ms
        assert len(re.findall(r"\d+\.\d{3} ms", report)) >= 5

    def test_trace_object_nests_stages_under_compile(self):
        result = run(EXAMPLE1_STYLESHEET)
        compile_span = result.trace.find("compile")
        names = [child.name for child in compile_span.children]
        assert names == ["compile.infer-structure", "compile.partial-eval",
                         "compile.xquery-gen", "compile.sql-merge"]
        assert result.trace.find("plan.execute").parent is result.trace

    def test_stage_attrs_surface_paper_counters(self):
        result = run(EXAMPLE1_STYLESHEET)
        partial = result.trace.find("compile.partial-eval")
        assert partial.attrs["templates_total"] == 6
        assert partial.attrs["templates_pruned"] == 1  # text() never fires
        generation = result.trace.find("compile.xquery-gen")
        assert generation.attrs["templates_inlined"] > 0
        assert generation.attrs["inline_mode"] is True

    def test_report_contains_explain_analyze(self):
        result = run(EXAMPLE1_STYLESHEET)
        report = result.report()
        assert "plan:" in report
        assert "actual rows=" in report
        # one plan tree, one stats line: report() formats explain()'s
        # sections, it does not render a second copy beside them
        assert report.count("QUERY outputs=") == 1
        assert "rewrite decisions:" not in report
        assert result.plan_profile is not None
        assert result.executed_query is not None

    def test_stats_line_present(self):
        result = run(EXAMPLE1_STYLESHEET)
        assert result.report().count("Execution: ") == 1
        assert "elapsed_seconds=" in result.report()

    def test_spans_reach_sinks(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        run(EXAMPLE1_STYLESHEET, tracer=tracer)
        assert [root.name for root in sink.roots] == ["xml_transform"]
        names = {span.name for span in sink.spans}
        assert "compile.sql-merge" in names


class TestFallbackReport:
    def test_fallback_visible_in_report(self):
        result = run(UNSUPPORTED_SHEET)
        assert result.strategy == STRATEGY_FUNCTIONAL
        report = result.report()
        assert "fallback: compile: " in report
        assert "fallback-category: unsupported-construct" in report
        # the failed stage is visible in the trace with its error
        assert "!RewriteError" in report
        assert "functional.execute" in report

    def test_functional_vm_counters_reported(self):
        result = run(UNSUPPORTED_SHEET)
        assert result.vm_stats["templates_dispatched"] > 0
        report = result.report()
        assert "instructions_executed=" in report
        assert "templates_dispatched=" in report
        assert "docs_materialized=2" in report


class TestDisabledTracing:
    def test_report_still_works_without_trace(self):
        db = make_database()
        result = xml_transform(db, dept_emp_view_query(),
                               EXAMPLE1_STYLESHEET,
                               tracer=Tracer(enabled=False),
                               metrics=MetricsRegistry())
        assert result.trace is None
        assert result.plan_profile is None
        report = result.report()
        assert report.startswith("strategy: sql-rewrite")
        assert "trace:" not in report
