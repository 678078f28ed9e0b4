"""Fallback-reason matrix: one non-rewritable stylesheet per stage.

Each compile stage (source structure, view inference, partial
evaluation, XQuery generation, SQL merge) and the execute phase has a
fixture that fails exactly there.  Every fallback must carry the right
``fallback_phase``/``fallback_category``/``fallback_reason``, still
produce rows functionally, and leave on the result the decision ledger
holding whatever the compiler decided *before* the failure point.
"""

import pytest

from repro.core import STRATEGY_FUNCTIONAL, xml_transform
from repro.obs import MetricsRegistry, Tracer
from repro.obs.decisions import PROJECTION
from repro.rdb import Database, Query, Scan
from repro.rdb.expressions import col, const
from repro.rdb.sqlxml import XMLElement
from repro.rdb.storage import ClobStorage
from repro.xmlmodel import parse_document
from repro.xmlmodel.builder import attr, elem

from tests.core.paper_example import (
    DEPT_DOC_1,
    EXAMPLE1_STYLESHEET,
    dept_emp_view_query,
    make_database,
)
from tests.obs.fakes import ExplodingQuery

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'

# partial-eval: terminates only on the synthetic sample document, whose
# placeholder text is non-numeric; real salaries are numbers, so the
# functional path sails through.
SAMPLE_POISON_SHEET = """<xsl:stylesheet version="1.0" %s>
<xsl:template match="emp">
  <xsl:if test="not(number(sal) &gt;= 0)">
    <xsl:message terminate="yes">non-numeric salary</xsl:message>
  </xsl:if>
  <e><xsl:value-of select="ename"/></e>
</xsl:template>
</xsl:stylesheet>""" % XSL

# xquery-gen: xsl:number has no XQuery translation.
NUMBER_SHEET = (
    '<xsl:stylesheet version="1.0" %s>'
    '<xsl:template match="emp"><i><xsl:number value="42"/></i>'
    "</xsl:template></xsl:stylesheet>" % XSL
)

# sql-merge: the XQuery generates, but substring-before() has no SQL
# translation, so the merge refuses.
SUBSTRING_SHEET = (
    '<xsl:stylesheet version="1.0" %s>'
    '<xsl:template match="dept">'
    "<d><xsl:value-of select=\"substring-before(dname, 'x')\"/></d>"
    "</xsl:template></xsl:stylesheet>" % XSL
)


def run(source_kind, stylesheet):
    tracer, metrics = Tracer(), MetricsRegistry()
    if source_kind == "clob":
        db = Database()
        source = ClobStorage(db, "c")
        source.load(parse_document(DEPT_DOC_1))
    elif source_kind == "flat-view":
        db = make_database()
        source = Query(Scan("dept"), [("dname", col("dname", "dept"))])
    else:
        db = make_database()
        source = dept_emp_view_query()
    result = xml_transform(db, source, stylesheet,
                           tracer=tracer, metrics=metrics)
    return result, metrics


CASES = [
    # (id, source, stylesheet, category, failed span, ledger stages)
    ("source-no-structure", "clob", EXAMPLE1_STYLESHEET,
     "no-structure", None, set()),
    ("infer-structure", "flat-view", EXAMPLE1_STYLESHEET,
     "infer-structure", "compile.infer-structure", set()),
    ("partial-eval", "view", SAMPLE_POISON_SHEET,
     "partial-eval", "compile.partial-eval", set()),
    ("xquery-gen", "view", NUMBER_SHEET,
     "unsupported-construct", "compile.xquery-gen",
     {"partial-eval", "xquery-gen"}),
    ("sql-merge", "view", SUBSTRING_SHEET,
     "sql-merge", "compile.sql-merge",
     {"partial-eval", "xquery-gen"}),
]


@pytest.mark.parametrize(
    "source_kind,stylesheet,category,failed_span,ledger_stages",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
class TestCompileStageMatrix:
    def test_phase_category_and_reason(self, source_kind, stylesheet,
                                       category, failed_span,
                                       ledger_stages):
        result, metrics = run(source_kind, stylesheet)
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.fallback_phase == "compile"
        assert result.fallback_category == category
        assert result.fallback_reason.startswith("compile: ")
        assert metrics.counter(
            "transform.fallback", phase="compile", reason=category
        ).value == 1

    def test_functional_path_still_produces_rows(self, source_kind,
                                                 stylesheet, category,
                                                 failed_span,
                                                 ledger_stages):
        result, _ = run(source_kind, stylesheet)
        assert result.rows, "fallback must still answer the query"

    def test_failed_stage_visible_in_trace(self, source_kind, stylesheet,
                                           category, failed_span,
                                           ledger_stages):
        result, _ = run(source_kind, stylesheet)
        if failed_span is None:
            return  # fails before any compile-stage span opens
        span = result.trace.find(failed_span)
        assert span is not None
        assert span.status == "error"

    def test_ledger_keeps_pre_failure_decisions(self, source_kind,
                                                stylesheet, category,
                                                failed_span, ledger_stages):
        result, _ = run(source_kind, stylesheet)
        assert result.ledger is not None, \
            "a fallback result still carries its (possibly empty) ledger"
        # the functional artifact's one projection decision comes after
        # the failure; none of these sources is stored by structure
        projection = result.ledger.decisions_of(PROJECTION)
        assert [decision.action for decision in projection] == ["full"]
        stages = {decision.stage for decision in result.ledger
                  if decision.kind != PROJECTION}
        assert stages == ledger_stages
        if "xquery-gen" in ledger_stages:
            # stages before the failure point really did record evidence
            assert result.ledger.decisions_of(stage="partial-eval")


class TestExecutePhase:
    def test_execute_fallback_keeps_full_compile_ledger(self, monkeypatch):
        tracer, metrics = Tracer(), MetricsRegistry()
        db = make_database()
        monkeypatch.setattr(
            Database, "optimize",
            lambda self, query, **kwargs: ExplodingQuery(),
        )
        result = xml_transform(db, dept_emp_view_query(),
                               EXAMPLE1_STYLESHEET,
                               tracer=tracer, metrics=metrics)
        assert result.fallback_phase == "execute"
        assert result.fallback_category == "execute"
        # compilation finished before execution failed: the whole
        # decision record survives on the fallback result
        assert result.ledger is not None
        stages = {decision.stage for decision in result.ledger}
        assert stages == {"partial-eval", "xquery-gen"}
        assert len(result.ledger) >= 4

    def test_attribute_node_in_content_falls_back_categorized(
            self, monkeypatch):
        """The front door renders text, which cannot splice an attribute
        node arriving as element content into an already-written start
        tag (the DOM path can).  That must be a categorized execute-phase
        fallback, never a bare DatabaseError."""
        tracer, metrics = Tracer(), MetricsRegistry()
        db = make_database()
        attribute = elem("e", attr("a", "v")).attributes[0]
        plan = Query(Scan("dept"),
                     [(None, XMLElement("out", const(attribute)))])
        monkeypatch.setattr(
            Database, "optimize", lambda self, query, **kwargs: plan,
        )
        result = xml_transform(db, dept_emp_view_query(),
                               EXAMPLE1_STYLESHEET,
                               tracer=tracer, metrics=metrics)
        assert result.strategy == STRATEGY_FUNCTIONAL
        assert result.fallback_phase == "execute"
        assert result.fallback_category == "execute"
        assert "attribute node" in result.fallback_reason
        assert result.rows, "fallback must still answer the query"
        assert metrics.counter(
            "transform.fallback", phase="execute", reason="execute"
        ).value == 1
