"""EXPLAIN REWRITE: the rewrite-decision provenance ledger.

Every partial-evaluation/rewrite decision the compiler makes (§3.3–3.7,
§4.3/4.4) must land in the :class:`DecisionLedger` with source
provenance — XSLT template + stylesheet line, generated XQuery fragment,
SQL plan node — and the ledger must export to JSON.
"""

import json

from repro.core import xml_transform
from repro.core.pipeline import XsltRewriter
from repro.core.xquery_gen import RewriteOptions
from repro.obs import DecisionLedger
from repro.obs.decisions import (
    BACKWARD_STEP,
    BUILTIN_COMPACTION,
    CARDINALITY,
    TEMPLATE_DISPATCHED,
    TEMPLATE_INLINED,
    TEMPLATE_INSTANTIATED,
    TEMPLATE_PRUNED,
)

from tests.core.paper_example import (
    EXAMPLE1_STYLESHEET,
    dept_emp_view_query,
    make_database,
)

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'

# Multi-step match patterns exercise §3.5 backward-test removal: the
# compiled pattern for employees/emp climbs parent::employees, which the
# structural schema proves redundant.
BACKWARD_SHEET = """<?xml version="1.0"?>
<xsl:stylesheet version="1.0" %s>
<xsl:template match="dept">
  <out><xsl:apply-templates select="employees/emp"/></out>
</xsl:template>
<xsl:template match="employees/emp">
  <e><xsl:value-of select="ename"/></e>
</xsl:template>
</xsl:stylesheet>""" % XSL

EMPTY_SHEET = ('<xsl:stylesheet version="1.0" %s></xsl:stylesheet>' % XSL)


def transform_ledger(stylesheet=EXAMPLE1_STYLESHEET):
    db = make_database()
    result = xml_transform(db, dept_emp_view_query(), stylesheet)
    assert result.strategy == "sql-rewrite"
    return result


def compile_ledger(stylesheet=EXAMPLE1_STYLESHEET, options=None):
    rewriter = XsltRewriter(options=options)
    return rewriter.rewrite_view(stylesheet, dept_emp_view_query()).ledger


class TestDecisionKinds:
    def test_paper_example_records_four_kinds(self):
        result = transform_ledger()
        kinds = set(result.ledger.kinds())
        assert {TEMPLATE_INSTANTIATED, TEMPLATE_PRUNED, TEMPLATE_INLINED,
                CARDINALITY} <= kinds

    def test_backward_step_removal_recorded_with_evidence(self):
        result = transform_ledger(BACKWARD_SHEET)
        removals = result.ledger.decisions_of(kind=BACKWARD_STEP)
        assert removals, "multi-step pattern must record a backward-step"
        decision = removals[0]
        assert decision.subject == "employees/emp"
        assert decision.action == "removed"
        assert decision.detail["steps_removed"] == 1
        assert "parent::employees" in decision.detail["removed_tests"]
        assert decision.section == "3.5"

    def test_cardinality_for_vs_let_carries_occurrence_facts(self):
        result = transform_ledger()
        cardinality = result.ledger.decisions_of(kind=CARDINALITY)
        by_action = {d.subject: d for d in cardinality}
        emp = by_action["emp"]
        assert emp.action == "FOR"
        assert emp.detail["occurs"] in ("*", "+")
        singles = [d for d in cardinality if d.action == "LET"]
        assert singles, "single-occurrence children must bind with LET"
        for decision in singles:
            assert decision.detail["occurs"] in ("1", "?", None, "single") \
                or decision.reason

    def test_pruned_template_has_no_sql_provenance(self):
        result = transform_ledger()
        pruned = result.ledger.decisions_of(kind=TEMPLATE_PRUNED)
        assert pruned, "the text() template never fires on the sample"
        for decision in pruned:
            assert decision.provenance.sql_node_id is None

    def test_dispatched_when_inlining_disabled(self):
        from repro.rdb.infer import infer_view_structure

        rewriter = XsltRewriter(
            options=RewriteOptions(inline_templates=False))
        structure = infer_view_structure(dept_emp_view_query())
        outcome = rewriter.rewrite_to_xquery(
            EXAMPLE1_STYLESHEET, structure.schema)
        dispatched = outcome.ledger.decisions_of(kind=TEMPLATE_DISPATCHED)
        assert dispatched
        assert any("disabled" in (d.reason or "") for d in dispatched)

    def test_builtin_compaction_on_builtin_only_stylesheet(self):
        ledger = compile_ledger(EMPTY_SHEET)
        compactions = ledger.decisions_of(kind=BUILTIN_COMPACTION)
        assert compactions
        assert compactions[0].action == "string-join"


class TestProvenance:
    def test_every_decision_names_its_stage(self):
        result = transform_ledger(BACKWARD_SHEET)
        for decision in result.ledger:
            assert decision.stage in DecisionLedger.STAGES

    def test_template_decisions_carry_xslt_source_lines(self):
        result = transform_ledger(BACKWARD_SHEET)
        with_templates = [
            d for d in result.ledger
            if d.kind in (TEMPLATE_INSTANTIATED, TEMPLATE_PRUNED,
                          TEMPLATE_INLINED, BACKWARD_STEP)
            and d.provenance.xslt is not None
        ]
        assert with_templates
        lines = [d.provenance.xslt["line"] for d in with_templates
                 if d.provenance.xslt.get("match") in
                 ("dept", "employees/emp")]
        assert lines and all(isinstance(line, int) for line in lines)
        # the two templates sit on different stylesheet lines
        assert len(set(lines)) >= 2

    def test_inline_decisions_carry_xquery_fragments(self):
        result = transform_ledger()
        inlined = result.ledger.decisions_of(kind=TEMPLATE_INLINED)
        assert inlined
        for decision in inlined:
            assert decision.provenance.xquery  # lazily rendered text

    def test_sql_plan_node_ids_attached_after_merge(self):
        result = transform_ledger()
        attached = [
            d for d in result.ledger
            if d.kind != TEMPLATE_PRUNED
        ]
        assert attached
        for decision in attached:
            assert decision.provenance.sql_node_id is not None
            assert decision.provenance.sql_label().startswith("#")

    def test_repeating_child_binds_to_subquery_plan_node(self):
        result = transform_ledger()
        emp = [d for d in result.ledger.decisions_of(kind=CARDINALITY)
               if d.subject == "emp"][0]
        root_ids = {
            d.provenance.sql_node_id
            for d in result.ledger.decisions_of(kind=TEMPLATE_INSTANTIATED)
        }
        # the FOR over emp lands in the correlated subquery, not the
        # main plan root
        assert emp.provenance.sql_node_id not in root_ids


class TestSurfaces:
    def test_compile_explain_returns_ledger_without_executing(self):
        ledger = compile_ledger()
        assert isinstance(ledger, DecisionLedger)
        assert len(ledger) > 0

    def test_result_explain_rewrite_interleaves_plan_and_decisions(self):
        result = transform_ledger()
        text = result.explain().render()
        assert "rewrite decisions:" in text
        assert "plan:" in text
        # decisions are anchored under their #n plan lines
        assert "<- [" in text
        assert "[template-inlined]" in text

    def test_result_explain_without_rewrite_omits_ledger(self):
        result = transform_ledger()
        text = result.explain(include_decisions=False).render()
        assert "rewrite decisions:" not in text

    def test_render_groups_by_stage(self):
        result = transform_ledger()
        lines = result.ledger.render()
        assert any(line.startswith("partial-eval") for line in lines)
        assert any(line.startswith("xquery-gen") for line in lines)


class TestExport:
    def test_export_is_json_parseable_with_counts(self):
        result = transform_ledger()
        record = json.loads(result.ledger.to_json())
        assert record["version"] == 1
        assert record["counts"] == result.ledger.counts()
        assert len(record["decisions"]) == len(result.ledger)
