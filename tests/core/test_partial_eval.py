"""Tests for partial evaluation: predicate stripping, tracing, the
execution graph and the inline/non-inline classification."""

import pytest

from repro.errors import RewriteError
from repro.schema import schema_from_dtd
from repro.xpath.parser import parse_xpath
from repro.xpath.patterns import parse_pattern
from repro.xslt import compile_stylesheet
from repro.core.partial_eval import partially_evaluate

from .paper_example import DEPT_DTD, EXAMPLE1_STYLESHEET

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


def pe(body_or_sheet, dtd=DEPT_DTD):
    text = body_or_sheet
    if "<xsl:stylesheet" not in text:
        text = sheet(text)
    return partially_evaluate(compile_stylesheet(text), schema_from_dtd(dtd))


class TestStripPredicates:
    """``without_predicates()``: the §4.3 "predicates assumed true" form
    every expression and pattern node makes of itself."""

    def test_step_predicates_removed(self):
        expr = parse_xpath("emp[sal > 2000]").without_predicates()
        assert expr.to_text() == "emp"

    def test_nested_path_predicates_removed(self):
        expr = parse_xpath("a[x]/b[y][1]/c").without_predicates()
        assert expr.to_text() == "a/b/c"

    def test_filter_expr_unwrapped(self):
        expr = parse_xpath("$v[2]").without_predicates()
        assert expr.to_text() == "$v"

    def test_function_args_stripped(self):
        expr = parse_xpath("count(emp[sal > 100])").without_predicates()
        assert expr.to_text() == "count(emp)"

    def test_union_stripped(self):
        expr = parse_xpath("a[1] | b[2]").without_predicates()
        assert expr.to_text() == "a | b"

    def test_predicate_free_node_is_its_own_stripped_form(self):
        for text in ("emp/sal", "count(emp) + 1", "a | b", "$v", "-x"):
            expr = parse_xpath(text)
            assert expr.without_predicates() is expr, text
        pattern = parse_pattern("emp/empno | /")
        assert pattern.without_predicates() is pattern

    def test_original_keeps_its_predicates(self):
        expr = parse_xpath("a[x]/b[1]")
        expr.without_predicates()
        assert expr.to_text() == "a[x]/b[1]"

    def test_instance_memoizes_by_identity(self):
        expr = parse_xpath("emp[sal > 2000]")
        assert expr.without_predicates() is expr.without_predicates()
        # an equal-but-distinct parse gets its own stripped copy
        other = parse_xpath("emp[sal > 2000]")
        assert other.without_predicates() is not expr.without_predicates()

    def test_instance_memoizes_patterns(self):
        pattern = parse_pattern("emp[sal > 2000]/empno")
        assert pattern.without_predicates() is pattern.without_predicates()
        assert pattern.without_predicates().to_text() == "emp/empno"
        alternative = pattern.alternatives[0]
        assert (alternative.without_predicates()
                is alternative.without_predicates())

    def test_pattern_stripping(self):
        pattern = parse_pattern("emp/empno[. = 3456]")
        assert pattern.without_predicates().to_text() == "emp/empno"

    def test_pattern_alternatives_stripped(self):
        pattern = parse_pattern("a[1] | b[x]")
        assert pattern.without_predicates().to_text() == "a | b"


class TestTracing:
    def test_all_reachable_templates_instantiated(self):
        result = pe(EXAMPLE1_STYLESHEET)
        labels = sorted(
            template.match.source
            for template in result.instantiated_templates
        )
        # text() is correctly absent: the schema has no mixed content, so
        # no conforming document can dispatch a text node to it (and the
        # paper's Table 8 output contains no text-template code either).
        assert labels == ["dept", "dname", "emp", "employees", "loc"]

    def test_text_template_pruned_for_element_only_schema(self):
        result = pe(EXAMPLE1_STYLESHEET)
        pruned = [t.match.source for t in result.pruned_templates()]
        assert pruned == ["text()"]

    def test_unused_template_pruned(self):
        result = pe(
            '<xsl:template match="dept"><d/></xsl:template>'
            '<xsl:template match="nonexistent"><n/></xsl:template>'
        )
        pruned = result.pruned_templates()
        assert len(pruned) == 1
        assert pruned[0].match.source == "nonexistent"

    def test_predicated_template_still_traced(self):
        # Predicates are assumed true: with the predicated rule winning
        # conflict resolution (declared last, same priority), both it and
        # the unconditional fallback must be traced (paper Table 18).
        result = pe(
            '<xsl:template match="emp/empno"><b/></xsl:template>'
            '<xsl:template match="emp/empno[. = 3456]"><a/></xsl:template>'
        )
        assert len(result.instantiated_templates) == 2

    def test_dead_predicated_template_not_traced(self):
        # Here the unconditional rule is declared last, so it always wins;
        # the predicated one can never fire on any document.
        result = pe(
            '<xsl:template match="emp/empno[. = 3456]"><a/></xsl:template>'
            '<xsl:template match="emp/empno"><b/></xsl:template>'
        )
        assert len(result.instantiated_templates) == 1

    def test_conditional_branches_explored(self):
        # The template behind xsl:if's test must be traced even though
        # the test is false on the sample document.
        result = pe(
            '<xsl:template match="dept">'
            '<xsl:if test="dname = \'no-such-value\'">'
            "<xsl:apply-templates select='dname'/></xsl:if>"
            "</xsl:template>"
            '<xsl:template match="dname"><hit/></xsl:template>'
        )
        assert len(result.instantiated_templates) == 2

    def test_choose_branches_explored(self):
        result = pe(
            '<xsl:template match="dept"><xsl:choose>'
            '<xsl:when test="false()"><xsl:apply-templates select="dname"/></xsl:when>'
            '<xsl:otherwise><xsl:apply-templates select="loc"/></xsl:otherwise>'
            "</xsl:choose></xsl:template>"
            '<xsl:template match="dname"><a/></xsl:template>'
            '<xsl:template match="loc"><b/></xsl:template>'
        )
        assert len(result.instantiated_templates) == 3

    def test_apply_event_sites_recorded(self):
        result = pe(EXAMPLE1_STYLESHEET)
        sites = {
            event.site.site_id
            for event in result.trace.apply_events
            if event.site is not None
        }
        assert len(sites) == 2  # the two apply-templates instructions


class TestExecutionGraph:
    def test_acyclic_for_example1(self):
        result = pe(EXAMPLE1_STYLESHEET)
        assert not result.graph.is_recursive()
        assert result.inline_mode

    def test_graph_states_cover_templates(self):
        result = pe(EXAMPLE1_STYLESHEET)
        labels = result.graph.to_text()
        assert 'match="dept"' in labels
        assert 'match="emp"' in labels

    def test_recursive_call_template_detected(self):
        result = pe(
            '<xsl:template match="/"><xsl:call-template name="walk"/></xsl:template>'
            '<xsl:template name="walk">'
            '<xsl:if test="true()"><xsl:call-template name="walk"/></xsl:if>'
            "</xsl:template>"
        )
        assert result.recursive
        assert not result.inline_mode

    def test_recursive_schema_rejected(self):
        recursive_dtd = "<!ELEMENT t (leaf, t?)><!ELEMENT leaf (#PCDATA)>"
        with pytest.raises(Exception):
            pe('<xsl:template match="t"><x/></xsl:template>', recursive_dtd)

    def test_builtin_only_stylesheet(self):
        result = pe("")
        assert result.instantiated_templates == set()
        assert result.inline_mode
