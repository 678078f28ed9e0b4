"""Tests for partial inline mode (paper §7.2 future work, implemented).

With a recursive execution graph the paper's shipping system dropped to
all-function mode; here partial inline is the one inline rule: every
acyclic state is inlined and only the states on cycles become functions.
"""

from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document, serialize_children
from repro.xquery import xquery_to_text
from repro.xquery.evaluator import evaluate_module, sequence_to_document
from repro.xslt import compile_stylesheet, transform
from repro.core.partial_eval import partially_evaluate
from repro.core.xquery_gen import generate_xquery
from repro.obs import DecisionLedger

from .paper_example import DEPT_DTD, DEPT_DOC_1

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'

MIXED = (
    '<xsl:template match="dept"><d><xsl:apply-templates select="dname"/>'
    '<xsl:call-template name="stars"><xsl:with-param name="n" select="3"/>'
    "</xsl:call-template></d></xsl:template>"
    '<xsl:template match="dname"><n><xsl:value-of select="."/></n>'
    "</xsl:template>"
    '<xsl:template name="stars"><xsl:param name="n"/>'
    '<xsl:if test="$n &gt; 0">*<xsl:call-template name="stars">'
    '<xsl:with-param name="n" select="$n - 1"/></xsl:call-template></xsl:if>'
    "</xsl:template>"
)


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


def build(body, ledger=None):
    compiled = compile_stylesheet(sheet(body))
    partial = partially_evaluate(compiled, schema_from_dtd(DEPT_DTD),
                                 ledger=ledger)
    return compiled, partial, generate_xquery(partial, ledger=ledger)


class TestPartialInline:
    def test_only_cyclic_state_becomes_function(self):
        _, partial, module = build(MIXED)
        assert partial.recursive
        names = [function.name for function in module.functions]
        assert len(names) == 1
        assert "t2" in names[0]  # the recursive 'stars' template

    def test_acyclic_templates_still_inlined(self):
        _, _, module = build(MIXED)
        text = xquery_to_text(module)
        # dept/dname bodies appear in the main query, not as functions
        assert '(: <xsl:template match="dept"> :)' in text
        assert '(: <xsl:template match="dname"> :)' in text

    def test_only_cyclic_state_is_dispatched_in_the_ledger(self):
        ledger = DecisionLedger()
        build(MIXED, ledger)
        dispatched = ledger.decisions_of(kind="template-dispatched")
        assert [d.subject for d in dispatched] == ['name="stars"']
        assert "cycle" in dispatched[0].reason
        inlined = {d.subject for d in
                   ledger.decisions_of(kind="template-inlined")}
        assert inlined == {'match="dept"', 'match="dname"'}

    def test_equivalent_to_vm(self):
        compiled, _, module = build(MIXED)
        reference = serialize_children(
            transform(compiled, parse_document(DEPT_DOC_1))
        )
        got = serialize_children(sequence_to_document(
            evaluate_module(module, parse_document(DEPT_DOC_1))))
        assert got == reference
        assert reference.endswith("***</d>")

    def test_acyclic_stylesheet_unaffected(self):
        from .paper_example import EXAMPLE1_STYLESHEET

        compiled = compile_stylesheet(EXAMPLE1_STYLESHEET)
        partial = partially_evaluate(compiled, schema_from_dtd(DEPT_DTD))
        module = generate_xquery(partial)
        assert not module.functions

    def test_cyclic_state_keys(self):
        _, partial, _ = build(MIXED)
        cyclic = partial.graph.cyclic_state_keys()
        assert len(cyclic) == 1

    def test_mutual_recursion_both_states_functions(self):
        body = (
            '<xsl:template match="dept">'
            '<xsl:call-template name="ping">'
            '<xsl:with-param name="n" select="4"/></xsl:call-template>'
            "</xsl:template>"
            '<xsl:template name="ping"><xsl:param name="n"/>'
            '<xsl:if test="$n &gt; 0">p<xsl:call-template name="pong">'
            '<xsl:with-param name="n" select="$n - 1"/></xsl:call-template>'
            "</xsl:if></xsl:template>"
            '<xsl:template name="pong"><xsl:param name="n"/>'
            '<xsl:if test="$n &gt; 0">q<xsl:call-template name="ping">'
            '<xsl:with-param name="n" select="$n - 1"/></xsl:call-template>'
            "</xsl:if></xsl:template>"
        )
        compiled, partial, module = build(body)
        assert len(module.functions) == 2
        document = parse_document(DEPT_DOC_1)
        got = serialize_children(
            sequence_to_document(evaluate_module(module, document))
        )
        reference = serialize_children(
            transform(compiled, parse_document(DEPT_DOC_1))
        )
        assert got == reference == "pqpq"
