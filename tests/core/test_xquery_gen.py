"""Tests for XQuery generation: the §3.3–3.7 techniques (paper Tables
12–21) and functional equivalence of the generated queries."""

import pytest

from repro.errors import RewriteError
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document, serialize_children
from repro.xquery import xquery_to_text, parse_xquery
from repro.xquery.evaluator import evaluate_module, sequence_to_document
from repro.xslt import compile_stylesheet, transform
from repro.core.partial_eval import partially_evaluate
from repro.core.xquery_gen import generate_xquery
from repro.obs import DecisionLedger

from .paper_example import DEPT_DTD, EXAMPLE1_STYLESHEET, DEPT_DOC_1

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (XSL, body)


def generate(body_or_sheet, dtd=DEPT_DTD, ledger=None):
    text = body_or_sheet
    if "<xsl:stylesheet" not in text:
        text = sheet(text)
    compiled = compile_stylesheet(text)
    pe = partially_evaluate(compiled, schema_from_dtd(dtd), ledger=ledger)
    return generate_xquery(pe, ledger=ledger), compiled


def equivalent(body_or_sheet, source, dtd=DEPT_DTD):
    """Assert generated-XQuery output == functional XSLT output; return it."""
    module, compiled = generate(body_or_sheet, dtd)
    document = parse_document(source)
    xq_out = serialize_children(
        sequence_to_document(evaluate_module(module, document))
    )
    vm_out = serialize_children(transform(compiled, parse_document(source)))
    assert xq_out == vm_out, "XQuery %r != XSLT %r" % (xq_out, vm_out)
    # and the serialized query text round-trips
    reparsed = parse_xquery(xquery_to_text(module))
    again = serialize_children(
        sequence_to_document(evaluate_module(reparsed, parse_document(source)))
    )
    assert again == xq_out
    return xq_out


class TestExample1:
    def test_equivalence(self):
        out = equivalent(EXAMPLE1_STYLESHEET, DEPT_DOC_1)
        assert "HIGHLY PAID DEPT EMPLOYEES" in out
        assert "MILLER" not in out  # sal 1300 filtered by the predicate

    def test_generated_text_matches_table8_shape(self):
        module, _ = generate(EXAMPLE1_STYLESHEET)
        text = xquery_to_text(module)
        assert "declare variable $var000 := .;" in text
        assert "let $var002 := $var000/dept" in text
        assert "for $var006 in $var005/emp[sal > 2000]" in text
        assert '<table border="2">' in text
        # all five reachable templates inlined, no functions
        assert "declare function" not in text
        assert text.count("(: <xsl:template") == 5

    def test_value_predicate_survives_as_residual(self):
        module, _ = generate(EXAMPLE1_STYLESHEET)
        assert "emp[sal > 2000]" in xquery_to_text(module)


class TestModelGroups:
    """Paper §3.4, Tables 12–15."""

    CHOICE_DTD = (
        "<!ELEMENT r (a | b | c)><!ELEMENT a (#PCDATA)>"
        "<!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>"
    )
    BODY = (
        '<xsl:template match="a"><A/></xsl:template>'
        '<xsl:template match="b"><B/></xsl:template>'
        '<xsl:template match="c"><C/></xsl:template>'
    )

    def test_sequence_group_no_conditionals(self):
        # Table 14: sequence children inline without any tests.
        module, _ = generate(
            '<xsl:template match="dname"><N/></xsl:template>'
            '<xsl:template match="loc"><L/></xsl:template>'
        )
        text = xquery_to_text(module)
        assert "if (" not in text
        assert "instance of" not in text

    def test_sequence_cardinality_let_vs_for(self):
        # Table 15: LET for dname (occurs 1), FOR for emp (occurs *).
        module, _ = generate(EXAMPLE1_STYLESHEET)
        text = xquery_to_text(module)
        assert "let $var003 := $var002/dname" in text
        assert "for $var006 in" in text

    def test_choice_group_existence_chain(self):
        # Table 13: if ($cur/a) then ... else if ($cur/b) ...
        module, _ = generate(self.BODY, dtd=self.CHOICE_DTD)
        text = xquery_to_text(module)
        assert "if (" in text
        assert "instance of" not in text

    def test_choice_equivalence_each_alternative(self):
        for content, expected in [("<a>1</a>", "<A/>"), ("<b>2</b>", "<B/>"),
                                  ("<c>3</c>", "<C/>")]:
            out = equivalent(self.BODY, "<r>%s</r>" % content,
                             dtd=self.CHOICE_DTD)
            assert out == expected


class TestBackwardAxisRemoval:
    """Paper §3.5, Tables 16–19."""

    def test_structurally_guaranteed_parent_no_test(self):
        # empno's only parent is emp: no exists(parent::emp) is generated.
        module, _ = generate(
            '<xsl:template match="emp/empno"><hit/></xsl:template>'
        )
        text = xquery_to_text(module)
        assert "parent" not in text
        assert "exists" not in text

    def test_predicated_pattern_keeps_only_predicate(self):
        # Table 19: the parent-axis check vanishes, the value test stays.
        module, _ = generate(
            '<xsl:template match="emp/empno"><plain/></xsl:template>'
            '<xsl:template match="emp/empno[. = 3456]"><special/></xsl:template>'
        )
        text = xquery_to_text(module)
        assert "[. = 3456]" in text
        assert "parent" not in text

    def test_predicated_pattern_equivalence(self):
        body = (
            '<xsl:template match="emp/empno"><plain/></xsl:template>'
            '<xsl:template match="emp/empno[. = 3456]"><special/></xsl:template>'
        )
        doc_hit = (
            "<dept><dname>D</dname><loc>L</loc><employees>"
            "<emp><empno>3456</empno><ename>N</ename><sal>1</sal></emp>"
            "</employees></dept>"
        )
        out = equivalent(body, doc_hit)
        assert "<special/>" in out
        out = equivalent(body, DEPT_DOC_1)
        assert "<special/>" not in out
        assert "<plain/>" in out

    def test_ancestor_predicate_preserved(self):
        body = (
            '<xsl:template match="empno"><plain/></xsl:template>'
            '<xsl:template match="emp[sal &gt; 2000]/empno"><rich/></xsl:template>'
        )
        out = equivalent(body, DEPT_DOC_1)
        assert out.count("<rich/>") == 1   # CLARK only
        assert out.count("<plain/>") == 1  # MILLER


class TestBuiltinOnly:
    """Paper §3.6, Tables 20–21."""

    def test_empty_stylesheet_compact_form(self):
        module, _ = generate("")
        text = xquery_to_text(module)
        assert "string-join" in text
        assert "//" in text or "descendant" in text

    def test_empty_stylesheet_equivalence(self):
        equivalent("", DEPT_DOC_1)

    def test_builtin_subtree_compacted(self):
        # A template matches dept but employees' subtree is builtin-only.
        module, _ = generate(
            '<xsl:template match="dept"><out><xsl:apply-templates '
            'select="employees"/></out></xsl:template>'
        )
        text = xquery_to_text(module)
        assert "string-join" in text


class TestTemplatePruning:
    def test_unreachable_template_generates_no_code(self):
        module, _ = generate(
            '<xsl:template match="dept"><d/></xsl:template>'
            '<xsl:template match="unreachable"><u/></xsl:template>'
        )
        assert "unreachable" not in xquery_to_text(module)


class TestTechniquesOnXsltmarkCases:
    """The §3.3–3.7 techniques are fixed compile rules; the decision
    ledger of the one compile shows each one fired, and the generated
    query still answers as the VM does."""

    @staticmethod
    def compile_case(name):
        """The case's ledger and generated module; the module must answer
        as the VM does."""
        from repro.xmlmodel import serialize
        from repro.xsltmark import get_case

        case = get_case(name)
        ledger = DecisionLedger()
        module, _ = generate(case.stylesheet, case.dtd, ledger=ledger)
        equivalent(case.stylesheet, serialize(case.make_document(8)),
                   dtd=case.dtd)
        return ledger, module

    def test_patterns_removes_backward_steps_and_binds_with_let(self):
        ledger, module = self.compile_case("patterns")
        removals = ledger.decisions_of(kind="backward-step")
        assert sum(d.detail["steps_removed"] for d in removals) > 0
        assert any(d.action == "LET"
                   for d in ledger.decisions_of(kind="cardinality"))
        assert not module.functions

    def test_decoy_prunes_its_never_instantiated_templates(self):
        # every one of patterns' templates fires; decoy's decoys never do
        ledger, module = self.compile_case("decoy")
        assert len(ledger.decisions_of(kind="template-pruned")) == 12
        assert xquery_to_text(module).count("(: <xsl:template") == 2

    def test_empty_stylesheet_compacts_builtins(self):
        ledger = DecisionLedger()
        generate("", ledger=ledger)
        compactions = ledger.decisions_of(kind="builtin-compaction")
        assert [d.action for d in compactions] == ["string-join"]


class TestInstructionCoverage:
    def test_for_each_with_sort(self):
        body = (
            '<xsl:template match="employees">'
            '<xsl:for-each select="emp"><xsl:sort select="ename"/>'
            '<e><xsl:value-of select="ename"/></e></xsl:for-each>'
            "</xsl:template>"
        )
        out = equivalent(body, DEPT_DOC_1)
        assert out == "ACCOUNTINGNEW YORK<e>CLARK</e><e>MILLER</e>"

    def test_numeric_sort_descending(self):
        body = (
            '<xsl:template match="employees">'
            '<xsl:for-each select="emp">'
            '<xsl:sort select="sal" data-type="number" order="descending"/>'
            '<s><xsl:value-of select="sal"/></s></xsl:for-each>'
            "</xsl:template>"
        )
        out = equivalent(body, DEPT_DOC_1)
        assert out == "ACCOUNTINGNEW YORK<s>2450</s><s>1300</s>"

    def test_if_and_choose(self):
        body = (
            '<xsl:template match="emp">'
            '<xsl:if test="sal &gt; 2000"><rich/></xsl:if>'
            "<xsl:choose>"
            '<xsl:when test="sal &gt; 2000">H</xsl:when>'
            "<xsl:otherwise>L</xsl:otherwise></xsl:choose>"
            "</xsl:template>"
        )
        out = equivalent(body, DEPT_DOC_1)
        # dname/loc text flows through built-in rules; CLARK (2450) is
        # rich+H, MILLER (1300) is L.
        assert out == "ACCOUNTINGNEW YORK<rich/>HL"

    def test_variables_and_call_template(self):
        body = (
            '<xsl:template match="emp">'
            '<xsl:variable name="s" select="sal"/>'
            '<xsl:call-template name="show">'
            '<xsl:with-param name="v" select="$s"/></xsl:call-template>'
            "</xsl:template>"
            '<xsl:template name="show"><xsl:param name="v"/>'
            "[<xsl:value-of select='$v'/>]</xsl:template>"
        )
        assert equivalent(body, DEPT_DOC_1) == "ACCOUNTINGNEW YORK[2450][1300]"

    def test_copy_of(self):
        body = '<xsl:template match="dept"><xsl:copy-of select="dname"/></xsl:template>'
        assert equivalent(body, DEPT_DOC_1) == "<dname>ACCOUNTING</dname>"

    def test_copy_with_known_name(self):
        body = (
            '<xsl:template match="dname"><xsl:copy><x/></xsl:copy></xsl:template>'
        )
        out = equivalent(body, DEPT_DOC_1)
        assert "<dname><x/></dname>" in out

    def test_attribute_instruction(self):
        body = (
            '<xsl:template match="emp"><e>'
            '<xsl:attribute name="sal"><xsl:value-of select="sal"/></xsl:attribute>'
            "</e></xsl:template>"
        )
        out = equivalent(body, DEPT_DOC_1)
        assert '<e sal="2450"/>' in out

    def test_avt_in_literal_attribute(self):
        body = '<xsl:template match="emp"><e s="{sal}-x"/></xsl:template>'
        out = equivalent(body, DEPT_DOC_1)
        assert '<e s="2450-x"/>' in out

    def test_element_instruction_constant_name(self):
        body = (
            '<xsl:template match="dept">'
            '<xsl:element name="wrap"><xsl:value-of select="dname"/>'
            "</xsl:element></xsl:template>"
        )
        assert equivalent(body, DEPT_DOC_1) == "<wrap>ACCOUNTING</wrap>"

    def test_mode_dispatch(self):
        body = (
            '<xsl:template match="dept">'
            '<xsl:apply-templates select="dname" mode="m"/>'
            '<xsl:apply-templates select="dname"/>'
            "</xsl:template>"
            '<xsl:template match="dname" mode="m"><modal/></xsl:template>'
            '<xsl:template match="dname"><plain/></xsl:template>'
        )
        assert equivalent(body, DEPT_DOC_1) == "<modal/><plain/>"

    def test_aggregates_in_select_exprs(self):
        body = (
            '<xsl:template match="employees">'
            '<n><xsl:value-of select="count(emp)"/></n>'
            '<s><xsl:value-of select="sum(emp/sal)"/></s>'
            "</xsl:template>"
        )
        assert equivalent(body, DEPT_DOC_1) == "ACCOUNTINGNEW YORK<n>2</n><s>3750</s>"

    def test_union_select(self):
        body = (
            '<xsl:template match="dept">'
            '<xsl:apply-templates select="loc | dname"/></xsl:template>'
            '<xsl:template match="dname"><n/></xsl:template>'
            '<xsl:template match="loc"><l/></xsl:template>'
        )
        # union select dispatches both branches (document order per branch)
        assert equivalent(body, DEPT_DOC_1) == "<n/><l/>"


class TestNonInlineMode:
    RECURSIVE = (
        '<xsl:template match="/"><xsl:call-template name="count">'
        '<xsl:with-param name="n" select="3"/></xsl:call-template></xsl:template>'
        '<xsl:template name="count"><xsl:param name="n"/>'
        '<xsl:if test="$n &gt; 0">'
        "<i><xsl:value-of select='$n'/></i>"
        '<xsl:call-template name="count">'
        '<xsl:with-param name="n" select="$n - 1"/></xsl:call-template>'
        "</xsl:if></xsl:template>"
    )

    def test_recursive_stylesheet_generates_functions(self):
        module, _ = generate(self.RECURSIVE)
        assert module.functions
        text = xquery_to_text(module)
        assert "declare function local:" in text

    def test_recursive_equivalence(self):
        assert equivalent(self.RECURSIVE, DEPT_DOC_1) == (
            "<i>3</i><i>2</i><i>1</i>"
        )

    def test_inline_stat_reporting(self):
        module, _ = generate(EXAMPLE1_STYLESHEET)
        assert not module.functions  # fully inline
        module2, _ = generate(self.RECURSIVE)
        assert module2.functions     # non-inline


class TestUnsupportedConstructs:
    @pytest.mark.parametrize(
        "body",
        [
            # dynamic element names
            '<xsl:template match="dept"><xsl:element name="{dname}"/></xsl:template>',
            # keys
            '<xsl:template match="dept"><xsl:value-of select="key(\'k\', 1)"/></xsl:template>',
            # position() outside predicates
            '<xsl:template match="emp"><xsl:value-of select="position()"/></xsl:template>',
            # xsl:number
            '<xsl:template match="emp"><xsl:number/></xsl:template>',
            # variable with body content
            '<xsl:template match="dept"><xsl:variable name="v"><x/></xsl:variable>'
            '<xsl:value-of select="$v"/></xsl:template>',
        ],
    )
    def test_raises_rewrite_error(self, body):
        with pytest.raises(RewriteError):
            generate(body)


class TestHeterogeneousForEach:
    def test_mixed_selection_dispatches_per_type(self):
        body = (
            '<xsl:template match="dept">'
            '<xsl:for-each select="dname | loc">'
            '<i><xsl:value-of select="name()"/>=<xsl:value-of select="."/></i>'
            "</xsl:for-each></xsl:template>"
        )
        out = equivalent(body, DEPT_DOC_1)
        assert out == "<i>dname=ACCOUNTING</i><i>loc=NEW YORK</i>"

    def test_wildcard_for_each(self):
        body = (
            '<xsl:template match="emp">'
            '<xsl:for-each select="*"><v><xsl:value-of select="."/></v>'
            "</xsl:for-each></xsl:template>"
        )
        out = equivalent(body, DEPT_DOC_1)
        assert "<v>7782</v><v>CLARK</v><v>2450</v>" in out

    def test_sorted_heterogeneous_rejected(self):
        body = (
            '<xsl:template match="dept">'
            '<xsl:for-each select="dname | loc"><xsl:sort select="."/>'
            '<i/></xsl:for-each></xsl:template>'
        )
        with pytest.raises(RewriteError):
            generate(body)


class TestGeneratedTreesShareParsedExpressions:
    """``compile_xpath`` memoises trees by text for the whole process and
    ``rebuilt()`` hands an untouched subtree back as itself, so a generated
    module can hold the very node another stylesheet's module holds: the
    generator annotates only nodes it built."""

    DTD = "<!ELEMENT r (a*)><!ELEMENT a (#PCDATA)>"
    PARAM = '<xsl:param name="g" select="1"/>'
    FOR_EACH = PARAM + (
        '<xsl:template match="/"><xsl:for-each select="r/a">'
        '<b><xsl:copy-of select="$g"/></b></xsl:for-each></xsl:template>')
    APPLY = PARAM + (
        '<xsl:template match="/"><xsl:apply-templates select="r/a"/>'
        '</xsl:template>'
        '<xsl:template match="a"><xsl:copy-of select="$g"/></xsl:template>')

    def test_template_comment_does_not_leak_across_stylesheets(self):
        from repro.xpath import compile_xpath

        before = xquery_to_text(generate(self.FOR_EACH, self.DTD)[0])
        inlined = xquery_to_text(generate(self.APPLY, self.DTD)[0])
        assert '(: <xsl:template match="a"> :)\n  $g' in inlined
        after = xquery_to_text(generate(self.FOR_EACH, self.DTD)[0])
        assert before == after
        assert all(getattr(node, "xq_comment", None) is None
                   for node in compile_xpath("$g").iter_tree())
