"""The bound stylesheet program against the interpreter it replaced.

``repro.xslt.program`` binds a stylesheet once into closures and
``repro.xpath.ast`` compiles each expression once; the reference is the
tree-walking VM and evaluator kept verbatim in ``tests/xslt/reference_vm``.
Pinned here: byte-identical output and equal work counters on the whole
XSLTMark corpus, value- and order-equal XPath results over a generated
grammar, identical partial-evaluation traces/graphs/ledgers, and the
*timing* of errors (raised when reached, never at bind time).
"""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.partial_eval as partial_eval_module
from repro.core.partial_eval import partially_evaluate
from repro.core.pipeline import XsltRewriter
from repro.errors import ReproError, XPathEvaluationError, XsltRuntimeError
from repro.obs.decisions import DecisionLedger
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document
from repro.xmlmodel.nodes import Node
from repro.xmlmodel.serializer import serialize
from repro.xpath import XPathContext, compile_pattern, compile_xpath
from repro.xpath.functions import CORE_FUNCTIONS
from repro.xslt import XsltVM, compile_stylesheet, transform_to_string
from repro.xslt.instructions import Instruction
from repro.xslt.stylesheet import Stylesheet
from repro.xslt.trace import TraceRecorder
from repro.xslt.vm import XSLT_FUNCTIONS
from repro.xsltmark import ALL_CASES, get_case
from repro.xsltmark.runner import prepare_case

from tests.xslt.reference_vm import ReferenceVM, evaluate, pattern_matches

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'
FIGURE_CASES = ("dbonerow", "avts", "metric", "chart", "total")


def sheet(body, extra=""):
    return '<xsl:stylesheet version="1.0" %s %s>%s</xsl:stylesheet>' % (
        XSL, extra, body)


def rendered(document):
    return "".join(serialize(child) for child in document.children)


# -- (a) the corpus: output and work counters ------------------------------------


def run_both(stylesheet, document):
    compiled, reference = XsltVM(stylesheet), ReferenceVM(stylesheet)
    got = rendered(compiled.transform_document(document))
    want = rendered(reference.transform_document(document))
    return got, want, compiled, reference


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_corpus_is_byte_identical_with_equal_counters(case):
    stylesheet = compile_stylesheet(case.stylesheet)
    sizes = (1, 10, 50) + ((150,) if case.name in FIGURE_CASES else ())
    for size in sizes:
        got, want, compiled, reference = run_both(
            stylesheet, case.make_document(size))
        assert got == want, size
        assert (compiled.instructions_executed, compiled.templates_dispatched) \
            == (reference.instructions_executed,
                reference.templates_dispatched), size


def test_materialised_documents_agree_too():
    """The bench's documents come out of storage, not the generator."""
    for name in ("identity", "keys", "current", "number"):
        prepared = prepare_case(get_case(name), 20)
        document = prepared.storage.materialize(
            prepared.storage.document_ids()[0])
        got, want, _, _ = run_both(prepared.stylesheet, document)
        assert got == want


FEATURES = sheet(
    '<xsl:import href="base"/>'
    '<xsl:strip-space elements="*"/>'
    '<xsl:key name="by" match="i" use="@k"/>'
    '<xsl:param name="shift" select="1"/>'
    '<xsl:variable name="total" select="count(//i) + $shift"/>'
    '<xsl:template match="/">'
    '<out total="{$total}" xmlns:q="urn:q">'
    '<xsl:apply-templates select="l/i | l/j"><xsl:sort select="@k"/>'
    '<xsl:sort select="." data-type="number" order="descending"/>'
    '<xsl:with-param name="tag">T</xsl:with-param></xsl:apply-templates>'
    '<xsl:apply-templates select="l/p:n" mode="m"/>'
    '<xsl:for-each select="key(\'by\', \'x\')[position() &lt; 3]">'
    '<k n="{position()}/{last()}"><xsl:number/>.<xsl:number level="any" '
    'count="i | j" format="a"/></k></xsl:for-each>'
    '<xsl:call-template name="rec"><xsl:with-param name="n" select="3"/>'
    '</xsl:call-template></out></xsl:template>'
    '<xsl:template match="i[@k = \'x\']" priority="2"><xsl:param name="tag"/>'
    '<x t="{$tag}"><xsl:apply-imports/></x></xsl:template>'
    '<xsl:template match="l/i"><xsl:param name="tag" select="\'d\'"/>'
    '<xsl:choose><xsl:when test=". &gt; 2"><big><xsl:copy-of select="."/></big>'
    '</xsl:when><xsl:when test="@k"><xsl:copy><xsl:copy-of select="@*"/>'
    '<xsl:value-of select="$tag"/></xsl:copy></xsl:when>'
    '<xsl:otherwise><none/></xsl:otherwise></xsl:choose></xsl:template>'
    '<xsl:template match="j"><xsl:element name="e{@k}"><xsl:attribute '
    'name="a">v<xsl:value-of select="current()/@k"/></xsl:attribute>'
    '<xsl:comment>c</xsl:comment><xsl:processing-instruction name="pi">d'
    '</xsl:processing-instruction><xsl:if test="not(@k)">no</xsl:if>'
    '<xsl:message>m<xsl:value-of select="."/></xsl:message>'
    '<xsl:value-of select="generate-id(.) = generate-id(../j[1])"/>'
    '<xsl:value-of select="format-number(. * 1000, \'#,##0.0\')"/>'
    '</xsl:element></xsl:template>'
    '<xsl:template match="p:*" mode="m"><ns><xsl:value-of '
    'select="concat(name(), \'|\', namespace-uri(), \'|\', ../@p:a)"/></ns>'
    '</xsl:template>'
    '<xsl:template name="rec"><xsl:param name="n"/><xsl:if test="$n &gt; 0">'
    '<r><xsl:value-of select="$n"/></r><xsl:call-template name="rec">'
    '<xsl:with-param name="n" select="$n - 1"/></xsl:call-template></xsl:if>'
    '</xsl:template>',
    extra='xmlns:p="urn:p"',
)
FEATURES_BASE = sheet(
    '<xsl:template match="i"><base><xsl:value-of select="."/></base>'
    '</xsl:template><xsl:template match="text()"><t/></xsl:template>')
FEATURES_SOURCE = (
    '<l xmlns:p="urn:p" p:a="A"> <i k="x">1</i><i k="y">5</i><j k="1">2</j>'
    '<i>3</i> <i k="x">4</i><j>7</j><p:n/><!--c--><?t d?></l>')


def test_every_instruction_and_function_agrees():
    """One stylesheet through everything the corpus does not reach:
    imports, keys, modes, params, sorting, numbering, RTFs, namespaces."""
    stylesheet = compile_stylesheet(
        FEATURES, resolver={"base": FEATURES_BASE}.__getitem__)
    document = parse_document(FEATURES_SOURCE)
    for params in (None, {"shift": 10.0}):
        compiled, reference = XsltVM(stylesheet), ReferenceVM(stylesheet)
        got = rendered(compiled.transform_document(document, params=params))
        want = rendered(reference.transform_document(document, params=params))
        assert got == want
        assert compiled.messages == reference.messages
        assert sorted(compiled.messages) == ["m2", "m7"]
        assert (compiled.instructions_executed, compiled.templates_dispatched) \
            == (reference.instructions_executed,
                reference.templates_dispatched)


# -- (b) XPath: a generated grammar against the reference evaluate ---------------------

NAMESPACES = {"p": "urn:p"}
GRAMMAR_SOURCE = (
    '<r xmlns:p="urn:p" x="1" p:x="2"><a x="2" y="1"><b>1</b>t<b x="1">2</b>'
    '<p:a><c y="2">u</c></p:a><!--note--><?t d?><?u e?></a><b y="2">3</b>'
    '<a><a x="1"><b/>4<c>5</c></a><c x="2"/></a><p:a p:x="1">6</p:a>'
    '<c>hello world</c></r>')
GRAMMAR_DOC = parse_document(GRAMMAR_SOURCE)
ALL_AXES = ("child", "descendant", "descendant-or-self", "parent", "ancestor",
            "ancestor-or-self", "following-sibling", "preceding-sibling",
            "following", "preceding", "attribute", "self", "namespace")
NODE_TESTS = ("*", "a", "b", "c", "x", "p:a", "p:x", "p:*", "node()",
              "text()", "comment()", "processing-instruction()",
              "processing-instruction('t')")


def all_nodes(document):
    nodes = []
    for node in document.iter_subtree():
        nodes.append(node)
        nodes.extend(getattr(node, "attributes", ()))
    return nodes


GRAMMAR_NODES = all_nodes(GRAMMAR_DOC)


@st.composite
def steps(draw, depth):
    # half the tests are the permissive ones, or most selections are empty
    text = "%s::%s" % (draw(st.sampled_from(ALL_AXES)), draw(st.sampled_from(
        NODE_TESTS + ("*", "node()") * 4 + ("a", "b") * 2)))
    if depth > 0:
        for predicate in draw(st.lists(predicates(depth - 1), max_size=2)):
            text += "[%s]" % predicate
    return text


@st.composite
def node_sets(draw, depth):
    shape = draw(st.integers(0, 7))
    if shape == 6 and depth > 0:
        return "%s | %s" % (draw(node_sets(depth - 1)),
                            draw(node_sets(depth - 1)))
    if shape == 7 and depth > 0:
        return "(%s)[%s]/%s" % (draw(node_sets(depth - 1)),
                                draw(predicates(depth - 1)),
                                draw(steps(depth - 1)))
    start = draw(st.sampled_from(
        ("", "", "/", "//", "//", "/r/", "$v/", "$v//", "$one/", "$v[2]/",
         ".//", "../")))
    body = draw(steps(depth))
    for _ in range(draw(st.integers(0, 2))):
        body += draw(st.sampled_from(("/", "//"))) + draw(steps(depth))
    return start + body


ATOMS = ("1", "2", "0.5", "-1", "'b'", "'1'", "''", "$s", "$n", "position()",
         "last()", "true()", "false()", "string()", "number()", "name()",
         "local-name()", "namespace-uri()", "string-length()",
         "normalize-space()")
CALLS_1 = ("count", "sum", "string", "number", "boolean", "not", "name",
           "local-name", "namespace-uri", "string-length", "normalize-space",
           "floor", "ceiling", "round", "id", "lang", "exists", "empty", "data")
CALLS_2 = ("concat", "starts-with", "contains", "substring-before",
           "substring-after", "substring", "string-join")
OPERATORS = ("=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "div", "mod",
             "and", "or")


@st.composite
def values(draw, depth):
    shape = draw(st.integers(0, 7)) if depth > 0 else 0
    if shape in (0, 1):
        return draw(st.sampled_from(ATOMS))
    if shape == 2:
        return draw(node_sets(depth - 1))
    if shape == 3:
        return "%s(%s)" % (draw(st.sampled_from(CALLS_1)),
                           draw(values(depth - 1)))
    if shape == 4:
        return "%s(%s, %s)" % (draw(st.sampled_from(CALLS_2)),
                               draw(values(depth - 1)),
                               draw(values(depth - 1)))
    if shape == 5:
        return draw(st.sampled_from((
            "translate(%s, 'abc1', 'xy')", "substring(%s, 2, 3)",
            "concat(%s, '-', 'z')", "-(%s)"))) % draw(values(depth - 1))
    return "(%s) %s (%s)" % (draw(values(depth - 1)),
                             draw(st.sampled_from(OPERATORS)),
                             draw(values(depth - 1)))


@st.composite
def predicates(draw, depth):
    if draw(st.booleans()):
        return draw(st.sampled_from(
            ("1", "2", "last()", "position() > 1", "position() = last()",
             "position() mod 2 = 1", "@x", "b", "not(a)", ".//c", "../a[1]",
             "@x = following::*/@x", ". = 1", "count(b) > 1", "@x = 1 or b",
             "self::a and @x")))
    return draw(values(depth))


def same_value(got, want):
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want) and all(
            a is b if isinstance(b, Node) else same_value(a, b)
            for a, b in zip(got, want)))
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return type(got) is type(want) and got == want


def outcome(thunk):
    try:
        return "value", thunk()
    except ReproError as exc:
        return "error", (type(exc), str(exc))


def grammar_context(data):
    return XPathContext(
        data.draw(st.sampled_from(GRAMMAR_NODES)),
        position=2, size=5, namespaces=NAMESPACES,
        variables={
            "v": data.draw(st.lists(st.sampled_from(GRAMMAR_NODES),
                                    min_size=2, max_size=5, unique_by=id)),
            "one": [data.draw(st.sampled_from(GRAMMAR_NODES))],
            "s": "a b", "n": 2.0})


class TestXPathAgainstReferenceEvaluate:
    @given(st.one_of(node_sets(2), values(3)), st.data())
    @settings(max_examples=400, deadline=None)
    def test_value_and_document_order_equal(self, source, data):
        expression = compile_xpath(source)
        context = grammar_context(data)
        got = outcome(lambda: expression.evaluate(context))
        want = outcome(lambda: evaluate(expression, context))
        assert got[0] == want[0], (source, got, want)
        if got[0] == "error":
            assert got[1] == want[1], source
        else:
            assert same_value(got[1], want[1]), (source, got[1], want[1])

    def test_the_strategies_reach_every_core_function_and_axis(self):
        text = " ".join(ATOMS + CALLS_1 + CALLS_2 + ("translate",))
        named = set(re.findall(r"[a-z][a-z-]*", text))
        assert set(CORE_FUNCTIONS) - named \
            == {"distinct-values", "avg", "min", "max"}
        context = XPathContext(GRAMMAR_DOC.document_element, namespaces=NAMESPACES)
        for name in ("distinct-values", "avg", "min", "max"):
            expression = compile_xpath("%s(//b)" % name)
            assert same_value(expression.evaluate(context),
                              evaluate(expression, context))

    @given(st.sampled_from((
        "a", "*", "p:a", "p:*", "@x", "@p:x", "@*", "text()", "node()",
        "comment()", "processing-instruction('t')", "/", "/r", "a/b", "a//c",
        "/r/a/b", "//b", "r//a/b", "b[1]", "b[last()]", "a[b]/b[@x]",
        "a/b[2]", "*[@x = 1]", "b[. > 1] | c", "p:a/c", "@x[. = 2]")), st.data())
    @settings(max_examples=150, deadline=None)
    def test_patterns_match_the_same_nodes(self, source, data):
        pattern = compile_pattern(source)
        context = XPathContext(GRAMMAR_DOC, namespaces=NAMESPACES)
        matches = pattern.compile()
        for node in GRAMMAR_NODES:
            assert matches(node, context) \
                == pattern_matches(pattern, node, context), (source, node)

    def test_one_tree_serves_contexts_with_different_bindings(self):
        """The closure is cached on the (memoised) tree, so a prefix must
        be resolved where the step is reached, not where it was compiled."""
        expression = compile_xpath("count(//q:a)")
        root = GRAMMAR_DOC.document_element
        assert expression.evaluate(
            XPathContext(root, namespaces={"q": "urn:p"})) == 2.0
        assert expression.evaluate(
            XPathContext(root, namespaces={"q": "urn:other"})) == 0.0
        with pytest.raises(XPathEvaluationError, match="undeclared namespace"):
            expression.evaluate(XPathContext(root))


# -- (c) partial evaluation is what it was --------------------------------------------


def label(template):
    return template if isinstance(template, str) else (
        template.label(), template.position)


def trace_signature(trace):
    return (
        [(getattr(e.site, "site_id", None), e.caller and label(e.caller),
          e.context_node.order, e.selected_node.order, label(e.resolved),
          e.mode) for e in trace.apply_events],
        [(e.site.site_id, e.caller and label(e.caller), e.context_node.order,
          label(e.template)) for e in trace.call_events],
        [(label(e.template), e.node.order,
          getattr(e.site, "site_id", None), e.caller and label(e.caller))
         for e in trace.instantiations],
    )


def graph_signature(graph):
    return sorted(
        (state.label(), sorted((site, target.label())
                               for site, target in graph.successors(state)))
        for state in graph.states())


def partial_signature(stylesheet, schema):
    try:
        partial = partially_evaluate(stylesheet, schema)
    except ReproError as exc:
        return type(exc), str(exc)
    return (trace_signature(partial.trace), graph_signature(partial.graph),
            sorted(map(label, partial.instantiated_templates)),
            partial.recursive)


def rewrite_signature(prepared, stylesheet):
    rewriter = XsltRewriter(ledger=DecisionLedger())
    try:
        rewriter.rewrite_view(stylesheet, prepared.storage.view_query())
        error = None
    except ReproError as exc:
        error = (type(exc), str(exc))
    return error, rewriter.ledger.to_json()


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_partial_evaluation_is_unchanged(case, monkeypatch):
    prepared = prepare_case(case, 3)
    schema = schema_from_dtd(case.dtd) if case.dtd.strip() else None
    signatures = []
    for vm_class in (XsltVM, ReferenceVM):
        monkeypatch.setattr(partial_eval_module, "XsltVM", vm_class)
        stylesheet = compile_stylesheet(case.stylesheet)
        signatures.append((
            partial_signature(stylesheet, schema) if schema else None,
            rewrite_signature(prepared, stylesheet)
            if hasattr(prepared.storage, "view_query") else None))
    assert signatures[0] == signatures[1]


def test_trace_only_run_records_the_same_events():
    """``trace=`` without ``explore``: the best rule only, real tests."""
    stylesheet = compile_stylesheet(
        FEATURES, resolver={"base": FEATURES_BASE}.__getitem__)
    document = parse_document(FEATURES_SOURCE)
    traces = []
    for vm_class in (XsltVM, ReferenceVM):
        trace = TraceRecorder()
        vm_class(stylesheet, trace=trace).transform_document(document)
        traces.append(trace_signature(trace))
    assert traces[0] == traces[1]


# -- (d) error timing is behaviour ------------------------------------------------------


class TestErrorsAreRaisedWhenReached:
    def run(self, test, body):
        return transform_to_string(sheet(
            '<xsl:template match="/"><o><xsl:if test="%s">%s</xsl:if></o>'
            "</xsl:template>" % (test, body)), "<a/>")

    @pytest.mark.parametrize("select, message", [
        ("nosuch(1)", r"unknown function nosuch\(\)"),
        ("count()", r"count\(\) expects 1 argument\(s\), got 0"),
        ("substring('a')", r"substring\(\) expects 2..3 argument\(s\), got 1"),
        ("key('a')", r"key\(\) expects 2 argument\(s\), got 1"),
        ("u:a", "undeclared namespace prefix 'u'"),
        ("$missing", r"undefined variable \$missing"),
    ])
    def test_dead_branch_is_clean_live_branch_raises(self, select, message):
        body = '<xsl:value-of select="%s"/>' % select
        assert self.run("false()", body) == "<o/>"
        with pytest.raises(XPathEvaluationError, match=message) as compiled:
            self.run("true()", body)
        stylesheet = compile_stylesheet(sheet(
            '<xsl:template match="/"><xsl:value-of select="%s"/>'
            "</xsl:template>" % select))
        with pytest.raises(XPathEvaluationError) as reference:
            ReferenceVM(stylesheet).transform_document(parse_document("<a/>"))
        assert str(compiled.value) == str(reference.value)

    def test_unknown_named_template_and_key_raise_when_reached(self):
        assert self.run("false()", '<xsl:call-template name="nope"/>') == "<o/>"
        with pytest.raises(XsltRuntimeError, match="no template named 'nope'"):
            self.run("true()", '<xsl:call-template name="nope"/>')
        with pytest.raises(XsltRuntimeError, match="no xsl:key named 'nope'"):
            self.run("true()", "<xsl:value-of select=\"key('nope', 1)\"/>")

    def test_undeclared_prefix_in_an_unmatched_pattern_never_raises(self):
        text = sheet(
            '<xsl:template match="a"><hit/></xsl:template>'
            '<xsl:template match="u:zzz" priority="-9"><never/></xsl:template>')
        assert transform_to_string(text, "<a/>") == "<hit/>"
        with pytest.raises(XPathEvaluationError, match="undeclared namespace"):
            transform_to_string(text, "<b/>")

    def test_depth_guard_trips_before_the_interpreter_limit(self):
        text = sheet(
            '<xsl:template match="/"><xsl:call-template name="down"/>'
            '</xsl:template><xsl:template name="down"><d>'
            '<xsl:call-template name="down"/></d></xsl:template>')
        with pytest.raises(XsltRuntimeError) as compiled:
            transform_to_string(text, "<a/>")
        with pytest.raises(XsltRuntimeError) as reference:
            ReferenceVM(compile_stylesheet(text)).transform_document(
                parse_document("<a/>"))
        assert str(compiled.value) == str(reference.value)
        assert 'template nesting exceeded 500' in str(compiled.value)

    def test_a_failed_run_leaves_the_vm_usable(self):
        stylesheet = compile_stylesheet(sheet(
            '<xsl:template match="bad"><xsl:value-of select="nosuch()"/>'
            '</xsl:template><xsl:template match="ok"><fine/></xsl:template>'))
        vm = XsltVM(stylesheet)
        with pytest.raises(XPathEvaluationError):
            vm.transform_document(parse_document("<bad/>"))
        assert rendered(vm.transform_document(parse_document("<ok/>"))) \
            == "<fine/>"


# -- replace, not fork ---------------------------------------------------------------------


class TestTheInterpreterIsGoneFromSrc:
    SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

    def test_no_instruction_defines_execute(self):
        pending = [Instruction]
        while pending:
            cls = pending.pop()
            assert "execute" not in vars(cls), cls
            pending.extend(cls.__subclasses__())
        assert not re.search(r"def execute\(", (
            self.SRC / "xslt" / "instructions.py").read_text())

    def test_the_vm_has_no_tree_walking_entry_points(self):
        for name in ("execute_body", "eval_select"):
            assert not hasattr(XsltVM, name)
        text = (self.SRC / "xslt" / "vm.py").read_text() \
            + (self.SRC / "xslt" / "program.py").read_text()
        assert not re.search(r"execute_body|eval_select", text)

    def test_nothing_in_src_imports_the_reference(self):
        for path in self.SRC.rglob("*.py"):
            assert "reference_vm" not in path.read_text(), path

    def test_the_program_is_a_named_runtime_slot(self):
        stylesheet = compile_stylesheet(get_case("identity").stylesheet)
        assert stylesheet.program() is stylesheet.program()
        assert "_program" in vars(stylesheet)
        assert "_program" not in Stylesheet.__getstate__(stylesheet)
        assert "_program" in (self.SRC / "xslt" / "stylesheet.py").read_text()

    def test_the_function_library_is_module_level(self):
        stylesheet = compile_stylesheet(get_case("identity").stylesheet)
        assert not hasattr(XsltVM(stylesheet), "_functions")
        assert XsltVM(stylesheet).program is XsltVM(stylesheet).program
        assert set(XSLT_FUNCTIONS) == {
            "current", "key", "generate-id", "system-property",
            "format-number", "document", "unparsed-entity-uri",
            "element-available", "function-available"}
