"""``PathExpr.evaluate`` skips the document-order sort for a step taken
from one context node along a forward axis.  The reference is the loop it
replaced — gather, then sort and de-duplicate after *every* step — patched
over ``PathExpr.evaluate`` so nested paths inside predicates take it too.
Results must agree on order, on the absence of duplicates and on node
identity, for random documents and random location paths.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import XPathEvaluationError
from repro.xmlmodel import TreeBuilder, doc, elem, parse_document
from repro.xmlmodel.builder import comment, text
from repro.xpath import XPathContext, evaluate_xpath
from repro.xpath.ast import PathExpr
from repro.xpath.datamodel import sort_document_order, to_node_set
from repro.xpath.parser import compile_xpath


def always_sort_evaluate(self, context):
    if self.start is not None:
        nodes = to_node_set(self.start.evaluate(context), "path start")
    elif self.absolute:
        if context.node is None:
            raise XPathEvaluationError("absolute path with no context node")
        nodes = [context.node.root()]
    else:
        if context.node is None:
            raise XPathEvaluationError("relative path with no context node")
        nodes = [context.node]
    for step in self.steps:
        gathered = []
        for node in nodes:
            gathered.extend(step.select(node, context))
        nodes = sort_document_order(gathered)
    return nodes


@contextmanager
def always_sorting():
    with mock.patch.object(PathExpr, "evaluate", always_sort_evaluate):
        yield


# -- random documents -------------------------------------------------------------------

NAMES = ("a", "b", "c")

attributes = st.dictionaries(st.sampled_from(("x", "y")),
                             st.sampled_from(("1", "2")), max_size=2)
leaves = st.one_of(
    st.sampled_from(("t", "u")).map(text),
    st.just("note").map(comment),
    st.builds(lambda name, attrs: elem(name, **attrs),
              st.sampled_from(NAMES), attributes),
)
trees = st.recursive(
    leaves,
    lambda children: st.builds(
        lambda name, attrs, kids: elem(name, *kids, **attrs),
        st.sampled_from(NAMES), attributes, st.lists(children, max_size=4)),
    max_leaves=14,
)


DEEP = (
    '<root x="1"><a y="2"><b x="1"><c/>t<a x="2"><b/><c y="1">u</c></a></b>'
    '<!--note--><b><a><a x="1"><b y="2"/></a></a>t</b></a><c x="2"/>'
    '<a><c><b x="1"/><b/></c></a></root>'
)


@st.composite
def documents(draw):
    """A random document (or, one time in four, a fixed deep one — random
    trees come out shallow), numbered either way: adopted whole (attributes
    own their slots, like the parser) or copied through the builder
    (attributes share the element's, like the materialiser)."""
    if draw(st.integers(0, 3)) == 0:
        document = parse_document(DEEP)
    else:
        document = doc(elem("root", *draw(st.lists(trees, max_size=4)),
                            **draw(attributes)))
    if draw(st.booleans()):
        builder = TreeBuilder()
        builder.copy_node(document)
        document = builder.finish()
    return document


def all_nodes(document):
    nodes = []
    for node in document.iter_subtree():
        nodes.append(node)
        nodes.extend(getattr(node, "attributes", ()))
    return nodes


# -- random location paths --------------------------------------------------------------

AXES = ("child", "descendant", "descendant-or-self", "parent", "ancestor",
        "ancestor-or-self", "following-sibling", "preceding-sibling",
        "following", "preceding", "attribute", "self", "namespace")
PREDICATES = ("[1]", "[2]", "[last()]", "[position() > 1]", "[@x]", "[b]",
              "[not(a)]", "[.//c]", "[../a[1]]", "[@x = following::*/@x]")


@st.composite
def steps(draw, axis=None):
    axis = axis or draw(st.sampled_from(AXES))
    tests = ("*", "x") if axis == "attribute" else (
        "*", "a", "b", "node()", "text()")
    predicates = draw(st.lists(st.sampled_from(PREDICATES), max_size=2))
    return "%s::%s%s" % (axis, draw(st.sampled_from(tests)),
                         "".join(predicates))


@st.composite
def paths(draw):
    body = draw(steps())
    for _ in range(draw(st.integers(0, 2))):
        body += draw(st.sampled_from(("/", "//"))) + draw(steps())
    # half the paths start from exactly one node, where the sort is skipped
    start = draw(st.sampled_from(("", "", "$one/", "/", "//", "$v/", "$v//")))
    return start + body


expressions = st.one_of(
    paths(),
    st.builds("%s | %s".__mod__, st.tuples(paths(), paths())),
    st.builds("(%s | %s)/%s".__mod__, st.tuples(paths(), paths(), steps())),
    st.builds("(%s)[2]/%s".__mod__, st.tuples(paths(), steps())),
)


class TestSkippedSortIsInvisible:
    @given(documents(), expressions, st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_always_sort_reference(self, document, source, data):
        self.check(document, source, data)

    @pytest.mark.parametrize("axis", AXES)
    @given(documents(), st.sampled_from(("", "", "/*", "//*")), st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_step_from_one_node(self, axis, document, tail, data):
        """The skipped sort itself: each axis straight off the context
        node, alone or feeding one more step."""
        self.check(document, data.draw(steps(axis)) + tail, data)

    @staticmethod
    def check(document, source, data):
        nodes = all_nodes(document)
        # the deeper of two draws: near the root most axes hold one node
        context_node = max(
            data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes)),
            key=lambda node: len(list(node.ancestors())))
        # a variable holding several nodes, in no particular order
        several = data.draw(st.lists(st.sampled_from(nodes), min_size=2,
                                     max_size=5, unique_by=id))
        context = XPathContext(context_node, variables={
            "v": several, "one": [data.draw(st.sampled_from(nodes))]})
        expression = compile_xpath(source)
        got = expression.evaluate(context)
        with always_sorting():
            want = expression.evaluate(context)
        assert [id(node) for node in got] == [id(node) for node in want]
        assert len({id(node) for node in got}) == len(got)
        assert got == sort_document_order(got)


class TestReverseAxesCountNearestFirst:
    DOC = parse_document(
        '<r><a n="1"/><a n="2"><b><c/></b></a><a n="3"/><a n="4"/></r>')

    def pick(self, source, start):
        context = evaluate_xpath(start, self.DOC)[0]
        return [node.get_attribute("n") or node.name.local
                for node in evaluate_xpath(source, context)]

    def test_preceding_sibling(self):
        assert self.pick("preceding-sibling::a[1]", "/r/a[4]") == ["3"]
        assert self.pick("preceding-sibling::a[last()]", "/r/a[4]") == ["1"]
        assert self.pick("preceding-sibling::a", "/r/a[4]") == ["1", "2", "3"]

    def test_ancestor(self):
        assert self.pick("ancestor::*[1]", "//c") == ["b"]
        assert self.pick("ancestor::*[2]", "//c") == ["2"]
        assert self.pick("ancestor-or-self::*[1]", "//c") == ["c"]
        assert self.pick("ancestor::*", "//c") == ["r", "2", "b"]

    def test_preceding(self):
        assert self.pick("preceding::a[1]", "/r/a[4]") == ["3"]
        assert self.pick("preceding::*[2]", "/r/a[3]") == ["b"]

    def test_forward_axes_count_in_document_order(self):
        assert self.pick("following-sibling::a[1]", "/r/a[1]") == ["2"]
        assert self.pick("following::*[1]", "/r/a[1]") == ["2"]
        assert self.pick("descendant::*[2]", "/r/a[2]") == ["c"]

    def test_reverse_step_from_one_node_then_forward(self):
        assert self.pick("preceding-sibling::a/following-sibling::a[1]",
                         "/r/a[3]") == ["2", "3"]


class TestUnprefixedNameTest:
    """An unprefixed test never consults the context's prefix bindings."""

    DOC = parse_document(
        '<r xmlns:p="urn:p"><x k="1" p:k="2"/><p:x/><x xmlns="urn:d"/></r>')

    def test_name_matches_only_the_no_namespace_name(self):
        found = evaluate_xpath("/r/x", self.DOC)
        assert [node.name.uri for node in found] == [None]

    def test_star_matches_any_namespace(self):
        found = evaluate_xpath("/r/*", self.DOC)
        assert [node.name.uri for node in found] == [None, "urn:p", "urn:d"]

    def test_attribute_axis(self):
        assert [a.value for a in evaluate_xpath("/r/x/@k", self.DOC)] == ["1"]
        assert [a.value for a in evaluate_xpath("/r/x/@*", self.DOC)] == [
            "1", "2"]
