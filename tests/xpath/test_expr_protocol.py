"""The structural protocol every expression node speaks, as a gate.

``rebuilt(fn)`` is the one tree copier (rebasing, ``current()``
replacement, renaming and predicate stripping are all built on it), so a
node class that forgets to declare a part would silently drop a subtree
from every pass.  Checked here for every class reachable from
``Expr.__subclasses__()`` plus the records that hold expressions (``Step``
and the three pattern classes): a future class with no instance in the
corpus fails until one is added.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partial_eval import partially_evaluate
from repro.core.xquery_gen import generate_xquery
from repro.schema import schema_from_dtd
from repro.xpath import ast as xp
from repro.xpath.parser import parse_xpath
from repro.xpath.patterns import PathPattern, Pattern, StepPattern, parse_pattern
from repro.xquery import parse_xquery
from repro.xslt import compile_stylesheet

from tests.core.paper_example import DEPT_DTD, EXAMPLE1_STYLESHEET
from tests.xslt.test_compiled_vm import node_sets, values

XPATHS = (
    "a[x]/b[y][1]/c | //d", "$v[2]/e", "(a | b)[last()]", "-x + 1",
    "count(emp[sal > 100]) * 2", "concat('a', \"b'c\", 3.5)", "/", "..",
)
XQUERIES = (  # one per XQuery node kind (and per clause kind)
    "for $i at $p in (1, 2) let $j := $i where $j > 1"
    " order by $j descending, $p return ($i, $j)",
    "if (a) then b else ()",
    "1 to count(a)",
    "some $x in a, $y in b satisfies $x = $y",
    "every $x in a satisfies $x instance of element(a)",
    '<e k="x{a}y" l="{b}{c}">t{d}<f>{g}</f></e>',
    "text {a}",
    "document {<r>{a}</r>}",
    "declare function local:f($a) { $a }; local:f(b)",
)
PATTERNS = ("emp[sal > 1]/empno[1] | /r//x[@k] | @id | /",)


def generated_module():
    stylesheet = compile_stylesheet(EXAMPLE1_STYLESHEET)
    return generate_xquery(
        partially_evaluate(stylesheet, schema_from_dtd(DEPT_DTD)))


def fields(node):
    """Every attribute value of a node, declared in ``_parts`` or not
    (the runtime handles aside)."""
    names = list(type(node).__slots__) + list(getattr(node, "__dict__", ()))
    return [getattr(node, name) for name in names
            if name not in ("_fn", "_stripped")]


def structures_in(root):
    """``root`` and every structure below it: expressions, and the records
    (steps, clauses, pattern alternatives) found in any attribute."""
    found, pending = [], [root]
    while pending:
        value = pending.pop()
        if isinstance(value, xp.Structure):
            found.append(value)
            pending.extend(fields(value))
        elif isinstance(value, (list, tuple)):
            pending.extend(value)
    return found


def held_exprs(value):
    """The expressions directly under ``value``, found by looking rather
    than by asking the node: what ``child_exprs()`` must agree with."""
    if isinstance(value, xp.Expr):
        return [value]
    if isinstance(value, xp.Structure):
        value = fields(value)
    if isinstance(value, (list, tuple)):
        return [expr for item in value for expr in held_exprs(item)]
    return []


def corpus():
    roots = [parse_xpath(text) for text in XPATHS]
    roots += [parse_pattern(text) for text in PATTERNS]
    for module in [parse_xquery(text) for text in XQUERIES] + [
            generated_module()]:
        roots.extend(module.iter_exprs())
    return [node for root in roots for node in structures_in(root)]


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


ABSTRACT = {xp.XPathExpr}
CLASSES = sorted(
    (set(subclasses(xp.Expr)) - ABSTRACT)
    | {xp.Step, StepPattern, PathPattern, Pattern},
    key=lambda cls: cls.__name__)
CORPUS = corpus()
REPLACEMENT = xp.VariableRef("zz")


def reparse(node):
    text = node.to_text()
    if isinstance(node, (StepPattern, PathPattern, Pattern)):
        return parse_pattern(text)
    if isinstance(node, xp.Step):
        return parse_xpath(text)
    if type(node).__module__ == xp.__name__:
        return parse_xpath(text)
    return parse_xquery(
        "declare function local:f($a) { $a }; declare function"
        " local:t1_dept($a) { $a }; " + text)


def check_protocol(node):
    children = node.child_exprs()
    before = pickle.dumps(node)
    text = node.to_text()

    # a part left out of ``_parts`` would be dropped by every pass
    assert sorted(map(id, children)) == sorted(
        map(id, held_exprs(fields(node))))
    assert node.rebuilt(lambda child: child) is node

    seen = []
    node.rebuilt(lambda child: seen.append(child) or child)
    assert len(seen) == len(children)
    assert all(a is b for a, b in zip(seen, children))

    subject = node.clone()
    assert type(subject) is type(node) and subject is not node
    if hasattr(subject, "__dict__"):
        subject.xq_comment = "note"
    if isinstance(subject, xp.XPathExpr):
        subject.bound()
    subject.without_predicates()
    for index in range(len(children)):
        rebuilt = subject.rebuilt(
            lambda child: REPLACEMENT if child is children[index] else child)
        assert type(rebuilt) is type(node) and rebuilt is not subject
        now = rebuilt.child_exprs()
        # `is children[index]` may hit more than once: shared literals
        assert now[index] is REPLACEMENT
        assert all(new is REPLACEMENT or new is old
                   for new, old in zip(now, children))
        if hasattr(rebuilt, "__dict__"):
            assert rebuilt.xq_comment == "note"
            assert not set(vars(rebuilt)) & {"_fn", "_stripped"}
        reparse(rebuilt)
        assert "$zz" in rebuilt.to_text()

    # neither the copies nor the handles touched the original
    node.without_predicates()
    if isinstance(node, xp.Expr):
        node.bound()
    assert node.to_text() == text
    assert all(a is b for a, b in zip(node.child_exprs(), children))
    assert getattr(node, "xq_comment", None) != "note"
    assert pickle.dumps(node) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_node_class_speaks_the_protocol(cls):
    instances = [node for node in CORPUS if type(node) is cls]
    assert instances, "no %s in the corpus: add a text that parses to one" % (
        cls.__name__)
    for node in instances:
        check_protocol(node)


@given(st.one_of(node_sets(2), values(3)))
@settings(max_examples=150, deadline=None)
def test_protocol_over_the_xpath_grammar(source):
    for node in structures_in(parse_xpath(source)):
        check_protocol(node)


def test_child_exprs_order_is_evaluation_order():
    path = parse_xpath("$s/a[p1][p2]/b[p3]")
    assert [child.to_text() for child in path.child_exprs()] == [
        "$s", "p1", "p2", "p3"]
    flwor = next(parse_xquery(XQUERIES[0]).iter_exprs())
    assert [" ".join(child.to_text().split())
            for child in flwor.child_exprs()] == [
        "( 1, 2 )", "$i", "$j > 1", "$j", "$p", "( $i, $j )"]
    element = next(parse_xquery(XQUERIES[5]).iter_exprs())
    assert [child.to_text() for child in element.child_exprs()][:4] == [
        "a", "b", "c", "d"]
