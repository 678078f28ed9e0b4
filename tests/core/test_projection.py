"""Projection over the emit program: the functional path builds only what
the stylesheet can reach.

A projected document must carry every node the stylesheet can touch with
the ``order`` it has in the full DOM (``generate-id()`` renders it), so
the VM's output is byte-identical; what it drops is counted, not built,
and the rows touched are the same.  (a) runs every XSLTMark case, (b)
random schemas and stylesheets, (c) the constructs that must keep
everything or the right superset, (d) pins the mask of every
object-relational ``functional_vm`` class, so an analysis that turns
conservative fails here, not only in the bench.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Engine, TransformOptions
from repro.core.projection import CONTENT, NODE
from repro.core.transform import CompiledTransform, STRATEGY_FUNCTIONAL
from repro.obs.decisions import PROJECTION
from repro.rdb import Database
from repro.rdb.plan import ExecutionStats
from repro.rdb.storage import ObjectRelationalStorage
from repro.xmlmodel import Element, NodeKind, serialize_children
from repro.xslt import compile_stylesheet
from repro.xslt.vm import XsltVM
from repro.xsltmark import ALL_CASES, get_case
from repro.xsltmark.runner import prepare_case

from tests.property.test_random_schemas import schema_and_document
from tests.rdb.test_materialize import (
    BARE,
    COUNTERS,
    FULL,
    SPARSE,
    drop_parent_indexes,
    shop_storage,
    signature,
)

FUNCTIONAL = TransformOptions(strategy="functional")
FIGURE_CASES = ("dbonerow", "avts", "metric", "chart", "total")
XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body):
    return '<xsl:stylesheet version="1.0" %s>%s</xsl:stylesheet>' % (
        XSL, body)


def forced_mask(storage, stylesheet):
    return Engine(storage.db).compile(storage, stylesheet,
                                      options=FUNCTIONAL).mask


def forced_rows(storage, stylesheet):
    """The rows of a forced-functional artifact (projected where its mask
    allows) executed over ``storage``."""
    engine = Engine(storage.db)
    compiled = engine.compile(storage, stylesheet, options=FUNCTIONAL)
    return engine.execute(storage, compiled).serialized_rows()


def outputs(stylesheet, documents):
    return [serialize_children(XsltVM(stylesheet).transform_document(doc))
            for doc in documents]


def assert_orders_kept(projected, full):
    """Every projected node is the full-DOM node with the same ``order``:
    same kind, name, value, parent and attributes kept by name; and the
    next node appended continues the same numbering."""
    by_order = {node.order: node for node in full.iter_subtree()}
    for node in projected.iter_subtree():
        twin = by_order[node.order]
        assert (node.kind, node.name, getattr(node, "value", None)) == (
            twin.kind, twin.name, getattr(twin, "value", None))
        if node.parent is not None:
            assert node.parent.order == twin.parent.order
        if node.kind == NodeKind.ELEMENT:
            attributes = {a.name: (a.value, a.order) for a in twin.attributes}
            for attribute in node.attributes:
                assert attributes[attribute.name] == (
                    attribute.value, attribute.order)
    assert projected.append(Element("x")).order == \
        full.append(Element("x")).order


def assert_projects_exactly(storage, stylesheet, mask):
    """Projected vs full materialisation: the same bytes out of the VM,
    the same orders, the same rows touched."""
    full_stats, projected_stats = ExecutionStats(), ExecutionStats()
    full = list(storage.materialize_all(stats=full_stats))
    projected = list(storage.materialize_all(stats=projected_stats,
                                             mask=mask))
    assert [getattr(projected_stats, name) for name in COUNTERS] == \
        [getattr(full_stats, name) for name in COUNTERS]
    for projected_doc, full_doc in zip(projected, full):
        assert_orders_kept(projected_doc, full_doc)
    assert outputs(stylesheet, projected) == outputs(stylesheet, full)


# -- (a) every XSLTMark case ----------------------------------------------------------


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_xsltmark_cases_project_exactly(case):
    sizes = (0, 1, 7, 150 if case.name in FIGURE_CASES else 50)
    stylesheet = compile_stylesheet(case.stylesheet)
    mask = None
    for size in sizes:
        storage = prepare_case(case, size).storage
        if not isinstance(storage, ObjectRelationalStorage):
            assert forced_mask(storage, stylesheet) is None  # CLOB
            return
        if mask is None:
            mask = forced_mask(storage, stylesheet)
            if mask is None:
                return  # nothing to drop: the full program runs
        assert_projects_exactly(storage, stylesheet, mask)
        drop_parent_indexes(storage)
        assert_projects_exactly(storage, stylesheet, mask)


# -- (b) random schemas and stylesheets -------------------------------------------------


@st.composite
def random_transforms(draw):
    schema, document = draw(schema_and_document())
    names = sorted({decl.name for decl in schema.iter_decls()})
    target, other = draw(st.lists(st.sampled_from(names), min_size=2,
                                  max_size=2))
    body = draw(st.sampled_from([
        '<xsl:template match="%s"><h><xsl:value-of select="."/></h>'
        "</xsl:template>",
        '<xsl:template match="/"><o><xsl:for-each select="//%s">'
        '<i n="{count(*)}" p="{position()}" g="{generate-id()}"/>'
        '</xsl:for-each><c><xsl:value-of select="count(//%s)"/></c></o>'
        "</xsl:template>",
        '<xsl:template match="%s"><w><xsl:apply-templates/></w>'
        "</xsl:template>",
        '<xsl:template match="/"><o><xsl:for-each select="//%s">'
        '<xsl:sort select="string(.)"/><xsl:value-of select="name()"/>'
        '<xsl:if test="../%s">+</xsl:if></xsl:for-each></o>'
        "</xsl:template>",
    ]))
    return schema, document, sheet(body.replace("%s", target, 1)
                                   .replace("%s", other))


@given(triple=random_transforms())
@settings(max_examples=40, deadline=None)
def test_random_schemas_project_exactly(triple):
    schema, document, text = triple
    storage = ObjectRelationalStorage(Database(), schema, "rp")
    storage.load(document)
    mask = forced_mask(storage, text)
    if mask is not None:
        assert_projects_exactly(storage, compile_stylesheet(text), mask)
    assert forced_rows(storage, text) == outputs(compile_stylesheet(text),
                                                 storage.materialize_all())


# -- (c) constructs that keep everything or the right superset ----------------------------

HAND_CASES = [
    # (id, stylesheet body, None = no mask, else paths that must be kept)
    ("builtin-rules-for-dept",
     '<xsl:template match="shop"><xsl:apply-templates select="dept"/>'
     "</xsl:template>",
     {"dept/dname": CONTENT, "dept/emp/ename": CONTENT,
      "dept/emp/skill": CONTENT}),
    ("value-of-a-wrapper",
     '<xsl:template match="shop"><xsl:value-of select="meta"/>'
     "</xsl:template>",
     {"meta": CONTENT}),
    ("string-of-a-subtree",
     '<xsl:template match="shop"><xsl:value-of select="string(dept)"/>'
     "</xsl:template>",
     {"dept": CONTENT}),
    ("copy-of",
     '<xsl:template match="shop"><xsl:copy-of select="dept/emp"/>'
     "</xsl:template>",
     {"dept/emp": CONTENT}),
    ("all-text",
     '<xsl:template match="/"><xsl:for-each select="//text()">'
     '<xsl:value-of select="."/>,</xsl:for-each></xsl:template>',
     {"title": CONTENT, "meta/owner": CONTENT, "tag": CONTENT,
      "dept/emp/sal": CONTENT, "info/rating": CONTENT}),
    ("wildcard-steps",
     '<xsl:template match="shop"><xsl:for-each select="*">'
     '<n c="{count(node())}" a="{count(@*)}" k="{name()}"/>'
     "</xsl:for-each></xsl:template>",
     {"title": CONTENT, "meta": NODE, "meta/owner": NODE, "tag": CONTENT,
      "tag/@weight": CONTENT, "dept/@no": CONTENT, "dept/dname": NODE}),
    ("key",
     '<xsl:key name="k" match="emp" use="ename"/>'
     '<xsl:template match="shop"><xsl:value-of select='
     "\"count(key('k', 'KING'))\"/></xsl:template>",
     {"dept/emp": NODE, "dept/emp/ename": CONTENT}),
    ("wrapper-attribute",  # the view leaves it out: the rewrite refuses
     '<xsl:template match="shop"><k><xsl:value-of select="meta/@kind"/></k>'
     "</xsl:template>",
     {"meta/@kind": CONTENT}),
    ("attribute-key",
     '<xsl:key name="w" match="@weight" use="."/>'
     '<xsl:template match="shop"><xsl:value-of select='
     "\"count(key('w', '3'))\"/></xsl:template>",
     {"tag/@weight": CONTENT}),
    ("current",
     '<xsl:template match="shop"><xsl:for-each select="dept/emp">'
     "<xsl:value-of select=\"concat(current()/ename, ':', "
     'count(current()/skill))"/>;</xsl:for-each></xsl:template>',
     {"dept/emp/ename": CONTENT, "dept/emp/skill": NODE}),
    ("global-variable",
     '<xsl:variable name="n" select="count(shop/dept/emp)"/>'
     '<xsl:template match="shop"><xsl:value-of select="$n"/>:'
     '<xsl:value-of select="title"/></xsl:template>',
     {"dept/emp": NODE, "title": CONTENT}),
    ("node-set-variable",
     '<xsl:template match="shop"><xsl:variable name="v" select="dept"/>'
     '<xsl:value-of select="count($v/emp)"/></xsl:template>',
     None),
    ("all-conditional-mode",
     '<xsl:template match="shop"><xsl:apply-templates select="dept" mode="m"/>'
     '</xsl:template><xsl:template match="dept[@no = 10]" mode="m"><x/>'
     "</xsl:template>",
     {"dept/@no": CONTENT, "dept/dname": CONTENT, "dept/emp/ename": CONTENT}),
    ("number-any",
     '<xsl:template match="shop"><xsl:for-each select="dept/emp">'
     '<xsl:number count="*" level="any"/>,</xsl:for-each></xsl:template>',
     {"title": NODE, "meta/phone": NODE, "dept/emp/skill": NODE}),
    ("preceding-axis",
     '<xsl:template match="shop"><xsl:for-each select="dept/emp">'
     '<xsl:value-of select="count(preceding::*)"/>:'
     '<xsl:value-of select="preceding::sal[1]"/>;</xsl:for-each>'
     "</xsl:template>",
     {"title": NODE, "info/since": NODE, "dept/emp/sal": CONTENT}),
    ("sibling-axes",
     '<xsl:template match="shop"><xsl:for-each select="dept">'
     '<xsl:value-of select="preceding-sibling::dept[1]/dname"/>|'
     '<xsl:value-of select="following-sibling::dept/emp[1]/@id"/>;'
     "</xsl:for-each></xsl:template>",
     {"dept/dname": CONTENT, "dept/emp/@id": CONTENT}),
    ("sort-select",
     '<xsl:template match="shop"><xsl:for-each select="dept/emp">'
     '<xsl:sort select="-sal" data-type="number"/>'
     '<xsl:value-of select="ename"/></xsl:for-each></xsl:template>',
     {"dept/emp": NODE, "dept/emp/sal": CONTENT, "dept/emp/ename": CONTENT}),
    # templates reached only through a widened axis: from the one sample
    # dept, following-sibling::dept selects nothing, so the traced run
    # never fires the mode "n" rule or the named template
    ("sibling-recursion-in-a-mode",
     '<xsl:template match="shop"><xsl:apply-templates select="dept[1]"/>'
     '</xsl:template><xsl:template match="dept"><xsl:apply-templates '
     'select="following-sibling::dept" mode="n"/></xsl:template>'
     '<xsl:template match="dept" mode="n"><xsl:value-of select="dname"/>;'
     "</xsl:template>",
     None),
    ("call-template-over-siblings",
     '<xsl:template match="shop"><xsl:for-each select="dept[1]">'
     '<xsl:for-each select="following-sibling::dept">'
     '<xsl:call-template name="t"/></xsl:for-each></xsl:for-each>'
     '</xsl:template><xsl:template name="t"><xsl:value-of select="dname"/>;'
     "</xsl:template>",
     None),
    ("apply-templates-over-preceding",
     '<xsl:template match="shop"><xsl:for-each select="dept/emp[last()]">'
     '<xsl:for-each select="preceding::emp"><xsl:apply-templates '
     'select="ename" mode="n"/></xsl:for-each></xsl:for-each>'
     '</xsl:template><xsl:template match="ename" mode="n">'
     '<xsl:value-of select="../sal"/>;</xsl:template>',
     None),
    ("generate-id-and-attributes",
     '<xsl:template match="shop"><xsl:for-each select="dept/emp">'
     '<e g="{generate-id()}" i="{@id}" s="{generate-id(skill[2])}"/>'
     "</xsl:for-each></xsl:template>",
     {"dept/emp": NODE, "dept/emp/@id": CONTENT, "dept/emp/skill": NODE}),
    # @region, before @code on the element, is never read: the projected
    # shop element carries @code alone and must still name it alike
    ("generate-id-of-an-attribute",
     '<xsl:template match="shop"><xsl:value-of select="generate-id(@code)"/>'
     "</xsl:template>",
     {"@code": CONTENT}),
]


def kept(mask, path, content):
    """Does ``mask`` keep ``path`` at least as ``content`` asks?"""
    entries = dict(mask)
    parts = path.split("/")
    for end in range(1, len(parts) + 1):
        if entries.get("/".join(parts[:end])):
            return True  # the whole subtree of an ancestor-or-self
    if content:
        return False
    return path in entries or any(key.startswith(path + "/")
                                  for key in entries)


@pytest.mark.parametrize("body,expected", [case[1:] for case in HAND_CASES],
                         ids=[case[0] for case in HAND_CASES])
def test_hand_cases_keep_what_they_read(body, expected):
    storage = shop_storage(FULL, BARE, SPARSE)
    text = sheet(body)
    mask = forced_mask(storage, text)
    if expected is None:
        assert mask is None
    else:
        assert mask is not None
        missing = [path for path, content in expected.items()
                   if not kept(mask, path, content)]
        assert missing == []
        assert_projects_exactly(storage, compile_stylesheet(text), mask)
    assert forced_rows(storage, text) == outputs(compile_stylesheet(text),
                                                 storage.materialize_all())


@pytest.mark.parametrize("body", [case[1] for case in HAND_CASES],
                         ids=[case[0] for case in HAND_CASES])
def test_hand_cases_through_a_failed_rewrite(body):
    """The same stylesheets with a construct the rewrite refuses: the
    mask then comes from the failed rewrite's partial evaluation — over
    the structure inferred from the view, shared with the forced
    compile — and equals the forced one."""
    storage = shop_storage(FULL, BARE, SPARSE)
    text = sheet(body.replace(
        'match="shop">', 'match="shop"><xsl:value-of select="position()"/>',
        1))
    engine = Engine(storage.db)
    compiled = engine.compile(storage, text)
    assert compiled.error is not None
    assert compiled.mask == forced_mask(storage, text)
    assert engine.execute(storage, compiled).serialized_rows() == outputs(
        compile_stylesheet(text), storage.materialize_all())


@pytest.mark.parametrize("body,reason", [
    ('<xsl:value-of select="count(id(\'x\'))"/>', "id()"),
    ('<xsl:value-of select="lang(\'en\')"/>', "lang()"),
    ('<xsl:value-of select="count(namespace::*)"/>', "namespace axis"),
    ('<xsl:for-each select="key(\'k\', \'A\')"><x/></xsl:for-each>',
     "key() in a dispatching select"),
    ('<xsl:variable name="v" select="title"/><xsl:value-of select="$v"/>',
     "$v can hold nodes"),
    ('<xsl:apply-templates select="tag/following-sibling::*"/>',
     "sibling, following or preceding axis"),
    ('<xsl:for-each select="title/following::*"><xsl:for-each select="*">'
     '<xsl:apply-templates select="."/></xsl:for-each></xsl:for-each>',
     "sibling, following or preceding axis"),
])
def test_unmodelled_constructs_build_the_whole_document(body, reason):
    storage = shop_storage(FULL)
    text = sheet('<xsl:key name="k" match="tag" use="."/>'
                 '<xsl:template match="shop">%s</xsl:template>' % body)
    compiled = Engine(storage.db).compile(storage, text, options=FUNCTIONAL)
    assert compiled.mask is None
    (decision,) = compiled.ledger.decisions_of(PROJECTION)
    assert decision.action == "full"
    assert reason in decision.reason


def test_strip_space_builds_the_whole_document():
    storage = shop_storage(FULL)
    text = sheet('<xsl:strip-space elements="*"/><xsl:template match="shop">'
                 '<xsl:value-of select="generate-id(title)"/></xsl:template>')
    assert forced_mask(storage, text) is None


def test_threads_racing_the_memo_fill_build_the_same_documents():
    """Four threads materialise under three masks while one keeps
    emptying the memo, so first fills race again and again under a
    10 µs switch interval; every document must match the one built
    alone."""
    storage = shop_storage(FULL, BARE, SPARSE)
    masks = [forced_mask(storage, sheet(
        '<xsl:template match="shop"><xsl:value-of select="%s"/>'
        "</xsl:template>" % select))
        for select in ("title", "count(dept/emp/skill)", "meta/@kind")]
    expected = [[signature(doc) for doc in storage.materialize_all(mask=m)]
                for m in masks]
    failures = []

    def worker(offset):
        try:
            for round_ in range(40):
                which = (offset + round_) % len(masks)
                if offset == 0 and round_ % 4 == 0:
                    storage._projections.clear()
                got = [signature(doc) for doc in
                       storage.materialize_all(mask=masks[which])]
                if got != expected[which]:
                    failures.append((offset, round_))
        except Exception as error:  # surfaced below, not lost in a thread
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_unread_nodes_are_not_built():
    storage = shop_storage(FULL)
    mask = forced_mask(storage, sheet(
        '<xsl:template match="shop"><xsl:value-of select="title"/>'
        '<xsl:value-of select="count(dept/emp)"/></xsl:template>'))
    assert dict(mask) == {"title": CONTENT, "dept": NODE, "dept/emp": NODE}
    (document,) = storage.materialize_all(mask=mask)
    shop = document.document_element
    assert shop.attributes == ()
    # a content path is its subtree as stored, attributes included
    assert [a.name.local for a in shop.find("title").attributes] == ["lang"]
    assert [child.name.local for child in shop.children] == [
        "title", "dept", "dept", "dept"]
    assert shop.find("title").string_value() == "Tools"
    assert [len(dept.children) for dept in shop.findall("dept")] == [3, 1, 0]
    assert all(emp.children == [] and emp.attributes == ()
               for dept in shop.findall("dept") for emp in dept.children)


def test_the_projected_program_is_memoised_per_mask():
    storage = shop_storage(FULL)
    mask = forced_mask(storage, sheet(
        '<xsl:template match="shop"><xsl:value-of select="title"/>'
        "</xsl:template>"))
    program = storage._projected(mask)
    assert storage._projected(frozenset(mask)) is program
    assert program is not storage._emit_program


# -- (d) the pinned masks of the functional_vm classes ------------------------------------

N, C = NODE, CONTENT
PINNED = {
    "alphabetize": None,
    "axis": {"row": N, "row/id": C},
    "backwards": {"row": N, "row/id": C},
    "bottles": {},
    "current": {"product": N, "product/name": C, "product/quantity": C},
    "encrypt": {"item": N, "item/word": C},
    "functions": None,
    "games": {"group": N, "group/gname": C, "group/entry": N},
    "identity": None,
    "keys": {"row": N, "row/state": C},
    "number": {"row": N, "row/id": C},
    "position": {"row": N},
    "queens": {},
    "reverser": {"item": N, "item/word": C},
    "tower": {},
    "trend": {"product": N, "product/quantity": C},
    "fig.dbonerow": {"row": N, "row/id": C, "row/firstname": C,
                     "row/lastname": C},
    "fig.avts": {"row": N, "row/id": C, "row/state": C, "row/city": C,
                 "row/lastname": C},
    "fig.metric": {"product": N, "product/price": C},
    "fig.chart": {"product": N, "product/name": C, "product/quantity": C},
    "fig.total": {"product": N, "product/price": C, "product/quantity": C},
}


def test_functional_vm_masks_are_pinned():
    """The classes ``bench/run.py --workload functional_vm`` runs: the
    negative-cached artifacts of the rewrite's fallbacks (their mask
    comes from the failed rewrite's partial evaluation) and the figure
    cases forced functional (partial evaluation at compile)."""
    masks = {}
    for name in PINNED:
        forced = name.startswith("fig.")
        prep = prepare_case(get_case(name.replace("fig.", "")), 3)
        engine = Engine(prep.db)
        compiled = engine.compile(prep.storage, prep.case.stylesheet,
                                  options=FUNCTIONAL if forced else None)
        assert compiled.strategy == STRATEGY_FUNCTIONAL
        assert forced or compiled.error is not None
        masks[name] = None if compiled.mask is None else dict(compiled.mask)
        if not forced:  # the fallback projects as a forced compile would
            assert compiled.mask == forced_mask(prep.storage,
                                                prep.case.stylesheet)
    assert masks == PINNED
    assert sum(mask is not None for mask in masks.values()) == 18


def test_the_ledger_and_report_say_what_the_vm_will_not_see():
    prep = prepare_case(get_case("keys"), 3)
    engine = Engine(prep.db)
    explained = str(engine.explain(prep.storage, prep.case.stylesheet))
    assert "[projection] table -> project" in explained
    result = engine.execute(prep.storage,
                            engine.compile(prep.storage, prep.case.stylesheet))
    assert ("projection: kept row (node), row/state; dropped row/id,"
            " row/firstname, row/lastname, row/street, row/city, row/zip"
            in result.report())
    one_shot = engine.transform(prep.storage, prep.case.stylesheet)
    assert ("projection: whole document (a one-shot compile builds each"
            " document once)" in one_shot.report())
    clob = prepare_case(get_case("depth"), 3)
    report = Engine(clob.db).transform(clob.storage,
                                       clob.case.stylesheet).report()
    assert "projection: whole document (a ClobStorage source" in report


def test_only_a_reused_compile_projects():
    """A request's own compile (``Engine.transform`` without a plan
    source) derives no mask — for a forced-functional or ``params``
    request that would be a whole partial evaluation per request; an
    artifact that is kept (``compile``, ``transform_many``, the serving
    tier) does."""
    prep = prepare_case(get_case("dbonerow"), 7)
    engine, storage = Engine(prep.db), prep.storage
    text = prep.case.stylesheet
    expected = engine.transform(storage, text).serialized_rows()
    for result in (engine.transform(storage, text, options=FUNCTIONAL),
                   engine.transform(storage, text, params={"p": "1"})):
        (decision,) = result.ledger.decisions_of(PROJECTION)
        assert decision.action == "full" and "one-shot" in decision.reason
        assert result.serialized_rows() == expected
    assert forced_mask(storage, text) is not None
    (many,) = engine.transform_many([storage], text, options=FUNCTIONAL)
    (decision,) = many.ledger.decisions_of(PROJECTION)
    assert decision.action == "project"
    assert many.serialized_rows() == expected


def test_the_projection_memo_is_bounded(monkeypatch):
    monkeypatch.setattr("repro.rdb.storage._PROJECTIONS_KEPT", 2)
    storage = shop_storage(FULL)
    masks = [forced_mask(storage, sheet(
        '<xsl:template match="shop"><xsl:value-of select="%s"/>'
        "</xsl:template>" % select))
        for select in ("title", "count(dept/emp/skill)", "meta/@kind")]
    for mask in masks:
        storage._projected(mask)
        assert 1 <= len(storage._projections) <= 2
    assert list(storage._projections) == [masks[2]]
    assert [signature(doc) for doc in storage.materialize_all(mask=masks[0])] \
        == [signature(doc) for doc in
            shop_storage(FULL).materialize_all(mask=masks[0])]


def test_a_rewritten_artifact_computes_no_mask():
    prep = prepare_case(get_case("dbonerow"), 3)
    compiled = Engine(prep.db).compile(prep.storage, prep.case.stylesheet)
    assert compiled.is_rewritten and compiled.mask is None
    assert not compiled.ledger.decisions_of(PROJECTION)


def test_an_unprojected_artifact_still_runs_the_full_document():
    prep = prepare_case(get_case("keys"), 7)
    engine = Engine(prep.db)
    compiled = engine.compile(prep.storage, prep.case.stylesheet)
    full = CompiledTransform(compiled.stylesheet, STRATEGY_FUNCTIONAL)
    assert engine.execute(prep.storage, compiled).serialized_rows() == \
        engine.execute(prep.storage, full).serialized_rows()


def test_empty_and_markup_text_survive_projection():
    storage = shop_storage(SPARSE, FULL.replace("Ann", " &lt;&amp; "))
    text = sheet('<xsl:template match="shop"><xsl:value-of select='
                 '"concat(meta/owner, count(tag), dept[1]/dname)"/>'
                 "</xsl:template>")
    assert_projects_exactly(storage, compile_stylesheet(text),
                            forced_mask(storage, text))
