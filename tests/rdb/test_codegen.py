"""Bound row expressions are generated functions.

``expr.bind`` compiles the expression tree into one Python function
(:class:`repro.rdb.binding.Codegen`); constants and closures reach it only
as factory parameters, never as source text, and factories are cached by
source.  These tests hold the three properties that make that safe:
stylesheet text cannot become code, any depth or width of expression
binds, and the cache neither grows with repeated shapes nor past its
bound.
"""

import logging
import sys
import threading
from xml.sax.saxutils import escape, quoteattr

import pytest

from repro.api import Engine, TransformOptions
from repro.rdb import Database, Filter, Query, Scan, binding
from repro.rdb.expressions import (
    CaseWhen,
    Not,
    col,
    concat,
    const,
    eq,
    gt,
)
from repro.rdb.sqlxml import AggCall, XMLAgg, XMLElement
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document
from repro.xsltmark import ALL_CASES
from repro.xsltmark.runner import prepare_case

#: stylesheet constants that would break, or run, spliced-in source
HAZARDS = [
    "it's",
    'say "hi"',
    "back\\slash",
    "two\nlines",
    "100%s done",
    "{} braces {0}",
    'triple """ quotes',
    "__import__('os').getcwd()",
]


def _literal(text):
    """An XPath string literal of ``text`` (none holds both quotes)."""
    return "'%s'" % text if "'" not in text else '"%s"' % text


def _sheet(hazard):
    literal = _literal(hazard)
    return (
        '<xsl:stylesheet version="1.0" '
        'xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
        '<xsl:template match="/"><o>'
        '<xsl:for-each select="t/r"><r>'
        # a template constant
        "<c>%(text)s</c>"
        # a CASE branch
        "<d><xsl:choose><xsl:when test=%(test)s>%(text)s</xsl:when>"
        "<xsl:otherwise>%(text)s!</xsl:otherwise></xsl:choose></d>"
        # a || operand
        "<e><xsl:value-of select=%(concat)s/></e>"
        "</r></xsl:for-each>"
        # a predicate comparison
        "<xsl:for-each select=%(where)s>"
        '[<xsl:value-of select="v"/>]</xsl:for-each>'
        # an XMLAgg ORDER BY key
        '<xsl:for-each select="t/r">'
        '<xsl:sort select=%(sort)s order="descending"/>'
        '<s><xsl:value-of select="v"/></s></xsl:for-each>'
        "</o></xsl:template></xsl:stylesheet>"
    ) % {
        "text": escape(hazard),
        "test": quoteattr("v = %s" % literal),
        "concat": quoteattr("concat(v, %s, v)" % literal),
        "where": quoteattr("t/r[v = %s]" % literal),
        "sort": quoteattr("concat(%s, v)" % literal),
    }


@pytest.fixture(autouse=True)
def quiet_fallbacks():
    logger = logging.getLogger("repro.obs")
    level = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(level)


@pytest.mark.parametrize("hazard", HAZARDS)
def test_stylesheet_constants_never_become_source(hazard):
    db = Database()
    storage = ObjectRelationalStorage(db, schema_from_dtd(
        "<!ELEMENT t (r*)><!ELEMENT r (v)><!ELEMENT v (#PCDATA)>"), "u")
    storage.load(parse_document("<t>%s</t>" % "".join(
        "<r><v>%s</v></r>" % escape(value)
        for value in (hazard, "plain", hazard + "%"))))
    engine = Engine(db)
    text = _sheet(hazard)
    rewritten = engine.transform(storage, text)
    functional = engine.transform(
        storage, text, options=TransformOptions(strategy="functional"))
    assert rewritten.strategy == "sql-rewrite", rewritten.fallback_reason
    assert rewritten.serialized_rows() == functional.serialized_rows()
    output = "".join(rewritten.serialized_rows())
    assert output.count("[%s]" % escape(hazard)) == 1
    _assert_no_hazard_in_source()


def _assert_no_hazard_in_source():
    for source in binding._factories:
        for value in HAZARDS:
            assert value not in source


@pytest.mark.parametrize("hazard", HAZARDS)
def test_aggregate_constants_never_become_source(hazard):
    """The fold of an aggregate query: a SUM over an expression and an
    XMLAgg ORDER BY key, each holding the constant."""
    db = _db()
    db.sql("INSERT INTO t VALUES (4, '%s')" % hazard.replace("'", "''"))
    match = CaseWhen([(eq(col("b", "t"), const(hazard)), col("a", "t"))],
                     const(0))
    query = Query(Scan("t"), [
        (None, AggCall("SUM", match)),
        (None, XMLAgg(XMLElement("r", col("b", "t")), order_by=[
            (concat(col("b", "t"), const(hazard)), True)])),
    ])
    rows, _ = query.execute(db)
    assert rows[0][0] == 4.0
    assert "".join(rows[0][1]) == "".join(
        "<r>%s</r>" % escape(text)
        for text in sorted(["one", "two", "three", hazard],
                           key=lambda text: text + hazard, reverse=True))
    _assert_no_hazard_in_source()


def test_rebinding_the_rewritten_plans_adds_no_factory():
    """Every generated function of the 23 rewritten XSLTMark plans is
    cached by its source: binding them all again compiles nothing."""
    plans = []
    for case in ALL_CASES:
        prepared = prepare_case(case, 10)
        compiled = Engine(prepared.db).compile(prepared.storage,
                                               case.stylesheet)
        if compiled.query is not None:
            plans.append((compiled.query, prepared.db))
    assert len(plans) == 23
    for query, db in plans:
        binding.Binding(query, db, binding.Layout())
    before = list(binding._factories)
    for query, db in plans:
        binding.Binding(query, db, binding.Layout())
    assert list(binding._factories) == before


class TestDeepAndWide:
    ENV = {"t": {"a": 1.5, "b": "x"}}

    def test_a_400_term_concat_binds_flat(self):
        parts = [col("a", "t") if i % 2 else const("c%d" % i)
                 for i in range(400)]
        expected = "".join("1.5" if i % 2 else "c%d" % i for i in range(400))
        assert concat(*parts).evaluate(self.ENV) == expected

    def test_a_400_branch_case(self):
        case = CaseWhen([(eq(col("a", "t"), const(i)), const("v%d" % i))
                         for i in range(400)], const("none"))
        assert case.evaluate({"t": {"a": 399}}) == "v399"
        assert case.evaluate({"t": {"a": 0}}) == "v0"
        assert case.evaluate({"t": {"a": -1}}) == "none"

    def test_deep_nesting_splits_into_functions(self):
        """251 nested NOTs would be 251 nested brackets: past the
        parser's 200, a subtree becomes a function of its own."""
        expr = gt(col("a", "t"), const(1))
        for _ in range(251):
            expr = Not(expr)
        assert expr.evaluate(self.ENV) is False
        assert Not(expr).evaluate(self.ENV) is True

    def test_deep_case_in_else(self):
        expr = col("b", "t")
        for i in range(120):
            expr = CaseWhen([(eq(col("a", "t"), const(i)), const(i))], expr)
        assert expr.evaluate(self.ENV) == "x"
        assert expr.evaluate({"t": {"a": 7, "b": "x"}}) == 7


def _db():
    db = Database()
    db.sql("CREATE TABLE t (a INT, b TEXT)")
    for a, b in ((1, "one"), (2, "two"), (3, "three")):
        db.sql("INSERT INTO t VALUES (%d, '%s')" % (a, b))
    return db


def _query(label, threshold):
    return Query(
        Filter(Scan("t"), gt(col("a", "t"), const(threshold))),
        [(None, XMLElement("r", concat(const(label), col("b", "t")),
                           attributes=[("a", col("a", "t"))]))])


def _run(query, db):
    """The rows of one execution, which binds the query afresh."""
    rows, _ = query.execute(db)
    return [row[0] for row in rows]


class TestFactoryCache:
    def test_the_same_shape_binds_to_the_same_factories(self):
        db = _db()
        assert _run(_query("n:", 1), db) == [
            '<r a="2">n:two</r>', '<r a="3">n:three</r>']
        keys = set(binding._factories)
        # other constants, fresh objects: the same source, no new entry
        assert _run(_query("m:", 0), db) == [
            '<r a="1">m:one</r>', '<r a="2">m:two</r>', '<r a="3">m:three</r>']
        assert set(binding._factories) == keys

    def test_the_cache_stays_bounded_and_evicted_shapes_rebind(
            self, monkeypatch):
        monkeypatch.setattr(binding, "_factories", {})
        monkeypatch.setattr(binding, "_FACTORY_CACHE_SIZE", 4)
        env = {"t": {"a": 5}}
        shapes = [CaseWhen([(eq(col("a", "t"), const(i)), const(i))
                            for i in range(width)], const(-1))
                  for width in range(1, 13)]
        for width, expr in enumerate(shapes, 1):
            assert expr.evaluate(env) == (5 if width > 5 else -1)
            assert len(binding._factories) <= 4
        assert shapes[0].evaluate({"t": {"a": 0}}) == 0  # long evicted
        assert len(binding._factories) <= 4

    def test_threads_binding_at_once_share_a_bounded_cache(
            self, monkeypatch):
        """Serving threads bind plans concurrently: every bind stays
        correct and evictions never overrun the bound."""
        monkeypatch.setattr(binding, "_factories", {})
        monkeypatch.setattr(binding, "_FACTORY_CACHE_SIZE", 4)
        errors, sizes = [], []

        def bind_many(offset):
            try:
                for round_ in range(40):
                    width = 1 + (offset + round_) % 9
                    case = CaseWhen([(eq(col("a", "t"), const(i)), const(i))
                                     for i in range(width)], const(-1))
                    value = case.evaluate({"t": {"a": width - 1}})
                    if value != width - 1:
                        errors.append((width, value))
                    sizes.append(len(binding._factories))
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bind_many, args=(offset,))
                       for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(sizes) == 6 * 40 and max(sizes) <= 4
