"""Character data in numeric contexts: rewrite ≡ VM on untyped storage.

An ``ObjectRelationalStorage`` built without ``column_types`` keeps every
leaf as text, so XPath's value semantics — ``number()`` of character
data, NaN, numeric orderings, text equality — must survive the
translation to SQL on their own: in ``BinOp`` (a text operand against a
number converts through the XPath library's ``to_number``), in the casts
the rewriter emits where XPath wants a number and the column is not
declared one (``NUMBER(...)`` under aggregates, sort keys, text-to-text
orderings) and in the planner (a text-ordered index answers text keys
only).  The gate is the paper's contract: byte-identical to functional
evaluation, or a categorized fallback — never another string, never a
raw ``TypeError``.
"""

import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Engine, TransformOptions
from repro.errors import DatabaseError
from repro.obs import MetricsRegistry, Tracer
from repro.rdb import Database
from repro.rdb.expressions import FuncCall, const
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document, serialize
from repro.xslt.stylesheet import compile_stylesheet
from repro.xslt.vm import XsltVM
from repro.xsltmark.cases import get_case
from repro.xsltmark.runner import prepare_case

DTD = "<!ELEMENT t (r*)><!ELEMENT r (v)><!ELEMENT v (#PCDATA)>"
FUNCTIONAL = TransformOptions(strategy="functional")


def sheet(body):
    return ('<xsl:stylesheet version="1.0" '
            'xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
            '<xsl:template match="/"><o>%s</o></xsl:template>'
            "</xsl:stylesheet>" % body)


def each(select, inner='[<xsl:value-of select="v"/>]'):
    return '<xsl:for-each select="%s">%s</xsl:for-each>' % (select, inner)


def value_of(expr):
    return each("t/r", '[<xsl:value-of select="%s"/>]' % expr)


#: the expressions of ISSUE 28 satellites 2-3, and their neighbours
BODIES = {
    "v > 9": each("t/r[v &gt; 9]"),
    "v >= 10": each("t/r[v &gt;= 10]"),
    "v < 10": each("t/r[v &lt; 10]"),
    "9 < v": each("t/r[9 &lt; v]"),
    "v = 10": each("t/r[v = 10]"),
    "10 = v": each("t/r[10 = v]"),
    "v != 10": each("t/r[v != 10]"),
    "v = '10'": each("t/r[v = '10']"),
    "v < '10'": each("t/r[v &lt; '10']"),
    "v + 1 = 11": each("t/r[v + 1 = 11]"),
    "v * 2": value_of("v * 2"),
    "v - 1": value_of("v - 1"),
    "v div 2": value_of("v div 2"),
    "v mod 2": value_of("v mod 2"),
    "v div 0": value_of("v div 0"),
    "{v + 1}": each("t/r", '<e a="{v + 1}"/>'),
    "sum": '<xsl:value-of select="sum(t/r/v)"/>',
    "number": value_of("number(v)"),
    "normalize-space": value_of("normalize-space(v)"),
    "sort": each("t/r", '<xsl:sort select="v" data-type="number"/>'
                        '[<xsl:value-of select="v"/>]'),
    "sort descending": each(
        "t/r", '<xsl:sort select="v" data-type="number" order="descending"/>'
               '[<xsl:value-of select="v"/>]'),
}


def both_ways(values, body, indexed=False):
    """``(rewrite result, functional text)`` over one untyped document."""
    db = Database()
    storage = ObjectRelationalStorage(db, schema_from_dtd(DTD), "u")
    storage.load(parse_document(
        "<t>%s</t>" % "".join("<r><v>%s</v></r>" % v for v in values)))
    if indexed:
        storage.create_value_index("v")
        db.analyze()
    engine = Engine(db, tracer=Tracer(), metrics=MetricsRegistry())
    functional = engine.transform(storage, sheet(body), options=FUNCTIONAL)
    rewritten = engine.transform(storage, sheet(body))
    return rewritten, "".join(functional.serialized_rows())


def check(values, name, indexed=False):
    rewritten, expected = both_ways(values, BODIES[name], indexed)
    assert "".join(rewritten.serialized_rows()) == expected, (name, values)
    # the same string, or a fallback that says why — nothing in between
    assert rewritten.strategy == "sql-rewrite" \
        or rewritten.fallback_category, (name, values)
    return rewritten


@pytest.fixture(autouse=True)
def quiet_fallbacks():
    logger = logging.getLogger("repro.obs")
    level = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(level)


@pytest.mark.parametrize("indexed", (False, True))
@pytest.mark.parametrize("name", sorted(BODIES))
def test_the_issue_document(name, indexed):
    """``9, 10, abc, 10.0``: ``v > 9`` answered ``[abc]``, ``v = 10``
    missed ``10.0``, ``v * 2`` printed ``33``-style repeats and the
    arithmetic forms escaped as ``TypeError``."""
    rewritten = check(["9", "10", "abc", "10.0"], name, indexed)
    assert rewritten.strategy == "sql-rewrite"  # all of these rewrite


def test_the_answers_themselves():
    def text(name, values=("9", "10", "abc", "10.0")):
        return "".join(check(list(values), name).serialized_rows())

    assert text("v > 9") == "<o>[10][10.0]</o>"
    assert text("v = 10") == "<o>[10][10.0]</o>"
    assert text("v != 10") == "<o>[9][abc]</o>"  # NaN != 10 holds
    assert text("v * 2", ["3"]) == "<o>[6]</o>"
    assert text("v * 2", ["abc"]) == "<o>[NaN]</o>"
    assert text("sum") == "<o>NaN</o>"
    assert text("sum", ["9", "10", "10.0"]) == "<o>29</o>"
    assert text("number", ["007"]) == "<o>[7]</o>"
    assert text("normalize-space", ["  a   b  "]) == "<o>[a b]</o>"
    assert text("sort") == "<o>[abc][9][10][10.0]</o>"


#: top-level numbers over the typed ``dbonerow`` document (ids 1..20):
#: the row prints as XPath prints the number, and ``div`` is XPath's
DBONEROW_SCALARS = {
    "sum(table/row/id) * 1000000000000000000": "210000000000000000000",
    "sum(table/row/id) div 0": "Infinity",
    "(0 - sum(table/row/id)) div 0": "-Infinity",
    "0 div 0": "NaN",
    "sum(table/row/id) div 8": "26.25",
}


@pytest.mark.parametrize("select", sorted(DBONEROW_SCALARS))
def test_top_level_numbers_print_like_the_vm(select):
    prepared = prepare_case(get_case("dbonerow"), 20)
    text = ('<xsl:stylesheet version="1.0" '
            'xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
            '<xsl:template match="/"><xsl:value-of select="%s"/>'
            "</xsl:template></xsl:stylesheet>" % select)
    rewritten = Engine(prepared.db).transform(prepared.storage, text)
    document = prepared.storage.materialize(
        prepared.storage.document_ids()[0])
    vm = serialize(XsltVM(compile_stylesheet(text)).transform_document(
        document))
    assert rewritten.strategy == "sql-rewrite"
    assert "".join(rewritten.serialized_rows()) == vm \
        == DBONEROW_SCALARS[select]


def test_xpath_div_beside_sql_slash():
    """The rewrite's ``DIV`` is XPath's (NULL still in, NULL out); SQL
    text's ``/`` keeps SQL's error."""
    def div(left, right):
        return FuncCall("DIV", [const(left), const(right)]).evaluate({})

    assert div(1, 0) == float("inf")
    assert div("abc", 2) != div("abc", 2)  # NaN
    assert div(None, 0) is None and div(1, None) is None
    db = Database()
    db.sql("CREATE TABLE t (x INT)")
    db.sql("INSERT INTO t VALUES (1)")
    with pytest.raises(DatabaseError, match="division by zero"):
        db.sql("SELECT x / 0 FROM t")


def test_a_text_index_answers_text_keys_only():
    """``v = '10'`` may probe the text-ordered index; ``v = 10`` is a
    numeric comparison it cannot answer."""
    values = ["9", "10", "abc", "10.0"]
    probed = check(values, "v = '10'", indexed=True)
    scanned = check(values, "v = 10", indexed=True)
    assert probed.stats.index_probes == 1
    assert scanned.stats.index_probes == 0


integers = st.integers(min_value=-50, max_value=50).map(str)
decimals = st.builds("%d.%d".__mod__,
                     st.tuples(st.integers(-20, 20), st.integers(0, 99)))
words = st.text(alphabet="abcxyz e", min_size=0, max_size=4)
padded = st.builds("%s%s%s".__mod__, st.tuples(
    st.sampled_from(["", " ", "  "]),
    st.one_of(integers, decimals, st.sampled_from(["007", "1e3", "-", ".5",
                                                   "5.", "a  b"])),
    st.sampled_from(["", " ", "\n"])))
documents = st.lists(st.one_of(integers, decimals, words, padded),
                     min_size=0, max_size=5)


@settings(max_examples=25, deadline=None)
@given(values=documents, name=st.sampled_from(sorted(BODIES)),
       indexed=st.booleans())
def test_rewrite_equals_vm_on_generated_character_data(values, name, indexed):
    check(values, name, indexed)
