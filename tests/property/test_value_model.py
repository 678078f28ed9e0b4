"""One value rule, held to the XSLT VM (``repro.rdb.values``).

A stored value compares as XPath reads its serialized text: INT as a
number (refused at load beyond ±2^53, where XPath reads another one),
FLOAT as a number whose ±inf reads back as NaN and whose −0.0 reads as
0, TEXT as a string that ``to_number`` reads in a numeric context, NULL
as nothing.  The rewrite answers every comparison of such values — typed
code, the generic per-row rule, an index probe — and the VM is the
independent oracle: it compares with its own ``compare_values``, not with
the engine's table.

The generator is the reusable part: :func:`tables` draws the declared
types of a few leaf columns and rows of leaf texts for them,
:func:`storage_of` loads one into a typed ``ObjectRelationalStorage``
and :func:`predicates` draws comparisons of a column against a literal or
another column.
"""

import logging

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Engine, TransformOptions
from repro.errors import DatabaseError
from repro.obs import MetricsRegistry, Tracer
from repro.rdb import FLOAT, INT, TEXT, Database
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd

#: ``n`` numbers the rows; the compared leaves are optional (NULL)
COLUMNS = ("a", "b")
SCHEMA = schema_from_dtd(
    "<!ELEMENT t (r*)><!ELEMENT r (n, a?, b?)><!ELEMENT n (#PCDATA)>"
    "<!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>")
BEYOND = 2 ** 53 + 1
#: leaf texts of each declared type: FLOAT as ``repr`` spells it (the
#: storage reads it with ``float``), TEXT that reads as a number or not
LEAVES = {
    INT: st.one_of(st.integers(-3, 3), st.sampled_from(
        [10, 2 ** 53, -2 ** 53, BEYOND, -BEYOND])).map(str),
    FLOAT: st.one_of(
        st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0,
                         0.0, 1e20, 1e-7, 2.5, 3.0, -1.5]),
        st.floats(-4, 4, allow_nan=False).map(lambda value: round(value, 1)),
    ).map(repr),
    TEXT: st.sampled_from([" 3 ", "07", "1.0", "3", "-0", ".5", "2.5",
                           "NaN", "Infinity", "1e5", "x", "",
                           "9007199254740993"]),
}
LITERALS = ["0", "3", "-0", "2.5", "0.0000001", "9007199254740992",
            "9007199254740993", "100000000000000000000",
            "'3'", "'1.0'", "' 3 '", "'x'", "'NaN'", "''"]
OPERATORS = ["=", "!=", "&lt;", "&lt;=", "&gt;", "&gt;="]
FUNCTIONAL = TransformOptions(strategy="functional")


@st.composite
def tables(draw, columns=COLUMNS, max_rows=4):
    """``(types, rows)``: a declared type per column and rows of ``{column:
    leaf text or None}``."""
    types = {name: draw(st.sampled_from([INT, FLOAT, TEXT]))
             for name in columns}
    rows = draw(st.lists(st.fixed_dictionaries(
        {name: st.none() | LEAVES[kind] for name, kind in types.items()}),
        max_size=max_rows))
    return types, rows


def document_of(table):
    """The rows as ``<r>`` elements, their leaves in column order."""
    types, rows = table
    return "<t>%s</t>" % "".join(
        "<r><n>%d</n>%s</r>" % (number, "".join(
            "<%s>%s</%s>" % (name, row[name], name)
            for name in types if row[name] is not None))
        for number, row in enumerate(rows, 1))


def storage_of(table, indexed=()):
    """The table loaded into a typed storage, with a value index on each
    of the ``indexed`` columns."""
    storage = ObjectRelationalStorage(Database(), SCHEMA, "t",
                                      column_types=dict(table[0]))
    storage.load_stream(document_of(table))
    for name in indexed:
        storage.create_value_index(name)
    storage.db.analyze()
    return storage


@st.composite
def predicates(draw, columns=COLUMNS):
    """``column op operand`` or ``literal op column``: the other operand
    a literal or another column."""
    column = draw(st.sampled_from(columns))
    other = draw(st.sampled_from(LITERALS + list(columns)))
    op = draw(st.sampled_from(OPERATORS))
    if draw(st.booleans()):
        return "%s %s %s" % (other, op, column)
    return "%s %s %s" % (column, op, other)


def sheet(predicate):
    return ('<xsl:stylesheet version="1.0" '
            'xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
            '<xsl:template match="/"><o><xsl:for-each select="t/r[%s]">'
            '[<xsl:value-of select="n"/>]</xsl:for-each></o></xsl:template>'
            "</xsl:stylesheet>" % predicate)


@pytest.fixture(autouse=True)
def quiet_fallbacks():
    logger = logging.getLogger("repro.obs")
    level = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(level)


def beyond_2_53(table):
    types, rows = table
    return any(types[name] == INT and abs(int(text)) > 2 ** 53
               for row in rows for name, text in row.items()
               if text is not None)


@settings(max_examples=250, deadline=None)
@given(tables(), predicates(), st.sampled_from([(), ("a",), ("a", "b")]))
# a stored FLOAT ±inf reads back from ``Infinity`` as NaN
@example(({"a": FLOAT, "b": TEXT}, [{"a": "inf", "b": None},
                                    {"a": "-inf", "b": None}]),
         "a &gt; 0", ("a",))
# two nodes are equal as text, whatever their columns' types: 'NaN' = NaN
# holds, '1.0' = 1.0 and 7 = '07' do not
@example(({"a": TEXT, "b": FLOAT}, [{"a": "1.0", "b": "1.0"},
                                    {"a": "NaN", "b": "nan"},
                                    {"a": "x", "b": None}]),
         "a = b", ())
@example(({"a": INT, "b": TEXT}, [{"a": "7", "b": "07"}]), "a != b", ())
# a node against a string literal is text too: 3.0 prints as 3
@example(({"a": FLOAT, "b": INT}, [{"a": "3.0", "b": None}]),
         "a = ' 3 '", ("a",))
# XPath reads 2^53 + 1 as 2^53: INT refuses it at load
@example(({"a": INT, "b": INT}, [{"a": str(BEYOND), "b": None},
                                 {"a": str(2 ** 53), "b": None}]),
         "a = 9007199254740993", ("a",))
# −0.0 reads as 0
@example(({"a": FLOAT, "b": INT}, [{"a": "-0.0", "b": "0"}]),
         "a &gt;= b", ("a", "b"))
def test_the_rewrite_compares_as_the_vm(table, predicate, indexed):
    if beyond_2_53(table):
        with pytest.raises(DatabaseError, match="beyond"):
            storage_of(table)
        return
    storage = storage_of(table, indexed)
    engine = Engine(storage.db, tracer=Tracer(), metrics=MetricsRegistry())
    text = sheet(predicate)
    expected = engine.transform(
        storage, text, options=FUNCTIONAL).serialized_rows()
    for level in ("cost", "off"):
        rewritten = engine.transform(storage, text, options=TransformOptions(
            optimizer_level=level))
        assert rewritten.serialized_rows() == expected, (level, predicate)
        assert rewritten.strategy == "sql-rewrite" \
            or rewritten.fallback_category, (level, predicate)
