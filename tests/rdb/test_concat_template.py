"""``XMLConcat`` binds to the one template, as ``XMLElement`` does.

Every concat — aggregated by ``XMLAgg``, in element content, or a
query's output column — renders each row through the concat's template
(one format per row, ``row_items`` of the row's values when a leaf
leaves it) instead of one piece per item.  An aggregated answer must
equal, byte for byte, the concatenation of the same concat rendered row
by row, and stay a flat list of non-empty :class:`Markup` pieces.
"""

import pytest

from repro.rdb import Database
from repro.rdb.expressions import const
from repro.rdb.sqlxml import (
    Markup, MarkupList, XMLConcat, XMLElement, XMLForest, content_markup)

ROWS = [(1, "a&", 1.5), (2, None, None), (3, "", 2.0), (4, "<b>\"", 3.0),
        (5, "%s", -0.0)]


@pytest.fixture
def db():
    db = Database()
    db.sql("CREATE TABLE t (k INT, s VARCHAR, n FLOAT)")
    for k, s, n in ROWS:
        db.sql("INSERT INTO t VALUES (%d, %s, %s)" % (
            k, "NULL" if s is None else "'%s'" % s,
            "NULL" if n is None else repr(n)))
    return db


CONCATS = [
    "XMLConcat(XMLElement(\"e\", s), s, n, 'c&')",
    "XMLConcat(s, n)",
    "XMLConcat(XMLElement(\"e\", XMLAttributes(s AS \"a\"), n), 'x')",
    "XMLConcat(XMLComment(s), XMLElement(\"f\"))",
    "XMLConcat('only')",
]


@pytest.mark.parametrize("order", ["", " ORDER BY k DESC"])
@pytest.mark.parametrize("concat", CONCATS)
def test_aggregated_concat_equals_the_rows_in_content(db, concat, order):
    rows, _ = db.sql("SELECT %s FROM t" % concat)  # in k order
    per_row = [content_markup(row[0]) for row in rows]
    if order:
        per_row.reverse()
    (value,), = db.sql("SELECT XMLAgg(%s%s) FROM t" % (concat, order))[0]
    assert type(value) is MarkupList
    assert all(type(piece) is Markup and piece for piece in value)
    assert "".join(value) == "".join(per_row)


def test_a_concat_of_empty_constants_adds_no_piece(db):
    (value,), = db.sql(
        "SELECT XMLElement(\"e\", XMLAgg(XMLConcat(''))) FROM t")[0]
    assert value == "<e/>"
    assert XMLConcat([const("")]).evaluate({}) == []
    assert XMLForest([("f", XMLConcat([const("")]))]).evaluate({}) \
        == ["<f/>"]


def test_a_bound_concat_renders_as_its_content(db):
    concat = XMLConcat([const("x&"), XMLElement("e", const(3.0)),
                        const(None), const("<")])
    assert content_markup(concat.evaluate({})) == "x&amp;<e>3</e>&lt;"


def test_an_output_column_concat_is_one_piece_per_row(db):
    # the bytes the per-item rendering wrote; every row is one piece,
    # whether its leaves all take the format or a NULL or "" leaf renders
    # it through ``_render``
    rows, _ = db.sql(
        "SELECT XMLConcat(XMLElement(\"e\", s), s, n, 'c&') FROM t")
    assert [content_markup(row[0]) for row in rows] == [
        "<e>a&amp;</e>a&amp;1.5c&amp;", "<e/>c&amp;", "<e/>2c&amp;",
        '<e>&lt;b&gt;"</e>&lt;b&gt;"3c&amp;', "<e>%s</e>%s0c&amp;"]
    for (k, _, _), (value,) in zip(ROWS, rows):
        assert type(value) is Markup, k


def test_a_concat_in_content_renders_as_the_output_column_does(db):
    rows, _ = db.sql(
        "SELECT XMLElement(\"w\", XMLConcat(XMLElement(\"e\", s), s, n,"
        " 'c&')), XMLConcat(XMLElement(\"e\", s), s, n, 'c&') FROM t")
    for wrapped, bare in rows:
        assert content_markup(wrapped) == "<w>%s</w>" % content_markup(bare)
