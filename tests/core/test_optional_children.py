"""End-to-end tests for optional and choice children through the rewrite
(regression: the reconstruction view used to fabricate empty elements for
NULL optional columns)."""

import pytest

from repro.api import TransformOptions
from repro.core import STRATEGY_SQL, xml_transform
from repro.rdb import Database
from repro.rdb.infer import infer_view_structure
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document

FUNCTIONAL = TransformOptions(strategy="functional")

SHEET = (
    '<xsl:stylesheet version="1.0"'
    ' xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
    '<xsl:template match="r"><o><xsl:apply-templates/></o></xsl:template>'
    '<xsl:template match="a"><A><xsl:value-of select="."/></A></xsl:template>'
    '<xsl:template match="b"><B><xsl:value-of select="."/></B></xsl:template>'
    "</xsl:stylesheet>"
)


def make_storage(dtd, docs):
    db = Database()
    storage = ObjectRelationalStorage(db, schema_from_dtd(dtd), "oc")
    for doc in docs:
        storage.load(parse_document(doc))
    return db, storage


class TestOptionalChildren:
    DTD = "<!ELEMENT r (a?, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>"
    DOCS = ["<r><b>x</b></r>", "<r><a>1</a><b>y</b></r>"]

    def test_view_omits_absent_optional(self):
        db, storage = make_storage(self.DTD, self.DOCS)
        rows, _ = db.execute(storage.make_view_query())
        assert rows[0][0] == "<r><b>x</b></r>"
        assert rows[1][0] == "<r><a>1</a><b>y</b></r>"

    def test_inferred_occurrence(self):
        _, storage = make_storage(self.DTD, self.DOCS)
        structure = infer_view_structure(storage.make_view_query())
        assert [
            (p.decl.name, p.occurs)
            for p in structure.schema.root.particles
        ] == [("a", "?"), ("b", "1")]

    def test_rewrite_equals_functional(self):
        db, storage = make_storage(self.DTD, self.DOCS)
        rewritten = xml_transform(db, storage, SHEET)
        functional = xml_transform(db, storage, SHEET, options=FUNCTIONAL)
        assert rewritten.strategy == STRATEGY_SQL
        assert rewritten.serialized_rows() == functional.serialized_rows()
        assert rewritten.serialized_rows() == [
            "<o><B>x</B></o>", "<o><A>1</A><B>y</B></o>",
        ]


class TestChoiceChildren:
    DTD = "<!ELEMENT r (a | b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>"
    DOCS = ["<r><b>hello</b></r>", "<r><a>world</a></r>"]

    def test_view_emits_only_chosen_alternative(self):
        db, storage = make_storage(self.DTD, self.DOCS)
        rows, _ = db.execute(storage.make_view_query())
        assert rows[0][0] == "<r><b>hello</b></r>"
        assert rows[1][0] == "<r><a>world</a></r>"

    def test_rewrite_equals_functional(self):
        db, storage = make_storage(self.DTD, self.DOCS)
        rewritten = xml_transform(db, storage, SHEET)
        functional = xml_transform(db, storage, SHEET, options=FUNCTIONAL)
        assert rewritten.strategy == STRATEGY_SQL
        assert rewritten.serialized_rows() == functional.serialized_rows()

    def test_copy_of_absent_child_produces_nothing(self):
        copy_sheet = (
            '<xsl:stylesheet version="1.0"'
            ' xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
            '<xsl:template match="r"><w><xsl:copy-of select="a"/></w>'
            "</xsl:template></xsl:stylesheet>"
        )
        db, storage = make_storage(self.DTD, self.DOCS)
        rewritten = xml_transform(db, storage, copy_sheet)
        functional = xml_transform(db, storage, copy_sheet,
                                   options=FUNCTIONAL)
        assert rewritten.serialized_rows() == functional.serialized_rows()
        assert rewritten.serialized_rows() == ["<w/>", "<w><a>world</a></w>"]
