"""Ingest goldens: what each storage stores, pinned as digests.

``ingest_goldens.json`` holds, per corpus document — the 40 XSLTMark
corpora at 0, 1 and 12 rows and the tree corpus of
:mod:`tests.rdb.tree_corpus` — per storage (object-relational over the
case's DTD where it is not recursive, tree always) and per door
(``load`` of the parsed text, ``load_stream`` of the text), the sha256 of
every table's column names and rows.  The containment-label columns
(``$start/$end/$level``, the tree's ``start/end/level``) are left out of
the digests, so the goldens pin every value something reads and nothing
else.  They were taken with the labels still stored; a change to the
shredders must pass them as they are.
"""

import hashlib
import json
import os

import pytest

from repro.rdb import Database
from repro.rdb.storage import ObjectRelationalStorage
from repro.rdb.treestorage import TreeStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document, serialize
from repro.xsltmark import ALL_CASES

from tests.rdb.tree_corpus import tree_xml

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "ingest_goldens.json")
SIZES = (0, 1, 12)
#: label columns per storage, left out of the digests
LABELS = {"or": {"$start", "$end", "$level"},
          "tree": {"start", "end", "level"}}


def corpus():
    """``{document name: (text, DTD or None)}``; None: tree storage only."""
    documents = {}
    for case in ALL_CASES:
        schema = schema_from_dtd(case.dtd)
        shreddable = not schema.is_recursive()
        for size in SIZES:
            documents["%s/%d" % (case.name, size)] = (
                serialize(case.make_document(size)),
                case if shreddable else None)
    documents["tree_corpus/1"] = (tree_xml(1), None)
    documents["tree_corpus/2x3x2"] = (tree_xml(2, depth=3, fanout=2), None)
    return documents


def table_digests(storage, kind, table_names):
    db = storage.db
    digests = {}
    for name in table_names:
        table = db.table(name)
        columns = table.schema.column_names()
        keep = [position for position, column in enumerate(columns)
                if column not in LABELS[kind]]
        rows = [[row[position] for position in keep]
                for _, row in table.scan()]
        text = json.dumps([[columns[position] for position in keep], rows])
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def document_digests(text, case):
    """``{"<storage>.<door>": {table: sha256}}`` for one document."""
    record = {}
    for door in ("load", "load_stream"):
        if case is not None:
            storage = ObjectRelationalStorage(
                Database(), schema_from_dtd(case.dtd), "s",
                column_types=case.column_types)
            _load(storage, door, text)
            record["or." + door] = table_digests(
                storage, "or",
                [binding.table_name for binding in storage.tables])
        storage = TreeStorage(Database(), "t")
        _load(storage, door, text)
        record["tree." + door] = table_digests(
            storage, "tree", [storage.table_name])
    return record


def _load(storage, door, text):
    if door == "load":
        storage.load(parse_document(text))
    else:
        storage.load_stream(text)


CORPUS = corpus()


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDENS) as handle:
        return json.load(handle)


def test_the_goldens_cover_the_corpus(goldens):
    assert sorted(goldens) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stored_rows_match_the_goldens(goldens, name):
    text, case = CORPUS[name]
    assert document_digests(text, case) == goldens[name]
