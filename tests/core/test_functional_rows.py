"""What a functional row costs besides the VM's own work: no result
tree is built only to be serialized, and each input document is freed by
reference counting once its row is written."""

import gc

import pytest
from tests.core.paper_example import (
    EXAMPLE1_STYLESHEET,
    dept_emp_view_query,
    make_database,
)

from repro.api import Engine, TransformOptions
from repro.rdb import Database
from repro.rdb.treestorage import TreeStorage
from repro.xmlmodel.builder import TreeBuilder
from repro.xsltmark import get_case
from repro.xsltmark.runner import prepare_case

FORCED = TransformOptions(strategy="functional")


def warm(name, rows=50):
    """An engine, its source and a kept functional compile of ``name``
    (``tree:`` a case's document in tree storage, ``view`` the paper's
    example 1), run once."""
    if name == "view":
        db, source, sheet = (make_database(), dept_emp_view_query(),
                             EXAMPLE1_STYLESHEET)
    elif name.startswith("tree:"):
        case = get_case(name[len("tree:"):])
        db, sheet = Database(), case.stylesheet
        source = TreeStorage(db, "t")
        source.load(case.make_document(rows))
    else:
        case = get_case(name)
        prepared = prepare_case(case, rows)
        db, source, sheet = prepared.db, prepared.storage, case.stylesheet
    engine = Engine(db)
    compiled = engine.compile(source, sheet, FORCED)
    engine.execute(source, compiled)
    return engine, source, compiled


class TestNoResultTree:
    """The XSLT VM writes a functional row's markup through a
    ``MarkupWriter``: the tree-then-serialize path built one result tree
    per document."""

    @pytest.mark.parametrize("name", ["dbonerow", "avts", "total",
                                      "identity"])
    def test_a_warm_request_builds_none(self, name, monkeypatch):
        engine, storage, compiled = warm(name)
        built = [0]
        init = TreeBuilder.__init__

        def counting(self):
            built[0] += 1
            init(self)

        monkeypatch.setattr(TreeBuilder, "__init__", counting)
        result = engine.execute(storage, compiled)
        assert result.strategy == "functional"
        assert built[0] == 0


class TestDocumentsFreedByRefcount:
    """Every input node links to its parent, so a dropped document is
    cyclic garbage unless the path that owns it cuts the links: the
    collector then has nothing of a request left to trace, whatever the
    source (object-relational, CLOB ``depth``, tree storage, a view)."""

    @pytest.mark.parametrize("name", ["games", "total", "dbonerow", "avts",
                                      "identity", "depth", "tree:avts",
                                      "view"])
    def test_a_warm_request_leaves_no_cyclic_garbage(self, name):
        engine, storage, compiled = warm(name)
        gc.collect()
        gc.disable()
        try:
            result = engine.execute(storage, compiled)
            assert result.strategy == "functional"
            assert gc.collect() == 0
        finally:
            gc.enable()
