"""Plan goldens: "byte-identical" as a test, not a claim.

``plan_goldens.json`` holds, per XSLTMark case that compiles to
``sql-rewrite`` and per optimizer level, the sha256 of the EXPLAIN text
(``repro.rdb.plan.explain(query)``) and of ``query.to_sql()`` — the
rendering ``Query.fingerprint()``, the plan-cache / artifact keys and
``bench``'s ``core.sql_rewrite.plan_nodes`` depend on.  A refactor must
leave it alone; a PR that changes a plan on purpose regenerates it and
the diff names the cases it moved, the way ``bench/expected.json`` does
for strategies.  The 40 stylesheets only reach five operators, so an
``operators`` section pins a hand-built query per remaining one
(joins, sorts, limits, the structural pair) the same
way, and an ``xquery`` section the stage before the merge: per case (all
40) the sha256 of the generated XQuery text over the case's DTD schema —
or of ``"<stage>: <message>"`` where generation refuses — plus one
composed module (the only path through ``prefix_module``).  Regenerate
(from the repo root) with::

    PYTHONPATH=src python tests/rdb/test_plan_goldens.py
"""

import hashlib
import json
import os

import pytest

from repro.api import Engine, TransformOptions
from repro.core.combined import rewrite_xslt_over_xquery
from repro.core.pipeline import XsltRewriter
from repro.errors import RewriteError
from repro.rdb import INT, TEXT, Database
from repro.rdb.plan import explain
from repro.rdb.planner import LEVELS
from repro.rdb.sql_parser import parse_select
from repro.rdb.treestorage import TreeStorage
from repro.schema import schema_from_dtd
from repro.xquery import parse_xquery, xquery_to_text
from repro.xsltmark import ALL_CASES
from repro.xsltmark.generator import make_tree_document
from repro.xsltmark.runner import prepare_case

from tests.core.test_composition import DEPT_DTD, INNER, SHEET

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "plan_goldens.json")
SIZE = 30


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(query):
    return {"explain": _sha(explain(query)), "sql": _sha(query.to_sql())}


def digests(case):
    """``{level: {"explain": sha, "sql": sha}}`` for one case, or None
    when it does not compile to the relational rewrite."""
    prepared = prepare_case(case, SIZE)
    engine = Engine(prepared.db)
    record = {}
    for level in LEVELS:
        compiled = engine.compile(
            prepared.storage, prepared.stylesheet,
            options=TransformOptions(optimizer_level=level))
        if not compiled.is_rewritten:
            return None
        record[level] = _digest(compiled.query)
    return record


#: one query per operator the stylesheets never plan; ``line.doc`` is
#: indexed in the first catalog and not in the second
OPERATOR_SQL = {
    "index-probe-residual": (True, "SELECT l.qty FROM line l "
                             "WHERE l.doc = 3 AND l.qty > 1 AND l.id < 399"),
    "range-probe": (True, "SELECT d.name FROM doc d WHERE d.id >= 40"),
    "nested-loop-probe": (True, "SELECT d.name, l.qty FROM doc d, line l "
                          "WHERE d.id = l.doc AND l.qty > 10"),
    "hash-join-residual": (False, "SELECT d.name, l.qty FROM doc d, line l "
                           "WHERE d.id = l.doc AND l.qty > 10 "
                           "AND d.id < l.id"),
    "topn-over-join": (False, "SELECT d.name, l.qty FROM doc d, line l "
                       "WHERE d.id = l.doc AND l.qty > 40 "
                       "ORDER BY l.qty DESC, d.name LIMIT 3"),
    "sort": (True, "SELECT l.qty FROM line l ORDER BY l.qty DESC, l.id"),
    "limit": (True, "SELECT l.qty FROM line l WHERE l.qty > 2 LIMIT 5"),
}


def _line_db(index_line):
    db = Database()
    db.create_table("doc", [("id", INT), ("name", TEXT)])
    db.create_index("doc", "id")
    db.insert("doc", *[(i, "d%d" % i) for i in range(50)])
    db.create_table("line", [("id", INT), ("doc", INT), ("qty", INT)])
    if index_line:
        db.create_index("line", "doc")
    db.insert("line", *[(i, i % 50, i % 50) for i in range(400)])
    db.analyze()
    return db


def operator_digests():
    """``{name: {level: digest}}`` over :data:`OPERATOR_SQL` plus the
    structural descendant pattern (whole table, and one document)."""
    catalogs = {flag: _line_db(flag) for flag in (True, False)}
    queries = {name: (catalogs[flag], parse_select(sql))
               for name, (flag, sql) in OPERATOR_SQL.items()}
    tree_db = Database()
    storage = TreeStorage(tree_db, "t")
    for _ in range(2):
        storage.load(make_tree_document(3, fanout=2))
    tree_db.analyze()
    queries["structural"] = (
        tree_db, storage.descendant_query("node", "label"))
    queries["structural-one-doc"] = (
        tree_db, storage.descendant_query("node", "label", doc_id=2))
    return {name: {level: _digest(db.optimize(query, level=level))
                   for level in LEVELS}
            for name, (db, query) in queries.items()}


def xquery_digest(case):
    """sha256 of the XQuery text generated for one case, or of the
    refusal's ``"<stage>: <message>"``."""
    try:
        outcome = XsltRewriter().rewrite_to_xquery(
            case.stylesheet, schema_from_dtd(case.dtd))
    except RewriteError as exc:
        return _sha("%s: %s" % (exc.stage, exc))
    return _sha(outcome.xquery_text())


def composed_digest():
    composed, _ = rewrite_xslt_over_xquery(
        SHEET, parse_xquery(INNER), schema_from_dtd(DEPT_DTD))
    return _sha(xquery_to_text(composed))


def _load():
    with open(GOLDENS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_plan_and_sql_match_the_goldens(case):
    expected = _load()["cases"].get(case.name)
    actual = digests(case)
    if expected is None:
        assert actual is None, "%s now rewrites: regenerate" % case.name
        return
    assert actual is not None, "%s no longer rewrites" % case.name
    for level in LEVELS:
        assert actual[level] == expected[level], (case.name, level)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.name)
def test_generated_xquery_matches_the_goldens(case):
    assert xquery_digest(case) == _load()["xquery"]["cases"][case.name]


def test_composed_xquery_matches_the_goldens():
    assert composed_digest() == _load()["xquery"]["composed"]


def test_operator_tour_matches_the_goldens():
    expected = _load()["operators"]
    actual = operator_digests()
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], name


def test_goldens_cover_exactly_the_current_levels():
    goldens = _load()
    assert goldens["size"] == SIZE
    assert goldens["cases"], "no rewritable case recorded"
    for section in ("cases", "operators"):
        for name, record in goldens[section].items():
            assert sorted(record) == sorted(LEVELS), name


if __name__ == "__main__":
    cases = {}
    for case in ALL_CASES:
        record = digests(case)
        if record is not None:
            cases[case.name] = record
    xquery = {"cases": {case.name: xquery_digest(case) for case in ALL_CASES},
              "composed": composed_digest()}
    with open(GOLDENS, "w") as handle:
        json.dump({"size": SIZE, "cases": cases,
                   "operators": operator_digests(), "xquery": xquery},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d cases x %d levels to %s"
          % (len(cases), len(LEVELS), GOLDENS))
