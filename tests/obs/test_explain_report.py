"""The unified ExplainReport surface.

Every ``explain`` method — ``Engine``, ``Database``, ``Query``,
``TransformResult`` — returns one
:class:`repro.obs.explain.ExplainReport`; these tests pin the structured
object (sections, to_dict/to_json export, decision interleaving) and
what each door puts in it.
"""

import re

import pytest

from repro.api import Engine, TransformOptions
from repro.errors import PlanError
from repro.obs import MetricsRegistry, Tracer
from repro.obs.explain import ExplainReport
from repro.rdb import Database, INT
from repro.rdb.expressions import Const, col, gt
from repro.rdb.plan import Filter, Query, Scan
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document
from repro.xsltmark import get_case
from repro.xsltmark.runner import prepare_case

from tests.core.paper_example import (
    DEPT_DTD,
    DEPT_DOC_1,
    DEPT_DOC_2,
    EXAMPLE1_STYLESHEET,
)


def make_storage(docs=(DEPT_DOC_1, DEPT_DOC_2)):
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    for doc in docs:
        storage.load(parse_document(doc))
    return db, storage


def make_plain_db():
    db = Database()
    db.create_table("t", [("id", INT)])
    for i in range(10):
        db.insert("t", (i,))
    return db


class TestEngineExplain:
    def test_returns_structured_report(self):
        db, storage = make_storage()
        report = Engine(db).explain(storage, EXAMPLE1_STYLESHEET)
        assert isinstance(report, ExplainReport)
        assert report.strategy == "sql-rewrite"
        assert report.query is not None
        assert report.stats is None  # not analyzed: no execution section

    def test_render_sections_in_order(self):
        db, storage = make_storage()
        text = Engine(db).explain(storage, EXAMPLE1_STYLESHEET).render()
        positions = [text.index(marker) for marker in (
            "strategy: sql-rewrite", "rewrite decisions:", "plan:",
        )]
        assert positions == sorted(positions)
        assert "Execution:" not in text

    def test_analyze_adds_actuals_and_execution(self):
        db, storage = make_storage()
        report = Engine(db).explain(storage, EXAMPLE1_STYLESHEET,
                                    analyze=True)
        assert report.profile is not None
        text = report.render()
        assert "actual" in text
        assert "Execution:" in text

    def test_decorrelation_decision_is_interleaved_at_the_join(self):
        db, storage = make_storage()
        text = Engine(db).explain(storage, EXAMPLE1_STYLESHEET).render()
        lines = text.splitlines()
        anchored = [
            index for index, line in enumerate(lines)
            if "<- [decorrelate]" in line
        ]
        assert anchored, text
        # the annotation sits under its anchoring HashLeftJoin plan line
        # (possibly below other decisions anchored to the same node)
        index = anchored[0]
        while index > 0 and "<- [" in lines[index]:
            index -= 1
        assert "HashLeftJoin" in lines[index]

    def test_to_dict_exports_plan_tree_and_decisions(self):
        db, storage = make_storage()
        record = Engine(db).explain(storage, EXAMPLE1_STYLESHEET).to_dict()
        assert record["strategy"] == "sql-rewrite"
        assert record["sql"].startswith("SELECT")
        plan = record["plan"]
        assert plan["op"] == "HashLeftJoin"
        assert plan["outer"] is True
        assert len(plan["children"]) == 2
        kinds = {d["kind"] for d in record["decisions"]}
        assert "decorrelate" in kinds

    def test_to_json_round_trips(self):
        import json

        db, storage = make_storage()
        report = Engine(db).explain(storage, EXAMPLE1_STYLESHEET,
                                    analyze=True)
        record = json.loads(report.to_json())
        assert record["version"] == 1
        assert "execution" in record
        assert record["plan"]["actual_rows"] == 2

    @pytest.mark.parametrize("enabled", (True, False))
    def test_analyze_reports_actuals_whatever_the_tracer(self, enabled):
        """EXPLAIN ANALYZE profiles its run even under a disabled
        tracer: every plan node has its actuals and Q-error, and the
        report has the Q-error section."""
        prepared = prepare_case(get_case("avts"), 20)
        report = Engine(prepared.db, tracer=Tracer(enabled=enabled),
                        metrics=MetricsRegistry()).explain(
            prepared.storage, prepared.case.stylesheet, analyze=True)
        text = report.render()
        node_lines = [line for line in text.splitlines()
                      if "(est rows=" in line]
        assert len(node_lines) == 4
        assert all(re.search(r"\(actual rows=\d+ .* q=[\d.]+\)", line)
                   for line in node_lines), text
        assert "plan feedback (Q-error):" in text
        record = report.to_dict()
        assert record["feedback"]["max_q_error"] == pytest.approx(2.0)

    def test_contains_and_str_delegate_to_render(self):
        db, storage = make_storage()
        report = Engine(db).explain(storage, EXAMPLE1_STYLESHEET)
        assert "strategy: sql-rewrite" in report
        assert str(report) == report.render()


class TestDatabaseExplain:
    def test_bare_query_report_has_no_transform_sections(self):
        db = make_plain_db()
        report = db.explain("SELECT id FROM t WHERE id > 4")
        assert isinstance(report, ExplainReport)
        text = report.render()
        assert text.splitlines()[0].startswith("QUERY")
        assert "strategy:" not in text

    def test_analyze_appends_execution_line(self):
        db = make_plain_db()
        text = db.explain("SELECT id FROM t WHERE id > 4",
                          analyze=True).render()
        assert text.splitlines()[-1].startswith("Execution: ")


class TestQueryExplain:
    def test_returns_report(self):
        db = make_plain_db()
        query = db.optimize(
            Query(Filter(Scan("t"), gt(col("id", "t"), Const(4))),
                  [("id", col("id", "t"))])
        )
        report = query.explain(db=db, analyze=True)
        assert isinstance(report, ExplainReport)
        assert report.stats is not None

    def test_analyze_without_db_rejected(self):
        query = Query(Scan("t"), [("id", col("id", "t"))])
        with pytest.raises(PlanError):
            query.explain(analyze=True)


class TestTransformResultExplain:
    def test_explain_carries_execution_state(self):
        db, storage = make_storage()
        result = Engine(db).transform(storage, EXAMPLE1_STYLESHEET)
        report = result.explain()
        assert isinstance(report, ExplainReport)
        assert report.stats is not None
        assert "Execution:" in report.render()
