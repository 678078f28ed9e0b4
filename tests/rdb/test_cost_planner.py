"""Cost-based planning: access paths, join strategies, Top-N fusion."""

import pytest

from repro.errors import PlanError
from repro.obs.decisions import (
    ACCESS_PATH,
    JOIN_STRATEGY,
    TOPN_FUSION,
    DecisionLedger,
)
from repro.rdb import (
    Database,
    Filter,
    HashJoin,
    IndexScan,
    INT,
    Limit,
    NestedLoopJoin,
    Scan,
    TEXT,
    TopN,
)
from repro.rdb.plan import explain
from repro.rdb.planner import LEVELS, normalize_level, optimize_query
from repro.rdb.sql_parser import parse_select


def make_db(docs=50, lines=400, index_line=True):
    db = Database()
    db.create_table("doc", [("id", INT), ("name", TEXT)])
    db.create_index("doc", "id")
    db.insert("doc", *[(i, "d%d" % i) for i in range(docs)])
    db.create_table("line", [("id", INT), ("doc", INT), ("qty", INT)])
    if index_line:
        db.create_index("line", "doc")
    db.insert("line", *[(i, i % docs, i % 50) for i in range(lines)])
    return db


def plan_of(db, sql, level="cost", ledger=None):
    return db.optimize(parse_select(sql), level=level, ledger=ledger).plan


class TestAccessPath:
    def test_selective_equality_uses_index(self):
        db = make_db()
        db.analyze()
        plan = plan_of(db, "SELECT l.qty FROM line l WHERE l.doc = 3")
        assert isinstance(plan, IndexScan)

    def test_unindexed_predicate_stays_sequential(self):
        db = make_db()
        db.analyze()
        plan = plan_of(db, "SELECT l.qty FROM line l WHERE l.qty > 10")
        assert isinstance(plan, Filter)
        assert isinstance(plan.child, Scan)

    def test_residual_is_one_filter_not_a_chain(self):
        # satellite: rewrites used to stack one Filter per residual conjunct
        db = make_db()
        db.analyze()
        sql = ("SELECT l.qty FROM line l "
               "WHERE l.doc = 3 AND l.qty > 1 AND l.id < 399")
        plan = plan_of(db, sql)
        assert isinstance(plan, Filter)
        assert not isinstance(plan.child, Filter)
        assert isinstance(plan.child, IndexScan)

    def test_decision_lists_alternatives(self):
        db = make_db()
        db.analyze()
        ledger = DecisionLedger()
        plan_of(db, "SELECT l.qty FROM line l WHERE l.doc = 3",
                ledger=ledger)
        decisions = ledger.decisions_of(kind=ACCESS_PATH)
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.action.startswith("index-scan(")
        assert decision.detail["analyzed"] is True
        assert decision.detail["table_rows"] == 400
        assert any("seq-scan" in alt
                   for alt in decision.detail["alternatives"])

    def test_estimates_stamped_and_rendered(self):
        db = make_db()
        db.analyze()
        plan = plan_of(db, "SELECT l.qty FROM line l WHERE l.doc = 3")
        assert plan.estimated_rows == pytest.approx(8.0, rel=0.5)
        assert plan.estimated_cost > 0
        assert "est rows=" in explain(plan)


class TestJoinStrategy:
    SQL = ("SELECT d.name, l.qty FROM doc d, line l "
           "WHERE d.id = l.doc AND l.qty > 10")

    def test_unindexed_inner_picks_hash(self):
        # without an index on line.doc the nested-loop probe re-scans the
        # whole inner table per outer row; the hash build wins easily
        db = make_db(docs=50, lines=400, index_line=False)
        db.analyze()
        plan = plan_of(db, self.SQL)
        assert isinstance(plan, HashJoin)

    def test_indexed_inner_prefers_nested_loop_probe(self):
        db = make_db(docs=50, lines=400)
        db.analyze()
        plan = plan_of(db, self.SQL)
        assert isinstance(plan, NestedLoopJoin)

    def test_small_outer_prefers_indexed_nested_loop(self):
        db = make_db(docs=3, lines=400)
        db.analyze()
        plan = plan_of(db,
                       "SELECT d.name, l.qty FROM doc d, line l "
                       "WHERE d.id = l.doc")
        assert isinstance(plan, NestedLoopJoin)
        # the equi conjunct became a correlated index probe on the inner
        assert isinstance(plan.right, IndexScan)

    def test_hash_join_output_matches_unoptimized(self):
        db = make_db(docs=50, lines=400, index_line=False)
        db.analyze()
        query = parse_select(self.SQL)
        baseline, _ = db.execute(query, level="off")
        rows, stats = db.execute(query, level="cost")
        assert rows == baseline
        assert stats.hash_build_rows > 0
        assert stats.hash_probes == 50

    def test_join_decision_compares_costs(self):
        db = make_db(index_line=False)
        db.analyze()
        ledger = DecisionLedger()
        plan_of(db, self.SQL, ledger=ledger)
        decisions = ledger.decisions_of(kind=JOIN_STRATEGY)
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.action == "hash-join"
        assert decision.detail["hash_cost"] < decision.detail[
            "nested_loop_cost"]
        assert "beats" in decision.reason

    def test_no_equi_conjunct_falls_back_to_nested_loop(self):
        db = make_db(docs=10, lines=40)
        ledger = DecisionLedger()
        plan = plan_of(db,
                       "SELECT d.name FROM doc d, line l "
                       "WHERE d.id < l.doc", ledger=ledger)
        assert isinstance(plan, NestedLoopJoin)
        decision = ledger.decisions_of(kind=JOIN_STRATEGY)[0]
        assert "no equi-join conjunct" in decision.reason


class TestTopNFusion:
    SQL = "SELECT l.qty FROM line l ORDER BY l.qty DESC LIMIT 5"

    def test_limit_over_sort_becomes_topn(self):
        db = make_db()
        plan = plan_of(db, self.SQL)
        assert isinstance(plan, TopN)
        assert plan.count == 5

    def test_rows_match_full_sort(self):
        db = make_db()
        query = parse_select(self.SQL)
        baseline, _ = db.execute(query, level="off")
        rows, stats = db.execute(query, level="cost")
        assert rows == baseline
        assert stats.topn_heap_rows == 400

    def test_bare_limit_is_not_fused(self):
        db = make_db()
        plan = plan_of(db, "SELECT l.qty FROM line l LIMIT 5")
        assert isinstance(plan, Limit)

    def test_fusion_recorded(self):
        db = make_db()
        ledger = DecisionLedger()
        plan_of(db, self.SQL, ledger=ledger)
        decision = ledger.decisions_of(kind=TOPN_FUSION)[0]
        assert decision.action == "top-n"
        assert decision.detail["topn_cost"] < decision.detail["sort_cost"]


class TestLevels:
    def test_normalize(self):
        assert normalize_level(None) == "cost"
        for level in LEVELS:
            assert normalize_level(level) == level
        for unknown in ("aggressive", "rules"):
            with pytest.raises(PlanError):
                normalize_level(unknown)

    def test_off_returns_query_untouched(self):
        db = make_db()
        query = parse_select("SELECT l.qty FROM line l WHERE l.doc = 3")
        assert optimize_query(query, db, level="off") is query

    def test_all_levels_agree_on_rows(self):
        db = make_db()
        db.analyze()
        sql = ("SELECT d.name, l.qty FROM doc d, line l "
               "WHERE d.id = l.doc AND l.qty > 40 "
               "ORDER BY l.qty, d.name LIMIT 7")
        query = parse_select(sql)
        results = [db.execute(query, level=level)[0] for level in LEVELS]
        assert len(results) == 2 and results[0] == results[1]

    def test_cost_is_the_default(self):
        db = make_db()
        db.analyze()
        query = parse_select(
            "SELECT l.qty FROM line l ORDER BY l.qty LIMIT 2")
        assert isinstance(db.optimize(query).plan, TopN)


class TestDatabaseExplain:
    SQL = ("SELECT d.name, l.qty FROM doc d, line l "
           "WHERE d.id = l.doc AND l.qty > 40 "
           "ORDER BY l.qty DESC LIMIT 3")

    def test_explain_sql_text_shows_estimates_and_ids(self):
        db = make_db(index_line=False)
        db.analyze()
        text = db.explain(self.SQL)
        assert "TopN" in text and "HashJoin" in text
        assert "est rows=" in text
        assert "#1 " in text
        assert "actual" not in text

    def test_explain_analyze_shows_actuals_next_to_estimates(self):
        db = make_db(index_line=False)
        db.analyze()
        text = db.explain(self.SQL, analyze=True)
        assert "est rows=" in text and "actual rows=" in text
        assert "Execution:" in text

    def test_explain_respects_level(self):
        db = make_db(index_line=False)
        text = db.explain(self.SQL, level="off")
        assert "NestedLoopJoin" in text
        assert "TopN" not in text


class TestLimitParsing:
    def test_limit_requires_nonnegative_integer(self):
        db = make_db()
        from repro.rdb.sql_parser import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            parse_select("SELECT l.qty FROM line l LIMIT -1")
        rows, _ = db.sql("SELECT l.qty FROM line l LIMIT 0")
        assert rows == []
