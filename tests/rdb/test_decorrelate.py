"""Unit tests for the subquery-unnesting pass (repro.rdb.decorrelate).

The engine-level behaviour (counters, index interplay, byte identity
over the whole corpus) lives in tests/rdb/test_engine.py and
tests/property/test_optimizer_equivalence.py; this file pins the pass
itself: outer-join empty-group defaults, duplicate parent keys, the
single AND-tree residual Filter, the keep-correlated reasons, ledger
records, and the copy-on-path guarantee that shared expression trees
stay correlated for every other query.
"""

import pytest

from repro.obs.decisions import DecisionLedger
from repro.rdb import Aggregate, Filter, Query, Scan, Sort
from repro.rdb.decorrelate import decorrelate_query
from repro.rdb.expressions import (
    BinOp,
    ColumnRef,
    ScalarSubquery,
    col,
    const,
    eq,
    gt,
)
from repro.rdb.plan import HashLeftJoin
from repro.rdb.sqlxml import AggCall, XMLAgg, XMLElement


def headcount_subquery():
    return Query(
        Filter(Scan("emp", "e"), eq(col("deptno", "e"), col("deptno", "d"))),
        [(None, AggCall("COUNT"))],
    )


def parent_query(subquery=None):
    return Query(
        Scan("dept", "d"),
        [(None, col("dname", "d")),
         (None, ScalarSubquery(subquery or headcount_subquery()))],
    )


def _markup(rows):
    from repro.xmlmodel import serialize

    return [
        (name, "".join(serialize(node) for node in value))
        if isinstance(value, list) else (name, value)
        for name, value in rows
    ]


def both_ways(db, query):
    """(correlated rows, decorrelated rows) for the same query."""
    correlated, stats = db.execute(query, level="off")
    assert stats.subquery_executions > 0
    decorrelated, stats = db.execute(query)
    assert stats.subquery_executions == 0
    return correlated, decorrelated


class TestOuterJoinSemantics:
    def test_parent_without_children_gets_count_zero(self, db):
        # dept 50 has no emp rows: the left-outer probe misses and the
        # empty-group default (COUNT()=0) must match the correlated probe
        db.insert("dept", (50, "RESEARCH", "DALLAS"))
        correlated, decorrelated = both_ways(db, parent_query())
        assert decorrelated == correlated
        assert ("RESEARCH", 0.0) in decorrelated

    def test_parent_without_children_gets_empty_xmlagg(self, db):
        db.insert("dept", (50, "RESEARCH", "DALLAS"))
        subquery = Query(
            Filter(Scan("emp", "e"),
                   eq(col("deptno", "e"), col("deptno", "d"))),
            [(None, XMLAgg(XMLElement("e", col("ename", "e"))))],
        )
        correlated, decorrelated = both_ways(db, parent_query(subquery))
        assert _markup(decorrelated) == _markup(correlated)
        by_name = dict(decorrelated)
        assert by_name["RESEARCH"] == []
        accounting = _markup([("ACCOUNTING", by_name["ACCOUNTING"])])[0][1]
        assert accounting == "<e>CLARK</e><e>MILLER</e>"

    def test_duplicate_parent_keys_share_the_group_row(self, db):
        # two dept rows under the same deptno: the 1:1-per-key group row
        # must be joined to each of them
        db.insert("dept", (10, "ACCOUNTING-ANNEX", "NEWARK"))
        correlated, decorrelated = both_ways(db, parent_query())
        assert decorrelated == correlated
        by_name = dict(decorrelated)
        assert by_name["ACCOUNTING"] == 2.0
        assert by_name["ACCOUNTING-ANNEX"] == 2.0

    def test_null_build_keys_never_match(self, db):
        # a child row with a NULL correlation key joins to no parent —
        # same as the correlated probe, where NULL = x is never true
        db.insert("emp", (9999, "GHOST", "NONE", 100, None))
        correlated, decorrelated = both_ways(db, parent_query())
        assert decorrelated == correlated
        assert dict(decorrelated)["ACCOUNTING"] == 2.0


class TestPlanShape:
    def test_residual_conjuncts_fold_into_one_and_tree_filter(self, db):
        # stacked Filters: correlation + two local conjuncts; the locals
        # must come back as ONE Filter carrying an AND tree, not a
        # re-stacked chain
        subquery = Query(
            Filter(
                Filter(
                    Filter(Scan("emp", "e"),
                           eq(col("deptno", "e"), col("deptno", "d"))),
                    gt(col("sal", "e"), const(2000)),
                ),
                gt(col("empno", "e"), const(0)),
            ),
            [(None, AggCall("COUNT"))],
        )
        rewritten = decorrelate_query(parent_query(subquery), db)
        assert isinstance(rewritten.plan, HashLeftJoin)
        aggregate = rewritten.plan.right
        assert isinstance(aggregate, Aggregate)
        body = aggregate.child
        assert isinstance(body, Filter)
        assert isinstance(body.child, Scan)  # single Filter, no chain
        predicate = body.predicate
        assert isinstance(predicate, BinOp) and predicate.op == "AND"
        rows, stats = db.execute(rewritten)
        assert rows == [("ACCOUNTING", 1.0), ("OPERATIONS", 1.0)]
        assert stats.subquery_executions == 0

    def test_site_becomes_column_ref_into_the_aggregate(self, db):
        rewritten = decorrelate_query(parent_query(), db)
        _, probe = rewritten.outputs[1]
        assert isinstance(probe, ColumnRef)
        assert probe.column == "v"
        assert probe.table == rewritten.plan.right.alias
        assert rewritten.plan.right.alias.startswith("dcr")


class TestKeepCorrelated:
    def kept_reason(self, db, query):
        ledger = DecisionLedger()
        rewritten = decorrelate_query(query, db, ledger=ledger)
        assert rewritten is query  # nothing rewritten: input shared back
        kept = ledger.decisions_of(kind="decorrelate")
        assert len(kept) == 1
        assert kept[0].action == "keep-correlated"
        return kept[0].reason

    def test_non_equi_correlation_is_kept(self, db):
        subquery = Query(
            Filter(Scan("emp", "e"),
                   gt(col("deptno", "e"), col("deptno", "d"))),
            [(None, AggCall("COUNT"))],
        )
        reason = self.kept_reason(db, parent_query(subquery))
        assert "non-equi" in reason

    def test_non_aggregating_output_is_kept(self, db):
        subquery = Query(
            Filter(Scan("emp", "e"),
                   eq(col("deptno", "e"), col("deptno", "d"))),
            [(None, col("ename", "e"))],
        )
        reason = self.kept_reason(db, parent_query(subquery))
        assert "aggregate" in reason

    def test_order_sensitive_body_is_kept(self, db):
        subquery = Query(
            Sort(
                Filter(Scan("emp", "e"),
                       eq(col("deptno", "e"), col("deptno", "d"))),
                [(col("sal", "e"), True)],
            ),
            [(None, AggCall("COUNT"))],
        )
        reason = self.kept_reason(db, parent_query(subquery))
        assert "Sort" in reason

    def test_uncorrelated_subquery_is_kept(self, db):
        subquery = Query(Scan("emp", "e"), [(None, AggCall("COUNT"))])
        reason = self.kept_reason(db, parent_query(subquery))
        assert "not correlated" in reason

    def test_outer_reference_outside_the_predicate_is_kept(self, db):
        # the aggregated expression itself reads the outer row: no legal
        # group-by rewrite exists
        subquery = Query(
            Filter(Scan("emp", "e"),
                   eq(col("deptno", "e"), col("deptno", "d"))),
            [(None, AggCall("SUM", col("deptno", "d")))],
        )
        reason = self.kept_reason(db, parent_query(subquery))
        assert "outer-row reference" in reason


class TestCopyOnPath:
    def test_input_query_is_never_mutated(self, db):
        query = parent_query()
        rewritten = decorrelate_query(query, db)
        assert rewritten is not query
        # the original keeps its correlated ScalarSubquery site
        assert isinstance(query.outputs[1][1], ScalarSubquery)
        rows, stats = db.execute(query, level="off")
        assert stats.subquery_executions == 2
        assert rows == [("ACCOUNTING", 2.0), ("OPERATIONS", 1.0)]

    def test_shared_expressions_stay_correlated_elsewhere(self, db):
        # regression: two Query objects sharing the SAME expression
        # objects (the combined-query entry points do this); rewriting
        # one must not corrupt the other with dangling dcr aliases
        site = ScalarSubquery(headcount_subquery())
        shared_outputs = [(None, col("dname", "d")), (None, site)]
        query_a = Query(Scan("dept", "d"), list(shared_outputs))
        query_b = Query(Scan("dept", "d"), list(shared_outputs))
        decorrelate_query(query_a, db)
        rows, stats = db.execute(query_b, level="off")
        assert stats.subquery_executions == 2
        assert rows == [("ACCOUNTING", 2.0), ("OPERATIONS", 1.0)]

    def test_untouched_query_is_returned_verbatim(self, db):
        query = Query(Scan("dept", "d"), [(None, col("dname", "d"))])
        assert decorrelate_query(query, db) is query


class TestLedger:
    def test_unnest_decision_is_recorded(self, db):
        ledger = DecisionLedger()
        rewritten = decorrelate_query(parent_query(), db, ledger=ledger)
        decisions = ledger.decisions_of(kind="decorrelate")
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.stage == "plan-optimize"
        assert decision.action == "hash-left-join + group-aggregate"
        assert decision.detail["join_keys"] == 1
        assert decision.detail["residual_conjuncts"] == 0
        assert decision.detail["group_alias"] == rewritten.plan.right.alias
        assert "SELECT" in decision.detail["subquery"]
        assert decision.provenance.sql_node is rewritten.plan

    def test_bound_variable_is_rebound_to_the_aggregate(self, db):
        ledger = DecisionLedger()
        query = parent_query()
        site = query.outputs[1][1]
        ledger.bind_sql_variable("$headcount", site)
        rewritten = decorrelate_query(query, db, ledger=ledger)
        # provenance now follows the surviving Aggregate node
        assert ledger._sql_bindings["$headcount"] is rewritten.plan.right
        decision = ledger.decisions_of(kind="decorrelate")[0]
        assert decision.subject == "$headcount"
        assert decision.detail["variable"] == "$headcount"


def emp_probe(output, *extra_conjuncts, alias="e"):
    """A correlated aggregating probe over emp for the current dept."""
    plan = Filter(Scan("emp", alias),
                  eq(col("deptno", alias), col("deptno", "d")))
    for conjunct in extra_conjuncts:
        plan = Filter(plan, conjunct)
    return ScalarSubquery(Query(plan, [(None, output)]))


def sibling_query(*sites):
    return Query(Scan("dept", "d"),
                 [(None, col("dname", "d"))]
                 + [(None, site) for site in sites])


def plan_shape(query):
    """(joins, aggregates) of a rewritten plan."""
    nodes = list(query.plan.iter_plan())
    return ([n for n in nodes if isinstance(n, HashLeftJoin)],
            [n for n in nodes if isinstance(n, Aggregate)])


class TestSiblingFusion:
    """Sibling probes over the same body and correlation share one
    Aggregate behind one HashLeftJoin — one scan instead of one each."""

    def total_like(self):
        return sibling_query(
            emp_probe(AggCall("SUM", col("sal", "e"))),
            emp_probe(AggCall("MAX", col("sal", "e"))),
            emp_probe(AggCall("COUNT")),
        )

    def test_same_body_siblings_share_one_aggregate_and_one_scan(self, db):
        query = self.total_like()
        rewritten = decorrelate_query(query, db)
        joins, aggregates = plan_shape(rewritten)
        assert len(joins) == 1 and len(aggregates) == 1
        assert [name for name, _ in aggregates[0].outputs] \
            == ["v", "v1", "v2"]
        alias = aggregates[0].alias
        for (_, expr), column in zip(rewritten.outputs[1:],
                                     ["v", "v1", "v2"]):
            assert isinstance(expr, ColumnRef)
            assert (expr.table, expr.column) == (alias, column)
        correlated, decorrelated = both_ways(db, query)
        assert decorrelated == correlated
        assert decorrelated == [("ACCOUNTING", 3750.0, 2450, 2.0),
                                ("OPERATIONS", 4900.0, 4900, 1.0)]
        _, stats = db.execute(query)
        # 2 dept rows + ONE pass over the 3 emp rows (unfused: 2 + 3 * 3)
        assert stats.rows_scanned == 5
        assert stats.hash_build_rows == 2  # one group row per dept

    def test_filtered_sibling_is_not_fused(self, db):
        # chart's shape: one probe filters the body, its sibling does not
        query = sibling_query(
            emp_probe(XMLAgg(XMLElement("e", col("ename", "e"))),
                      gt(col("sal", "e"), const(2000))),
            emp_probe(AggCall("COUNT")),
        )
        joins, aggregates = plan_shape(decorrelate_query(query, db))
        assert len(joins) == 2 and len(aggregates) == 2
        assert all(len(aggregate.outputs) == 1 for aggregate in aggregates)
        correlated, decorrelated = both_ways(db, query)
        assert [(n, _markup([(n, x)])[0][1], c)
                for n, x, c in decorrelated] \
            == [(n, _markup([(n, x)])[0][1], c) for n, x, c in correlated]

    def test_different_correlation_is_not_fused(self, db):
        other_key = ScalarSubquery(Query(
            Filter(Scan("emp", "e"),
                   eq(col("empno", "e"), col("deptno", "d"))),
            [(None, AggCall("COUNT"))],
        ))
        query = sibling_query(emp_probe(AggCall("COUNT")), other_key)
        joins, aggregates = plan_shape(decorrelate_query(query, db))
        assert len(joins) == 2 and len(aggregates) == 2

    def test_childless_parent_gets_each_columns_empty_default(self, db):
        db.insert("dept", (50, "RESEARCH", "DALLAS"))
        query = sibling_query(
            emp_probe(AggCall("SUM", col("sal", "e"))),
            emp_probe(AggCall("COUNT")),
            emp_probe(XMLAgg(XMLElement("e", col("ename", "e")))),
        )
        assert len(plan_shape(decorrelate_query(query, db))[1]) == 1
        correlated, decorrelated = both_ways(db, query)
        research = [row for row in decorrelated if row[0] == "RESEARCH"]
        assert research == [("RESEARCH", None, 0.0, [])]
        assert research == [row for row in correlated
                            if row[0] == "RESEARCH"]

    def test_duplicate_parent_keys_share_the_fused_group_row(self, db):
        db.insert("dept", (10, "ACCOUNTING-ANNEX", "NEWARK"))
        correlated, decorrelated = both_ways(db, self.total_like())
        assert decorrelated == correlated
        by_name = {row[0]: row[1:] for row in decorrelated}
        assert by_name["ACCOUNTING-ANNEX"] == by_name["ACCOUNTING"] \
            == (3750.0, 2450, 2.0)

    def test_one_aggregate_node_at_two_sites_is_counted_once(self, db):
        """A variable referenced twice puts the *same* AggCall object at
        two sites; aggregate state is keyed by id(agg), so listing it
        twice would drive it twice per row (COUNT reads double)."""
        shared = AggCall("COUNT")
        query = sibling_query(emp_probe(shared), emp_probe(shared))
        rewritten = decorrelate_query(query, db)
        _, aggregates = plan_shape(rewritten)
        assert len(aggregates) == 1
        assert [name for name, _ in aggregates[0].outputs] == ["v"]
        assert rewritten.outputs[1][1].column == "v"
        assert rewritten.outputs[2][1].column == "v"
        correlated, decorrelated = both_ways(db, query)
        assert decorrelated == correlated
        assert decorrelated[0] == ("ACCOUNTING", 2.0, 2.0)

    def test_identically_rendered_outputs_share_a_column(self, db):
        query = sibling_query(emp_probe(AggCall("SUM", col("sal", "e"))),
                              emp_probe(AggCall("SUM", col("sal", "e"))))
        _, aggregates = plan_shape(decorrelate_query(query, db))
        assert [name for name, _ in aggregates[0].outputs] == ["v"]

    def test_site_with_a_nested_probe_is_not_fused(self, db):
        """A site whose output carries its own unnestable probe gets its
        body re-wrapped in a join private to it: it neither joins nor
        hosts a shared Aggregate."""
        nested = ScalarSubquery(Query(
            Filter(Scan("emp", "m"),
                   eq(col("deptno", "m"), col("deptno", "e"))),
            [(None, AggCall("COUNT"))],
        ))
        with_nested = emp_probe(XMLAgg(XMLElement("e", nested)))
        query = sibling_query(with_nested, emp_probe(AggCall("COUNT")))
        rewritten = decorrelate_query(query, db)
        joins, aggregates = plan_shape(rewritten)
        assert len(aggregates) == 3  # two sites + the nested probe
        assert all(len(aggregate.outputs) == 1 for aggregate in aggregates)
        assert rewritten.outputs[1][1].table != rewritten.outputs[2][1].table
        correlated, decorrelated = both_ways(db, query)
        assert [(n, _markup([(n, x)])[0][1], c)
                for n, x, c in decorrelated] \
            == [(n, _markup([(n, x)])[0][1], c) for n, x, c in correlated]

    def test_each_fused_site_keeps_its_own_ledger_record(self, db):
        ledger = DecisionLedger()
        query = self.total_like()
        sites = [expr for _, expr in query.outputs[1:]]
        for index, site in enumerate(sites):
            ledger.bind_sql_variable("$v%d" % index, site)
        rewritten = decorrelate_query(query, db, ledger=ledger)
        decisions = ledger.decisions_of(kind="decorrelate")
        assert [d.subject for d in decisions] == ["$v0", "$v1", "$v2"]
        assert [d.detail["output_column"] for d in decisions] \
            == ["v", "v1", "v2"]
        aggregate = rewritten.plan.right
        for index, decision in enumerate(decisions):
            assert decision.detail["group_alias"] == aggregate.alias
            assert decision.provenance.sql_node is rewritten.plan
            assert ledger._sql_bindings["$v%d" % index] is aggregate
        assert ledger.bound_plans() == [aggregate]


class TestOptimizerGate:
    def test_off_level_runs_no_pass_whatever_the_flag_says(self, db):
        # the flag gates a pass of the cost level; "off" means as emitted
        query = parent_query()
        assert db.optimize(query, level="off", decorrelate=True) is query
        assert db.optimize(query, level="off", decorrelate=False) is query

    def test_decorrelate_false_keeps_the_probe_correlated(self, db):
        optimized = db.optimize(parent_query(), decorrelate=False)
        assert isinstance(optimized.outputs[1][1], ScalarSubquery)
