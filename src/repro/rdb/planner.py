"""Plan optimisation: the one cost-based optimizer.

This is the step that makes the paper's rewritten Table-7 query fast: the
predicate ``SAL > 2000`` over the shredded ``emp`` table becomes an
``IndexScan`` on the ``sal`` B-tree.  Two optimizer levels exist, chosen
per call (``optimize_query(..., level=...)``):

``off``
    the plan executes exactly as the rewrite emitted it (the reference
    the equivalence tests compare against);
``cost`` (the default)
    every access path and join strategy is *estimated*: per-candidate
    cardinality and cost are computed from :class:`~repro.rdb.stats.
    StatisticsCatalog` numbers (live row counts, ANALYZE distinct
    counts, min/max bounds and histograms) with textbook default
    selectivities when a table was never analyzed.  Candidates are
    Scan-plus-filter vs every matching ``IndexScan`` (with residual
    placement), and correlated ``NestedLoopJoin`` probing vs
    ``HashJoin`` on equi-join conjuncts extracted from filters sitting
    above joins.  ``Limit(Sort)`` fuses into a bounded-heap ``TopN``.
    The cheapest candidate wins and every choice — estimates,
    alternatives, winner — is recorded in the
    :class:`~repro.obs.decisions.DecisionLedger` so
    ``TransformResult.explain()`` shows *why* a path was taken.

Chosen nodes are stamped with ``estimated_rows``/``estimated_cost``,
which ``explain`` renders as ``(est rows=... cost=...)`` next to the
EXPLAIN ANALYZE actuals.  What lives here is policy — cost rules,
rewrite rules, ledger records; what an operator *is* (its expressions,
aliases, rendering) it says itself, in :mod:`repro.rdb.plan`.
"""

from __future__ import annotations

import math

from repro.errors import PlanError
from repro.rdb.expressions import (
    BinOp,
    ColumnRef,
    Const,
    ScalarSubquery,
)
from repro.rdb.plan import (
    Aggregate,
    Filter,
    HashJoin,
    HashLeftJoin,
    IndexScan,
    Limit,
    NestedLoopJoin,
    Query,
    Scan,
    Sort,
    TopN,
    static_type,
)
from repro.rdb.values import hashable, servable

_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_INDEXABLE_OPS = frozenset(["=", "<", "<=", ">", ">="])

# -- optimizer levels ----------------------------------------------------------

LEVEL_OFF = "off"
LEVEL_COST = "cost"
LEVELS = (LEVEL_OFF, LEVEL_COST)
DEFAULT_LEVEL = LEVEL_COST

# -- cost model constants ------------------------------------------------------
# Unit: the cost of reading one heap row in a sequential scan.

SEQ_ROW = 1.0         #: read one row during a full scan
INDEX_NODE = 0.25     #: descend one emulated B-tree node
INDEX_ROW = 1.0       #: fetch one heap row through an index entry
FILTER_EVAL = 0.25    #: evaluate one predicate conjunct against one row
HASH_BUILD_ROW = 1.5  #: insert one row into a hash-join build table
HASH_PROBE = 0.5      #: probe the build table with one left row
SORT_ROW = 0.5        #: per row × log2(n) comparison work in Sort/TopN

#: selectivity defaults when a table has no ANALYZE statistics
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 0.5


def normalize_level(level):
    if level is None:
        return DEFAULT_LEVEL
    if level not in LEVELS:
        raise PlanError(
            "unknown optimizer level %r (expected one of %s)"
            % (level, "/".join(LEVELS))
        )
    return level


def optimize_query(query, db, level=None, ledger=None, decorrelate=True):
    """Optimise a query's plan and, recursively, every scalar subquery
    reachable from its expressions — or, at ``level="off"``, return it
    as emitted.

    ``decorrelate`` gates the subquery-unnesting pass
    (:mod:`repro.rdb.decorrelate`) that runs ahead of the cost pass and
    turns correlated aggregating ``ScalarSubquery`` probes into
    ``HashLeftJoin`` over a grouped ``Aggregate``; ``off`` runs neither.
    """
    if normalize_level(level) == LEVEL_OFF:
        return query
    if decorrelate:
        from repro.rdb.decorrelate import decorrelate_query

        query = decorrelate_query(query, db, ledger=ledger)
    return _CostOptimizer(db, ledger).optimize_query(query)


def _split_conjuncts(predicate):
    if isinstance(predicate, BinOp) and predicate.op == "AND":
        return _split_conjuncts(predicate.left) + _split_conjuncts(
            predicate.right
        )
    return [predicate]


def _and_tree(conjuncts):
    predicate = conjuncts[0]
    for extra in conjuncts[1:]:
        predicate = BinOp("AND", predicate, extra)
    return predicate


def _scan_comparisons(conjunct, scan):
    """``(column, op, key)`` per side of an indexable comparison that is a
    column of ``scan`` against a key that does not reference it."""
    if not isinstance(conjunct, BinOp) or conjunct.op not in _INDEXABLE_OPS:
        return []
    left, right = conjunct.left, conjunct.right
    return [(column.column, op, key) for column, op, key in (
        (left, conjunct.op, right), (right, _FLIP[conjunct.op], left))
        if _is_scan_column(column, scan)
        and not _references_alias(key, scan.alias)]


def _match_index(conjunct, scan, db):
    """``column op key`` (either orientation) with an available index."""
    for column, op, key_expr in _scan_comparisons(conjunct, scan):
        index = db.find_index(scan.table_name, column)
        if index is not None and servable(
                key_expr.value_type(None) if isinstance(key_expr, Const)
                else None,
                db.table(scan.table_name).schema.column(column).exact):
            return index, op, key_expr, column
    return None


def _is_scan_column(expr, scan):
    return isinstance(expr, ColumnRef) and (
        expr.table is None or expr.table == scan.alias
    )


def _references_alias(expr, alias):
    return any(
        isinstance(node, ColumnRef) and (node.table == alias or node.table is None)
        for node in expr.iter_tree()
    )


# -- cost-based optimisation ---------------------------------------------------



def _stamp(node, rows, cost):
    node.estimated_rows = rows
    node.estimated_cost = cost
    return node


def _referenced_aliases(expr):
    """(qualified alias set, has-unqualified-or-subquery flag)."""
    aliases = set()
    opaque = False
    for node in expr.iter_tree():
        if isinstance(node, ColumnRef):
            if node.table is None:
                opaque = True
            else:
                aliases.add(node.table)
        elif isinstance(node, ScalarSubquery):
            opaque = True
    return aliases, opaque


def _is_uncorrelated(plan, own_aliases):
    """True when no expression in the subtree references an alias outside
    the subtree's own scans — i.e. the subtree produces the same rows
    regardless of the probing row, so it is safe to hash-build once."""
    for expr in plan.iter_expressions():
        aliases, opaque = _referenced_aliases(expr)
        if opaque or (aliases - own_aliases):
            return False
    return True


class _CostOptimizer:
    """One cost-based optimisation pass over a query tree."""

    STAGE = "plan-optimize"

    def __init__(self, db, ledger=None):
        self.db = db
        self.ledger = ledger
        # decisions are buffered as thunks so plan_join can discard the
        # ones recorded while costing a candidate that ends up rejected
        self._pending = []

    def _defer(self, record):
        if self.ledger is not None:
            self._pending.append(record)

    def _flush(self):
        while self._pending:
            self._pending.pop(0)()

    # -- entry points ----------------------------------------------------------

    def optimize_query(self, query):
        new_plan = self.optimize_plan(query.plan)
        # subqueries of the outputs, then those inside plan predicates
        exprs = [expr for _, expr in query.outputs]
        exprs.extend(new_plan.iter_expressions())
        for expr in exprs:
            for node in expr.iter_tree():
                if isinstance(node, ScalarSubquery):
                    node.query = self.optimize_query(node.query)
        self._flush()
        return Query(new_plan, list(query.outputs))

    def optimize_plan(self, plan):
        if isinstance(plan, Filter):
            return self.push_into(plan, [])  # collapses the filter chain
        if isinstance(plan, NestedLoopJoin):
            return self.plan_join(plan, [])
        if isinstance(plan, Limit):
            if isinstance(plan.child, Sort):
                return self.fuse_topn(plan)
            child = self.optimize_plan(plan.child)
            rows, cost = self.estimate(child)
            return _stamp(Limit(child, plan.count),
                          min(plan.count, rows), cost)
        if isinstance(plan, Sort):
            child = self.optimize_plan(plan.child)
            rows, cost = self.estimate(child)
            return _stamp(
                Sort(child, plan.keys),
                rows, cost + rows * max(1.0, math.log2(rows + 1)) * SORT_ROW,
            )
        if isinstance(plan, Aggregate):
            # optimized in place: the decorrelation pass binds this node
            # into the decision ledger by identity, so the node must
            # survive the cost pass
            plan.child = self.optimize_plan(plan.child)
            rows, cost = self.estimate(plan.child)
            group_rows = self._group_rows(plan, rows)
            return _stamp(plan, group_rows, cost + rows * FILTER_EVAL)
        if isinstance(plan, HashLeftJoin):
            # in place, for the same ledger-identity reason as Aggregate
            plan.left = self.optimize_plan(plan.left)
            plan.right = self.optimize_plan(plan.right)
            return _stamp(plan, *self._derive_hash_left(plan))
        if isinstance(plan, Scan):
            rows, cost = self.estimate(plan)
            return _stamp(Scan(plan.table_name, plan.alias), rows, cost)
        # IndexScan / HashJoin / TopN arriving pre-built: keep as-is
        rows, cost = self.estimate(plan)
        return _stamp(plan, rows, cost)

    # -- filter placement ------------------------------------------------------

    def push_into(self, plan, conjuncts):
        """Place ``conjuncts`` as low as semantics allow over ``plan``."""
        if isinstance(plan, Filter):
            inner = plan
            while isinstance(inner, Filter):
                conjuncts = conjuncts + _split_conjuncts(inner.predicate)
                inner = inner.child
            return self.push_into(inner, conjuncts)
        if not conjuncts:
            return self.optimize_plan(plan)
        if isinstance(plan, Scan):
            return self.access_path(conjuncts, plan)
        if isinstance(plan, NestedLoopJoin):
            return self.plan_join(plan, conjuncts)
        if isinstance(plan, HashLeftJoin):
            # conjuncts over left columns commute with the left-outer
            # join (every left row survives it); the rest stays above
            left_aliases = plan.left.bound_aliases()
            pushed, kept = [], []
            for conjunct in conjuncts:
                refs, opaque = _referenced_aliases(conjunct)
                if not opaque and refs and refs <= left_aliases:
                    pushed.append(conjunct)
                else:
                    kept.append(conjunct)
            plan.left = self.push_into(plan.left, pushed)
            plan.right = self.optimize_plan(plan.right)
            joined = _stamp(plan, *self._derive_hash_left(plan))
            return self.filter_above(joined, kept) if kept else joined
        return self.filter_above(self.optimize_plan(plan), conjuncts)

    def filter_above(self, child, conjuncts):
        """One residual Filter over an optimized ``child``."""
        rows, cost = self.estimate(child)
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= self.conjunct_selectivity(conjunct, None)
        return _stamp(
            Filter(child, _and_tree(conjuncts)),
            rows * selectivity,
            cost + rows * len(conjuncts) * FILTER_EVAL,
        )

    # -- access-path selection -------------------------------------------------

    def access_path(self, conjuncts, scan):
        """Cheapest of seq-scan-plus-filter vs every matching IndexScan."""
        table_rows = float(len(self.db.table(scan.table_name)))
        selectivities = [
            self.conjunct_selectivity(conjunct, scan)
            for conjunct in conjuncts
        ]
        out_rows = table_rows
        for selectivity in selectivities:
            out_rows *= selectivity

        # candidate 0: sequential scan, all conjuncts as one residual filter
        seq_cost = table_rows * SEQ_ROW \
            + table_rows * len(conjuncts) * FILTER_EVAL
        candidates = [{
            "action": "seq-scan",
            "cost": seq_cost,
            "rows": out_rows,
            "build": lambda: self._build_seq(scan, conjuncts, table_rows,
                                             out_rows, seq_cost),
        }]

        descent = INDEX_NODE * max(1, int(table_rows).bit_length())
        for position, conjunct in enumerate(conjuncts):
            probe = _match_index(conjunct, scan, self.db)
            if probe is None:
                continue
            index, op, key_expr, column = probe
            matched = table_rows * self._column_selectivity(
                scan.table_name, column, op, key_expr
            )
            residual = conjuncts[:position] + conjuncts[position + 1:]
            cost = descent + matched * INDEX_ROW \
                + matched * len(residual) * FILTER_EVAL
            candidates.append({
                "action": "index-scan(%s)" % index.name,
                "cost": cost,
                "rows": out_rows,
                "build": (lambda index=index, op=op, key_expr=key_expr,
                          column=column, residual=residual, matched=matched,
                          cost=cost: self._build_index(
                              scan, index, op, key_expr, column, residual,
                              matched, out_rows, cost)),
            })

        chosen = min(candidates, key=lambda candidate: candidate["cost"])
        built = chosen["build"]()
        self._record_access_path(scan, chosen, candidates, table_rows, built)
        return built

    def _build_seq(self, scan, conjuncts, table_rows, out_rows, cost):
        new_scan = _stamp(Scan(scan.table_name, scan.alias),
                          table_rows, table_rows * SEQ_ROW)
        if not conjuncts:
            return new_scan
        return _stamp(Filter(new_scan, _and_tree(conjuncts)), out_rows, cost)

    def _build_index(self, scan, index, op, key_expr, column, residual,
                     matched, out_rows, cost):
        probe = _stamp(
            IndexScan(scan.table_name, index.name, op, key_expr,
                      alias=scan.alias, column_name=column),
            matched,
            cost - matched * len(residual) * FILTER_EVAL,
        )
        if not residual:
            return probe
        return _stamp(Filter(probe, _and_tree(residual)), out_rows, cost)

    def _record_access_path(self, scan, chosen, candidates, table_rows,
                            built):
        if self.ledger is None:
            return
        from repro.obs.decisions import ACCESS_PATH

        detail = {
            "table_rows": table_rows,
            "est_rows": round(chosen["rows"], 1),
            "est_cost": round(chosen["cost"], 1),
            "alternatives": [
                "%s cost=%.1f" % (candidate["action"], candidate["cost"])
                for candidate in candidates
            ],
            "analyzed": self.db.stats.table_stats(scan.table_name)
            is not None,
        }

        def record():
            decision = self.ledger.record(
                ACCESS_PATH,
                self.STAGE,
                "%s %s" % (scan.table_name, scan.alias),
                chosen["action"],
                reason="cheapest of %d access path(s) by estimated cost"
                       % len(candidates),
                detail=detail,
            )
            decision.provenance.sql_node = built

        self._defer(record)

    # -- join strategy ---------------------------------------------------------

    def plan_join(self, join, conjuncts):
        """Cost NestedLoopJoin-with-pushed-predicates vs HashJoin on an
        extracted equi-conjunct; build (and record) the cheaper one."""
        all_conjuncts = list(conjuncts)
        if join.condition is not None:
            all_conjuncts.extend(_split_conjuncts(join.condition))
        left_aliases = join.left.bound_aliases()
        right_aliases = join.right.bound_aliases()

        left_only, right_only, equi, residual = [], [], [], []
        for conjunct in all_conjuncts:
            refs, opaque = _referenced_aliases(conjunct)
            if not opaque and refs and refs <= left_aliases:
                left_only.append(conjunct)
            elif not opaque and refs and refs <= right_aliases:
                right_only.append(conjunct)
            elif self._equi_split(conjunct, left_aliases,
                                  right_aliases) is not None:
                equi.append(conjunct)
            else:
                residual.append(conjunct)

        left_plan = self.push_into(join.left, left_only)
        left_rows, left_cost = self.estimate(left_plan)

        # candidate A: nested loop; everything except left-only conjuncts
        # is pushed into the (re-opened per left row) right side, where an
        # equi conjunct can become a correlated IndexScan probe.
        nlj_mark = len(self._pending)
        nlj_right = self.push_into(join.right, right_only + equi + residual)
        right_open_rows, right_open_cost = self.estimate(nlj_right)
        nlj_rows = left_rows * right_open_rows
        nlj_cost = left_cost + max(1.0, left_rows) * right_open_cost
        nlj = _stamp(NestedLoopJoin(left_plan, nlj_right, None),
                     nlj_rows, nlj_cost)

        hash_candidate = None
        hash_mark = len(self._pending)
        if not equi:
            reason = "no equi-join conjunct; nested loop is the only path"
        elif not _is_uncorrelated(join.right, right_aliases):
            reason = "right side is correlated; hash build not applicable"
        else:
            reason = ("= between its keys is decided per row (a key of "
                      "unknown type); no hash equality")
            # the first equi conjunct whose ``=`` is a hash equality keys
            # the build; the others stay residual
            for conjunct in equi:
                keys = self._equi_split(conjunct, left_aliases, right_aliases)
                if hashable(static_type(keys[0], left_plan, self.db),
                            static_type(keys[1], join.right, self.db)):
                    hash_candidate = self._hash_candidate(
                        join, left_plan, left_rows, left_cost, right_only,
                        keys, [other for other in equi
                               if other is not conjunct] + residual)
                    break

        if hash_candidate is not None and \
                hash_candidate.estimated_cost < nlj_cost:
            chosen, action = hash_candidate, "hash-join"
            # drop decisions recorded while costing the rejected
            # nested-loop candidate's inner side
            del self._pending[nlj_mark:hash_mark]
        else:
            chosen, action = nlj, "nested-loop"
            del self._pending[hash_mark:]
        self._record_join(join, left_aliases, right_aliases, action,
                          nlj_cost, hash_candidate, chosen, len(equi),
                          reason)
        return chosen

    def _hash_candidate(self, join, left_plan, left_rows, left_cost,
                        right_only, keys, extra):
        right_plan = self.push_into(join.right, right_only)
        right_rows, right_cost = self.estimate(right_plan)
        left_key, right_key = keys
        selectivity = self._join_selectivity(left_key, right_key)
        out_rows = left_rows * right_rows * selectivity
        for conjunct in extra:
            out_rows *= self.conjunct_selectivity(conjunct, None)
        cost = (
            left_cost + right_cost
            + right_rows * HASH_BUILD_ROW
            + left_rows * HASH_PROBE
            + left_rows * right_rows * selectivity * len(extra) * FILTER_EVAL
        )
        return _stamp(
            HashJoin(left_plan, right_plan, left_key, right_key,
                     condition=_and_tree(extra) if extra else None),
            out_rows, cost,
        )

    def _equi_split(self, conjunct, left_aliases, right_aliases):
        """``(left_key, right_key)`` when the conjunct is an equality with
        one side referencing only left aliases and the other only right
        aliases; None otherwise."""
        if not isinstance(conjunct, BinOp) or conjunct.op != "=":
            return None
        left_refs, left_opaque = _referenced_aliases(conjunct.left)
        right_refs, right_opaque = _referenced_aliases(conjunct.right)
        if left_opaque or right_opaque or not left_refs or not right_refs:
            return None
        if left_refs <= left_aliases and right_refs <= right_aliases:
            return conjunct.left, conjunct.right
        if left_refs <= right_aliases and right_refs <= left_aliases:
            return conjunct.right, conjunct.left
        return None

    def _join_selectivity(self, left_key, right_key):
        """1/max(ndv) over the joined key columns, defaulting per side."""
        distincts = []
        for key in (left_key, right_key):
            if isinstance(key, ColumnRef) and key.table is not None:
                stats = self._column_stats_by_alias(key.table, key.column)
                if stats is not None and stats.distinct:
                    distincts.append(stats.distinct)
        if distincts:
            return 1.0 / max(distincts)
        return DEFAULT_EQ_SELECTIVITY

    def _column_stats_by_alias(self, alias, column):
        # aliases usually equal the table name in generated plans; fall
        # back to a catalog-wide search when they don't
        if self.db.has_table(alias):
            return self.db.stats.column_stats(alias, column)
        for name in self.db.stats.analyzed_tables():
            stats = self.db.stats.column_stats(name, column)
            if stats is not None:
                return stats
        return None

    def _record_join(self, join, left_aliases, right_aliases, action,
                     nlj_cost, hash_candidate, chosen, equi_count, reason):
        if self.ledger is None:
            return
        from repro.obs.decisions import JOIN_STRATEGY

        detail = {
            "nested_loop_cost": round(nlj_cost, 1),
            "est_rows": round(chosen.estimated_rows, 1),
            "equi_conjuncts": equi_count,
        }
        if hash_candidate is not None:
            detail["hash_cost"] = round(hash_candidate.estimated_cost, 1)
            reason = "estimated cost %.1f beats %.1f" % (
                (detail["hash_cost"], nlj_cost)
                if action == "hash-join"
                else (nlj_cost, detail["hash_cost"])
            )
        def record():
            decision = self.ledger.record(
                JOIN_STRATEGY,
                self.STAGE,
                "%s >< %s" % ("+".join(sorted(left_aliases)) or "?",
                              "+".join(sorted(right_aliases)) or "?"),
                action,
                reason=reason,
                detail=detail,
            )
            decision.provenance.sql_node = chosen

        self._defer(record)

    # -- Limit(Sort) fusion ----------------------------------------------------

    def fuse_topn(self, limit):
        sort = limit.child
        child = self.optimize_plan(sort.child)
        rows, cost = self.estimate(child)
        sort_cost = cost + rows * max(1.0, math.log2(rows + 1)) * SORT_ROW
        heap_cost = cost + rows * max(
            1.0, math.log2(limit.count + 1)
        ) * SORT_ROW
        fused = _stamp(TopN(child, sort.keys, limit.count),
                       min(limit.count, rows), heap_cost)
        if self.ledger is not None:
            from repro.obs.decisions import TOPN_FUSION

            detail = {
                "est_input_rows": round(rows, 1),
                "sort_cost": round(sort_cost, 1),
                "topn_cost": round(heap_cost, 1),
            }

            def record():
                decision = self.ledger.record(
                    TOPN_FUSION,
                    self.STAGE,
                    "LIMIT %d over SORT" % limit.count,
                    "top-n",
                    reason="bounded heap keeps %d rows instead of "
                           "sorting all" % limit.count,
                    detail=detail,
                )
                decision.provenance.sql_node = fused

            self._defer(record)
        return fused

    # -- estimation ------------------------------------------------------------

    def estimate(self, plan):
        """(estimated rows, estimated cost) — reads the stamps when the
        node was built by this pass, derives them otherwise."""
        rows = getattr(plan, "estimated_rows", None)
        cost = getattr(plan, "estimated_cost", None)
        if rows is not None and cost is not None:
            return rows, cost
        return self._derive(plan)

    def _derive(self, plan):
        if isinstance(plan, Scan):
            rows = float(len(self.db.table(plan.table_name)))
            return rows, rows * SEQ_ROW
        if isinstance(plan, IndexScan):
            table_rows = float(len(self.db.table(plan.table_name)))
            column = plan.column_name or self.db.index(
                plan.index_name
            ).column_name
            matched = table_rows * self._column_selectivity(
                plan.table_name, column, plan.op, plan.key_expr
            )
            descent = INDEX_NODE * max(1, int(table_rows).bit_length())
            return matched, descent + matched * INDEX_ROW
        if isinstance(plan, Filter):
            child_rows, child_cost = self.estimate(plan.child)
            conjuncts = _split_conjuncts(plan.predicate)
            rows = child_rows
            scan = plan.child if isinstance(plan.child,
                                            (Scan, IndexScan)) else None
            for conjunct in conjuncts:
                rows *= self.conjunct_selectivity(conjunct, scan)
            return rows, child_cost + child_rows * len(conjuncts) * FILTER_EVAL
        if isinstance(plan, NestedLoopJoin):
            left_rows, left_cost = self.estimate(plan.left)
            right_rows, right_cost = self.estimate(plan.right)
            selectivity = DEFAULT_EQ_SELECTIVITY if plan.condition is not None \
                else 1.0
            return (
                left_rows * right_rows * selectivity,
                left_cost + max(1.0, left_rows) * right_cost,
            )
        if isinstance(plan, HashJoin):
            left_rows, left_cost = self.estimate(plan.left)
            right_rows, right_cost = self.estimate(plan.right)
            selectivity = self._join_selectivity(plan.left_key,
                                                 plan.right_key)
            return (
                left_rows * right_rows * selectivity,
                left_cost + right_cost + right_rows * HASH_BUILD_ROW
                + left_rows * HASH_PROBE,
            )
        if isinstance(plan, HashLeftJoin):
            return self._derive_hash_left(plan)
        if isinstance(plan, Sort):
            rows, cost = self.estimate(plan.child)
            return rows, cost + rows * max(1.0, math.log2(rows + 1)) * SORT_ROW
        if isinstance(plan, TopN):
            rows, cost = self.estimate(plan.child)
            return (
                min(float(plan.count), rows),
                cost + rows * max(1.0, math.log2(plan.count + 1)) * SORT_ROW,
            )
        if isinstance(plan, Limit):
            rows, cost = self.estimate(plan.child)
            return min(float(plan.count), rows), cost
        if isinstance(plan, Aggregate):
            rows, cost = self.estimate(plan.child)
            return self._group_rows(plan, rows), cost + rows * FILTER_EVAL
        return 1.0, 1.0  # unknown operator: neutral

    def _derive_hash_left(self, plan):
        left_rows, left_cost = self.estimate(plan.left)
        right_rows, right_cost = self.estimate(plan.right)
        # left-preserving over unique (grouped) build keys: exactly one
        # output row per left row, matched or defaulted
        return left_rows, (
            left_cost + right_cost
            + right_rows * HASH_BUILD_ROW
            + left_rows * HASH_PROBE
        )

    def _group_rows(self, plan, input_rows):
        """Group-count estimate for an Aggregate over ``input_rows``:
        the ndv of the widest group-key column when ANALYZE stats know
        it, else the textbook tenth of the input."""
        if not plan.group_by:
            return 1.0
        distincts = []
        for _, expr in plan.group_by:
            if isinstance(expr, ColumnRef) and expr.table is not None:
                stats = self._column_stats_by_alias(expr.table, expr.column)
                if stats is not None and stats.distinct:
                    distincts.append(float(stats.distinct))
        if distincts:
            return max(1.0, min(input_rows, max(distincts)))
        return max(1.0, input_rows * 0.1)

    def conjunct_selectivity(self, conjunct, scan):
        """Selectivity of one conjunct, column-aware when ``scan`` names
        the table it filters."""
        if not isinstance(conjunct, BinOp) \
                or conjunct.op not in _INDEXABLE_OPS:
            return DEFAULT_SELECTIVITY
        comparisons = [] if scan is None \
            else _scan_comparisons(conjunct, scan)
        if comparisons:
            column, op, key = comparisons[0]
            return self._column_selectivity(scan.table_name, column, op, key)
        return (DEFAULT_EQ_SELECTIVITY if conjunct.op == "="
                else DEFAULT_RANGE_SELECTIVITY)

    def _column_selectivity(self, table_name, column, op, key_expr):
        stats = self.db.stats.column_stats(table_name, column)
        key = key_expr.value if isinstance(key_expr, Const) else None
        if op == "=":
            if stats is not None and stats.histogram is not None \
                    and isinstance(key, (int, float)):
                return stats.histogram.selectivity("=", key)
            if stats is not None and stats.distinct:
                return 1.0 / stats.distinct
            return DEFAULT_EQ_SELECTIVITY
        # range operator
        if stats is not None and isinstance(key, (int, float)):
            if stats.histogram is not None:
                return stats.histogram.selectivity(op, key)
            if isinstance(stats.min, (int, float)) \
                    and isinstance(stats.max, (int, float)) \
                    and stats.max > stats.min:
                fraction = (key - stats.min) / float(stats.max - stats.min)
                fraction = min(1.0, max(0.0, fraction))
                return fraction if op in ("<", "<=") else 1.0 - fraction
        return DEFAULT_RANGE_SELECTIVITY
