"""Subquery unnesting: correlated aggregate probes become flat joins.

The XQuery→SQL merge (:mod:`repro.core.sql_rewrite`) emits one correlated
``ScalarSubquery`` per repeating element — for every parent row the
executor re-runs ``XMLAgg(...) WHERE child.$parent = parent.$id``.  That
probe shape hides the join from the cost planner: the ~90x HashJoin win
only applied where the SQL was already join-shaped.

This pass applies "XQuery Join Graph Isolation" (Grust, Mayr, Rittinger):
a correlated *aggregating* subquery whose correlation predicate is a
conjunction of equi-comparisons is rewritten into

    HashLeftJoin(parent_plan,
                 Aggregate(subquery_body, group_by=child_keys),
                 left_keys=parent_keys)

and the ``ScalarSubquery`` site becomes a plain column reference into the
aggregate's output row.  The join must be *left-outer*: a parent row with
no children still produces one output row, carrying the aggregate's
empty-group defaults (COUNT()=0, XMLAgg=[], SUM/MIN/MAX=NULL) — exactly
the value the correlated probe returned.  Group keys are unique, so the
join is 1:1 and left-preserving: cardinality, document order and bytes
are unchanged, which the 40-case xsltmark property test asserts.

Sibling sites whose body, residual filter and correlation render
identically against the same parent plan are *fused*: they share one
``Aggregate`` (extra output columns ``v1``, ``v2``, ...) behind one
``HashLeftJoin``, so one parent's aggregates cost one scan and one hash
build instead of one each.

Safety is checked per site and any doubt keeps the probe correlated
(recorded as a ``decorrelate``/``keep-correlated`` ledger decision):

* the subquery has exactly one output and it aggregates;
* the body is built from relational operators whose grouping semantics
  we understand (no Sort/TopN/Limit below the aggregate);
* after peeling the root ``Filter`` chain, every conjunct is either
  *local* (references only subquery aliases → stays as one AND-tree
  residual Filter, the PR-5 convention) or a *correlation equi-join*
  (``child_side = parent_side`` with the parent side referencing only
  aliases visible in the parent plan) whose ``=`` is a hash equality
  (:func:`~repro.rdb.values.hashable`: both sides of known type);
* nothing else — body expressions, the aggregate output, its ORDER BY
  keys, nested subqueries at any depth — references the outer row.

Each rewrite is a first-class :class:`~repro.obs.decisions.DecisionLedger`
record (kind ``decorrelate``, stage ``plan-optimize``) whose provenance
points at the new join node; the FLWOR-variable binding is re-pointed at
the Aggregate, so per-variable provenance and EXPLAIN's node numbering
follow the surviving nodes.
"""

from __future__ import annotations

import copy

from repro.rdb.expressions import BinOp, ColumnRef, ScalarSubquery
from repro.rdb.plan import (
    Aggregate,
    Filter,
    HashLeftJoin,
    Query,
    _render_plan,
    static_type,
)
from repro.rdb.planner import _and_tree, _split_conjuncts
from repro.rdb.sqlxml import find_aggregates
from repro.rdb.values import hashable

STAGE = "plan-optimize"


def decorrelate_query(query, db, ledger=None):
    """Unnest every eligible correlated aggregating subquery reachable
    from ``query``'s output expressions (recursively, deepest probes
    included); returns the rewritten :class:`Query` (``query`` itself
    when nothing was eligible).  Expression nodes are *copied along the
    rewritten paths* rather than mutated — callers routinely share
    output expression trees between Query objects (the combined-query
    entry points reuse the view's outputs), and those must keep their
    correlated form.  Untouched subtrees are shared with the input."""
    return _Decorrelator(db, ledger).run(query)


def _free_info(expr, bound):
    """``(free alias set, opaque flag)`` of one expression against the
    aliases ``bound`` by the enclosing subquery.  Unlike the planner's
    ``_referenced_aliases`` this *recurses into nested ScalarSubqueries*
    (each extends the bound set with its own plan's aliases), so a
    grandchild probe correlated only to its immediate parent reports no
    free aliases — while any unqualified column keeps the conservative
    opaque flag."""
    free = set()
    opaque = False
    for node in expr.iter_tree():
        if isinstance(node, ColumnRef):
            if node.table is None:
                opaque = True
            elif node.table not in bound:
                free.add(node.table)
        elif isinstance(node, ScalarSubquery):
            inner_free, inner_opaque = _query_free_info(node.query, bound)
            free |= inner_free
            opaque = opaque or inner_opaque
    return free, opaque


def _query_free_info(query, bound):
    inner_bound = bound | query.plan.bound_aliases()
    free = set()
    opaque = False
    exprs = [expr for _, expr in query.outputs]
    exprs.extend(query.plan.iter_expressions())
    for expr in exprs:
        expr_free, expr_opaque = _free_info(expr, inner_bound)
        free |= expr_free
        opaque = opaque or expr_opaque
    return free, opaque


def _walk_sites(sites, path, expr):
    """Append ``(path, site)`` for every outermost ``ScalarSubquery``
    under ``expr`` — ``_unnest`` recurses inside one."""
    if isinstance(expr, ScalarSubquery):
        sites.append((path, expr))
        return
    path = path + (expr,)
    for child in expr.child_exprs():
        _walk_sites(sites, path, child)


def _swap_child(parent, old, new):
    """Replace the direct child expression ``old`` of ``parent`` (an
    expression node or an :class:`_ExprHolder`) with ``new``, in place.
    Expression classes keep children in plain attributes, lists, or
    lists/tuples of pairs — all are scanned by identity."""
    for name, value in vars(parent).items():
        if value is old:
            setattr(parent, name, new)
            return True
        if isinstance(value, list):
            for index, item in enumerate(value):
                if item is old:
                    value[index] = new
                    return True
                if isinstance(item, tuple) and any(
                    part is old for part in item
                ):
                    value[index] = tuple(
                        new if part is old else part for part in item
                    )
                    return True
        elif isinstance(value, tuple) and any(
            part is old for part in value
        ):
            setattr(
                parent, name,
                tuple(new if part is old else part for part in value),
            )
            return True
    return False


def _contains_child(parent, child):
    """Whether :func:`_swap_child` would find ``child`` in ``parent`` —
    the read-only feasibility check run *before* any cloning."""
    for value in vars(parent).values():
        if value is child:
            return True
        if isinstance(value, (list, tuple)):
            for item in value:
                if item is child:
                    return True
                if isinstance(item, tuple) and any(
                    part is child for part in item
                ):
                    return True
    return False


def _clone_expr(node):
    """A shallow copy whose list containers are private, so swapping a
    child inside the clone never writes through to the original."""
    clone = copy.copy(node)
    for name, value in vars(clone).items():
        if isinstance(value, list):
            setattr(clone, name, list(value))
    return clone


class _ExprHolder:
    """A mutable root container so top-level output expressions have a
    parent :func:`_swap_child` can rewrite.  ``dirty`` records whether a
    top-level expression itself was swapped (the one rewrite the clone
    count cannot see)."""

    def __init__(self, exprs):
        self.exprs = list(exprs)
        self.dirty = False


class _Blocked(Exception):
    """One subquery site is not safely decorrelatable; carries why."""

    def __init__(self, reason):
        Exception.__init__(self, reason)
        self.reason = reason


class _Decorrelator:
    def __init__(self, db, ledger=None):
        self.db = db
        self.ledger = ledger
        self._counter = 0

    def run(self, query):
        holder = _ExprHolder(expr for _, expr in query.outputs)
        # copy-on-path state for this run: original node -> private clone;
        # the fresh holder is its own "clone" (safe to mutate)
        clones = {id(holder): holder}
        plan = self._process(query.plan, holder, clones)
        if plan is query.plan and len(clones) == 1 and not holder.dirty:
            return query  # nothing rewritten: share the input verbatim
        outputs = [
            (name, expr)
            for (name, _), expr in zip(query.outputs, holder.exprs)
        ]
        return Query(plan, outputs)

    # -- traversal -------------------------------------------------------------

    def _process(self, plan, holder, clones):
        """Unnest every subquery site reachable from ``holder``'s
        expressions against ``plan``; returns the (possibly join-wrapped)
        plan.  Sites are processed outermost-first: nested probes inside
        an unnested body are handled by the recursion in
        :meth:`_unnest`, and probes inside a *kept* subquery by
        :meth:`_descend`."""
        fusable = {}  # body + correlation rendering -> join already built
        for path, site in self._collect_sites(holder):
            plan = self._unnest(plan, path, site, clones, fusable)
        return plan

    def _collect_sites(self, holder):
        sites = []
        for expr in holder.exprs:
            _walk_sites(sites, (holder,), expr)
        return sites

    def _swap_path(self, path, site, new_expr, clones):
        """Install ``new_expr`` where ``site`` sat, cloning the ancestor
        chain bottom-up until it links into an already-private node —
        every other Query sharing the original tree keeps the correlated
        form."""
        child_old, child_new = site, new_expr
        for ancestor in reversed(path):
            clone = clones.get(id(ancestor))
            if clone is not None:
                if not _swap_child(clone, child_old, child_new):
                    raise AssertionError(
                        "decorrelate lost track of a rewritten ancestor"
                    )
                if clone is path[0]:  # the holder
                    clone.dirty = True
                return
            clone = _clone_expr(ancestor)
            clones[id(ancestor)] = clone
            if not _swap_child(clone, child_old, child_new):
                raise AssertionError(
                    "decorrelate cloned an ancestor it cannot rewrite"
                )
            child_old, child_new = ancestor, clone
        raise AssertionError("decorrelate walked past the holder")

    def _descend(self, path, site, clones):
        """A kept-correlated site may still contain unnestable probes one
        level down — its own body is a query in its own right.  A changed
        body is installed via a *new* ScalarSubquery (copy-on-path, like
        any other swap)."""
        new_query = self.run(site.query)
        if new_query is site.query:
            return
        new_site = ScalarSubquery(new_query)
        if self.ledger is not None:
            self.ledger.rebind_sql_expression(site, new_site)
        self._swap_path(path, site, new_site, clones)

    # -- the rewrite -----------------------------------------------------------

    def _unnest(self, plan, path, site, clones, fusable):
        query = site.query
        if not _contains_child(path[-1], site):
            # defensive: unknown parent container shape — keep correlated
            self._record_kept(site, "unrecognized parent expression shape")
            return plan
        try:
            info = self._analyze(plan, query)
        except _Blocked as blocked:
            self._descend(path, site, clones)
            self._record_kept(site, blocked.reason)
            return plan

        body = info["body"]
        # nested probes in the aggregate output rewrite against the body
        # plan (their correlation aliases are visible there)
        inner_holder = _ExprHolder([info["out_expr"]])
        body = self._process(body, inner_holder,
                             {id(inner_holder): inner_holder})
        out_expr = inner_holder.exprs[0]

        # Sibling probes over the same body, residual filter and
        # correlation belong in one join graph: later sites become extra
        # output columns of the first site's Aggregate — one scan, one
        # hash build.  A body re-wrapped by a nested unnest is private
        # to its site and never shared.
        signature = None
        if body is info["body"]:
            signature = (_render_plan(body), tuple(
                (child_key.to_sql(), parent_key.to_sql())
                for child_key, parent_key in info["pairs"]
            ))
        join = fusable.get(signature)
        if join is None:
            self._counter += 1
            alias = "dcr%d" % self._counter
            group_by = [
                ("k%d" % index, child_key)
                for index, (child_key, _) in enumerate(info["pairs"])
            ]
            join = plan = HashLeftJoin(
                plan,
                Aggregate(body, group_by, [], alias=alias),
                left_keys=[parent_key for _, parent_key in info["pairs"]],
                right_keys=[ColumnRef(name, alias) for name, _ in group_by],
            )
            if signature is not None:
                fusable[signature] = join
        aggregate = join.right
        column = _output_column(aggregate, out_expr)
        self._swap_path(path, site, ColumnRef(column, aggregate.alias),
                        clones)
        self._record_unnest(site, query, join, aggregate, column, info)
        return plan

    def _analyze(self, plan, query):
        """Eligibility per the module docstring; raises :class:`_Blocked`
        or returns the pieces the rewrite needs."""
        if len(query.outputs) != 1:
            raise _Blocked("subquery has %d output columns"
                           % len(query.outputs))
        out_expr = query.outputs[0][1]
        if not find_aggregates(out_expr):
            raise _Blocked("subquery output does not aggregate")

        conjuncts = []
        base = query.plan
        while isinstance(base, Filter):
            conjuncts.extend(_split_conjuncts(base.predicate))
            base = base.child
        for node in base.iter_plan():
            if not node.regroupable:
                raise _Blocked(
                    "%s below the aggregate" % type(node).__name__
                )

        own = base.bound_aliases()
        visible = plan.visible_aliases()
        if own & visible:
            raise _Blocked(
                "alias shadowing: %s" % ", ".join(sorted(own & visible))
            )

        residual = []
        pairs = []  # (child_key expr, parent_key expr)
        for conjunct in conjuncts:
            free, opaque = _free_info(conjunct, own)
            if opaque:
                raise _Blocked("unqualified column in predicate")
            if not free:
                residual.append(conjunct)
                continue
            pair = self._correlation_pair(conjunct, own, visible)
            if pair is None:
                raise _Blocked(
                    "non-equi correlated predicate: %s" % conjunct.to_sql()
                )
            pairs.append(pair)
        if not pairs:
            raise _Blocked("not correlated with the parent plan")
        for child_key, parent_key in pairs:
            if not hashable(static_type(child_key, base, self.db),
                            static_type(parent_key, plan, self.db)):
                raise _Blocked("%s = %s is decided per row (a key of "
                               "unknown type): no hash equality" % (
                                   child_key.to_sql(), parent_key.to_sql()))

        for expr in [out_expr, *base.iter_expressions()]:
            free, opaque = _free_info(expr, own)
            if opaque:
                raise _Blocked("unqualified column below the aggregate")
            if free:
                raise _Blocked(
                    "outer-row reference outside the correlation "
                    "predicate: %s" % ", ".join(sorted(free))
                )

        body = base
        if residual:
            # fold partially-extractable leftovers into ONE AND-tree
            # Filter (not a re-stacked chain) — the access-path pass sees
            # every conjunct at once
            body = Filter(base, _and_tree(residual))
        return {
            "body": body,
            "out_expr": out_expr,
            "pairs": pairs,
            "residual": residual,
            "conjuncts": conjuncts,
        }

    def _correlation_pair(self, conjunct, own, visible):
        """``(child_key, parent_key)`` when the conjunct equi-joins the
        subquery body to the parent row; None otherwise."""
        if not isinstance(conjunct, BinOp) or conjunct.op != "=":
            return None
        for child_side, parent_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            child_free, child_opaque = _free_info(child_side, own)
            if child_opaque or child_free:
                continue
            parent_refs, parent_opaque = _free_info(parent_side, set())
            if parent_opaque or not parent_refs:
                continue
            if parent_refs & own or not parent_refs <= visible:
                continue
            return child_side, parent_side
        return None

    # -- ledger ----------------------------------------------------------------

    def _variable_of(self, site):
        """The FLWOR variable the SQL merge bound to this subquery
        expression, when the ledger knows one."""
        if self.ledger is None:
            return None
        bindings = getattr(self.ledger, "_sql_bindings", {})
        for variable, binding in bindings.items():
            if binding is site:
                return variable
        return None

    def _xslt_provenance_of(self, variable):
        """The XSLT-side provenance already recorded for this variable's
        cardinality decision (stage xquery-gen) — the line the probe
        traces back to."""
        if variable is None:
            return None
        for decision in self.ledger.decisions:
            if decision.detail.get("variable") == variable \
                    and decision.provenance.xslt is not None:
                return dict(decision.provenance.xslt)
        return None

    def _record_unnest(self, site, query, join, aggregate, column, info):
        if self.ledger is None:
            return
        from repro.obs.decisions import DECORRELATE

        variable = self._variable_of(site)
        if variable is not None:
            # the ScalarSubquery expression is dead; provenance and the
            # ledger's bound plans follow the aggregate instead
            self.ledger.rebind_sql_expression(site, aggregate)
        detail = {
            "join_keys": len(info["pairs"]),
            "residual_conjuncts": len(info["residual"]),
            "group_alias": aggregate.alias,
            "output_column": column,
            "subquery": query.to_sql(),
        }
        if variable is not None:
            detail["variable"] = variable
        decision = self.ledger.record(
            DECORRELATE,
            STAGE,
            variable or "scalar subquery",
            "hash-left-join + group-aggregate",
            reason="correlated aggregate probe re-ran per parent row; "
                   "equi-correlation %s makes it a build-once grouped "
                   "outer join" % " AND ".join(
                       "%s = %s" % (child.to_sql(), parent_key.to_sql())
                       for child, parent_key in info["pairs"]
                   ),
            detail=detail,
        )
        decision.provenance.sql_node = join
        decision.provenance.xslt = self._xslt_provenance_of(variable)

    def _record_kept(self, site, reason):
        if self.ledger is None:
            return
        from repro.obs.decisions import DECORRELATE

        variable = self._variable_of(site)
        self.ledger.record(
            DECORRELATE,
            STAGE,
            variable or "scalar subquery",
            "keep-correlated",
            reason=reason,
            detail={"variable": variable} if variable else None,
        )


def _output_column(aggregate, out_expr):
    """The name of ``aggregate``'s output column computing ``out_expr``:
    an existing column when it holds the same expression — by identity
    (a variable referenced twice puts one aggregate node at two sites)
    or by rendering — else a new one (``v``, ``v1``, ``v2``, ...)."""
    rendered = out_expr.to_sql()
    for name, expr in aggregate.outputs:
        if expr is out_expr or expr.to_sql() == rendered:
            return name
    name = "v%d" % len(aggregate.outputs) if aggregate.outputs else "v"
    aggregate.outputs.append((name, out_expr))
    return name
