"""Iterator-based query execution (the pull model of paper [10], one
batch per ``next()``) over plans that are bound once.

Rows are flat tuples and every name is resolved to a tuple slot by one
*bind* pass per (plan, catalog) — see :mod:`repro.rdb.binding`.
``node.bind(binder, outer)`` returns a :class:`BoundNode`;
``batches(db, outer, stats, batch_size, *bound)`` is the one way an
operator produces rows (lists of up to ``batch_size`` tuples) and
:meth:`BoundNode.iter_batches` (the same stream; the parent's loop
counts what it pulls on a profiled run) the one way a parent consumes
them.  A :class:`Query` couples a plan with output expressions and
caches its binding: :meth:`Query.execute_batches` is its
one drive loop (``execute`` collects it), and :meth:`Query.stream_pieces`
yields the same rows' SQL/XML values (markup, :mod:`repro.rdb.sqlxml`)
in pieces, so no result document is ever materialized.  Execution
statistics (heap rows read, index probes, index entries touched, XML
elements built) are collected per run — benchmarks and tests assert on
them to prove plan shape, e.g. that the rewritten Figure-2 query probes
the B-tree instead of scanning.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import namedtuple
from functools import partial
from itertools import chain, islice

from repro.errors import DatabaseError, DeadlineExceededError, PlanError
from repro.rdb.binding import (
    BindingCache, Codegen, Layout, Pipeline, sort_pairs)
from repro.rdb.expressions import SqlExpr, bind_order, bind_tuple
from repro.rdb.sqlxml import bind_aggregates, row_items
from repro.rdb.values import key_normal, probe_normal

#: Row count per batch wherever ``batch_size`` is not given (or None).
DEFAULT_BATCH_SIZE = 256


class ExecutionStats:
    """Counters collected during one query execution.

    ``elapsed_seconds`` is filled by :meth:`Query.execute` (and by the
    functional transform path); ``btree_node_visits`` counts emulated
    B-tree node descents per probe; ``docs_materialized`` counts full
    DOMs rebuilt by the functional (no-rewrite) path — the paper's §2
    materialisation cost.  ``profiler`` optionally carries a
    :class:`PlanProfiler` collecting per-plan-node row counts (and, when
    timed, timings) for EXPLAIN ANALYZE.

    ``deadline`` is not a counter: it is the ``time.perf_counter()``
    instant after which the drive loop raises
    :class:`~repro.errors.DeadlineExceededError` between batches (None:
    never).  One stats object belongs to one execution.
    """

    _FIELDS = (
        "rows_scanned", "index_probes", "index_entries", "output_rows",
        "xml_elements", "subquery_executions", "btree_node_visits",
        "docs_materialized", "batches", "peak_buffered_bytes",
        "hash_build_rows", "hash_probes", "topn_heap_rows",
        "peak_ingest_buffered_bytes",
        "elapsed_seconds",
    )

    __slots__ = _FIELDS + ("profiler", "deadline")

    def __init__(self):
        self.rows_scanned = 0
        self.index_probes = 0
        self.index_entries = 0
        self.output_rows = 0
        self.xml_elements = 0
        self.subquery_executions = 0
        self.btree_node_visits = 0
        self.docs_materialized = 0
        #: row batches emitted by the top-level plan
        self.batches = 0
        #: high-water mark of serialized output buffered at once on the
        #: streaming path (0 when execution materialized the result)
        self.peak_buffered_bytes = 0
        #: rows inserted into HashJoin build tables
        self.hash_build_rows = 0
        #: probe-side rows looked up in HashJoin tables
        self.hash_probes = 0
        #: rows pushed through TopN bounded heaps
        self.topn_heap_rows = 0
        #: high-water mark of parse buffer + in-flight row scopes during
        #: streaming ingest (0 when ingest went through a full DOM)
        self.peak_ingest_buffered_bytes = 0
        self.elapsed_seconds = 0.0
        self.profiler = None
        self.deadline = None

    def as_dict(self):
        return {name: getattr(self, name) for name in self._FIELDS}

    def __repr__(self):
        return "ExecutionStats(%s)" % ", ".join(
            "%s=%s" % (name, _fmt_stat(getattr(self, name)))
            for name in self._FIELDS
        )


def _fmt_stat(value):
    if isinstance(value, float):
        return "%.6f" % value
    return "%d" % value


#: one plan node's counters, as read out of a profiled execution
#: (``total_seconds`` None unless the profiler was timed)
NodeProfile = namedtuple("NodeProfile",
                         "rows_out opens batches total_seconds")


class PlanProfiler:
    """Per-node actuals of a profiled execution.

    Attached via ``stats.profiler``.  Its counters are flat arrays
    indexed by observation slot, sized when the drive loop hands over
    (:meth:`attach`) the binding's shared
    :class:`~repro.rdb.binding.Observation` (``table``).  Nothing is
    wrapped around an operator to fill them: a fused chain (DESIGN
    §9.1) counts its members in its generated loop, ``iter_batches``
    counts a pipeline breaker's ``opens``, and the loop that pulls a
    node's batches counts its ``rows_out`` and ``batches`` — a chain,
    the subquery source, ``Limit``, the hash join's build and probe
    loops, :meth:`~repro.rdb.binding.BoundNode.flatten`.

    ``timed=True`` (the EXPLAIN ANALYZE doors) also keeps
    ``total_seconds``: a chain's timed variant, and :meth:`wrap_batches`
    around a breaker, time each node's batch stream, its children
    included; self time is derived at rendering time as total minus the
    children's.  Untimed, ``total_seconds`` is None.
    """

    __slots__ = ("table", "rows_out", "opens", "batches", "total_seconds")

    def __init__(self, timed=False):
        self.table = None
        self.rows_out = self.opens = self.batches = ()
        self.total_seconds = () if timed else None

    def attach(self, table):
        """Count into ``table``'s slots from here on; a further
        execution of the same binding keeps accumulating."""
        if table is not self.table:
            self.table = table
            width = len(table.nodes)
            self.rows_out = [0] * width
            self.opens = [0] * width
            self.batches = [0] * width
            if self.total_seconds is not None:
                self.total_seconds = [0.0] * width

    def get(self, node):
        """The node's :class:`NodeProfile`; None when it never opened."""
        slot = None if self.table is None else self.table.slots.get(
            getattr(node, "plan_node_id", None))
        if slot is None or not self.opens[slot]:
            return None
        return NodeProfile(
            self.rows_out[slot], self.opens[slot], self.batches[slot],
            None if self.total_seconds is None else self.total_seconds[slot])

    def flattened(self, slot, batches):
        """The rows of a node's ``batches``, counting each batch."""
        rows_out, counted = self.rows_out, self.batches
        for batch in batches:
            rows_out[slot] += len(batch)
            counted[slot] += 1
            yield from batch

    def wrap_batches(self, slot, batches):
        """Pass a node's batch stream through, timing what producing it
        took (a timed profiler's; the counts are its consumer's)."""
        total_seconds, clock = self.total_seconds, time.perf_counter
        start = clock()
        for batch in batches:
            total_seconds[slot] += clock() - start
            yield batch
            start = clock()
        total_seconds[slot] += clock() - start

    def self_seconds(self, node):
        """Total time minus the direct children's total time (None
        when untimed)."""
        if self.total_seconds is None:
            return None
        profile = self.get(node)
        if profile is None:
            return 0.0
        children = [self.get(child) for child in node.children()]
        child_total = sum(child.total_seconds for child in children
                          if child is not None)
        return max(0.0, profile.total_seconds - child_total)


class PlanNode:
    """Base class: ``bind(binder, outer)`` resolves the node under the
    layout of its outer prefix row and returns a :class:`BoundNode`;
    ``batches(db, outer, stats, batch_size, *bound)`` — ``outer`` the
    prefix row, ``bound`` what ``bind`` resolved — yields lists of up to
    ``batch_size`` flat tuple rows, or a ``pipelined`` operator emits
    its source into its fused chain instead (``produce``, DESIGN §9.1).

    An operator also *describes itself*, once — :meth:`detail`,
    :meth:`expressions`, :meth:`render_sql`, ``alias``, ``regroupable`` —
    and the EXPLAIN text and JSON, ``Query.to_sql`` and the planner's
    and decorrelator's walks all read that description."""

    #: the alias this operator binds its rows under, if it binds one
    alias = None
    #: True when running the operator once over every parent row's input
    #: and grouping gives what a run per parent row gave — what unnesting
    #: needs of an aggregate's body (Sort/TopN/Limit see the per-parent
    #: stream, so they are not)
    regroupable = False
    #: True when the operator is emitted into a fused chain (``produce``)
    pipelined = False

    def bind(self, binder, outer):
        raise NotImplementedError

    def batches(self, db, outer, stats, batch_size):
        raise NotImplementedError

    def produce(self, em, bound):
        """Emit into ``em`` the loop leaving ``bound``'s batches in ``batch``."""
        raise NotImplementedError

    def stream(self, bound, timed):
        """A pipelined operator's own chain, for a parent pulling batches."""
        return _stream(bound, timed)

    def children(self):
        return ()

    def iter_plan(self):
        yield self
        for child in self.children():
            yield from child.iter_plan()

    def detail(self):
        """The operator's facts in display order: ``(key, value)`` — the
        EXPLAIN JSON stores the (JSON-ready) value under ``key``, the
        text prints ``key=value``, a list joined by ``", "`` — or
        ``(key, value, text)`` where the text words it its own way."""
        raise NotImplementedError

    def expressions(self):
        """Every :class:`SqlExpr` the operator holds: whatever its
        attributes, or lists / pairs in them, reference."""
        return tuple(_held_expressions(vars(self).values()))

    def iter_expressions(self):
        for node in self.iter_plan():
            yield from node.expressions()

    def render_sql(self, sources, predicates):
        """Append this subtree's FROM items and WHERE conjuncts."""
        raise NotImplementedError

    def render_root(self, sources, predicates):
        """:meth:`render_sql` as the root of a statement; returns the
        ORDER BY clause (only a root sort orders the statement)."""
        self.render_sql(sources, predicates)
        return ""

    def bound_aliases(self):
        """Every alias bound anywhere inside this subtree."""
        return {node.alias for node in self.iter_plan()
                if node.alias is not None}

    def visible_aliases(self):
        """Aliases in the rows this subtree *emits*: an operator that
        binds one (an Aggregate re-binds its input) hides those below."""
        if self.alias is not None:
            return {self.alias}
        return set().union(*[child.visible_aliases()
                             for child in self.children()])


def _held_expressions(values):
    for value in values:
        if isinstance(value, SqlExpr):
            yield value
        elif isinstance(value, (list, tuple)):
            yield from _held_expressions(value)


def _chunked(rows, batch_size):
    """Lists of up to ``batch_size`` consecutive items of ``rows`` — how
    the operators whose output is not a function of one input batch
    (the expanding joins) re-form batches."""
    rows = iter(rows)
    batch = list(islice(rows, batch_size))
    while batch:
        yield batch
        batch = list(islice(rows, batch_size))


def _sliced(rows, batch_size):
    """The batches of an already materialised row list (sorts and
    aggregates); a list that fits one batch is handed over as it is."""
    if len(rows) <= batch_size:
        return (rows,) if rows else ()
    return [rows[start:start + batch_size]
            for start in range(0, len(rows), batch_size)]


def _bind_scan(node, binder, outer, *args):
    """A leaf over ``node.table_name`` (bound to it and to whether rows
    carry a prefix): its columns, and their declared types, follow it."""
    table = binder.table(node.table_name)
    layout = outer.extend(node.alias, table.schema.names, table.schema.types)
    return binder.bound(node, layout, table, outer.width > 0, *args)


def _source(table_name, alias):
    if alias and alias != table_name:
        return "%s %s" % (table_name.upper(), alias)
    return table_name.upper()


def _order_sql(keys):
    return ", ".join(expr.to_sql() + (" DESC" if descending else "")
                     for expr, descending in keys)


def _key_pairs(left_keys, right_keys):
    return ["%s = %s" % (left.to_sql(), right.to_sql())
            for left, right in zip(left_keys, right_keys)]


class Scan(PlanNode):
    """Full table scan."""

    regroupable = True
    pipelined = True

    def __init__(self, table_name, alias=None):
        self.table_name = table_name
        self.alias = alias or table_name

    def detail(self):
        return (("table", self.table_name), ("alias", self.alias))

    def render_sql(self, sources, predicates):
        sources.append(_source(self.table_name, self.alias))

    def bind(self, binder, outer):
        return _bind_scan(self, binder, outer)

    def produce(self, em, bound):
        table, prefixed = bound.args
        em.line("_r = %s.rows" % em.ref(table))
        # no outer row: the slice of the table's own tuples is the batch
        em.loop("_i in range(0, len(_r), batch_size)")
        em.line("batch = %s; stats.rows_scanned += len(batch)" % (
            "[outer + row for row in _r[_i:_i + batch_size]]"
            if prefixed else "_r[_i:_i + batch_size]"))
        em.clock(bound.slot)


class IndexScan(PlanNode):
    """B-tree probe: ``column op key`` where ``key`` may be correlated."""

    regroupable = True
    pipelined = True

    def __init__(self, table_name, index_name, op, key_expr, alias=None,
                 column_name=None):
        self.table_name = table_name
        self.index_name = index_name
        self.op = op
        self.key_expr = key_expr
        self.alias = alias or table_name
        self.column_name = column_name  # for SQL rendering only

    def detail(self):
        return (("table", self.table_name), ("index", self.index_name),
                ("compare", self.op, "op=%s" % self.op),
                ("key", self.key_expr.to_sql()))

    def render_sql(self, sources, predicates):
        sources.append(_source(self.table_name, self.alias))
        predicates.append('"%s"."%s" %s %s /*+ INDEX(%s) */' % (
            self.alias.upper(),
            (self.column_name or self.index_name).upper(), self.op,
            self.key_expr.to_sql(), self.index_name))

    def bind(self, binder, outer):
        column = binder.db.index(self.index_name).column_name
        kind = binder.table(self.table_name).schema.column(column).exact
        # the probe key as ``column op key`` compares it: None where no
        # comparison holds
        cg, (key,) = _typed_keys(binder, [self.key_expr], outer)
        return _bind_scan(self, binder, outer, cg.function(
            "return " + _normalised(cg, key[0],
                                    probe_normal(key[1], kind))))

    def produce(self, em, bound):
        table, prefixed, key = bound.args
        em.timer(bound.slot)
        em.line("_v = %s(outer, stats)" % em.ref(key))
        em.line("_d = () if _v is None else db.index(%s).lookup_op(%s, _v, "
                "stats=stats)" % (em.ref(self.index_name), em.ref(self.op)))
        em.charge(bound.slot)
        em.line("_r = %s.rows" % em.ref(table))
        em.loop("_i in range(0, len(_d), batch_size)")
        em.line("batch = [%s_r[_j] for _j in _d[_i:_i + batch_size]]; "
                "stats.rows_scanned += len(batch)"
                % ("outer + " if prefixed else ""))
        em.clock(bound.slot)


class Filter(PlanNode):
    """Row filter over a child plan."""

    regroupable = True
    pipelined = True

    def __init__(self, child, predicate):
        self.child = child
        self.predicate = predicate

    def children(self):
        return (self.child,)

    def detail(self):
        return (("predicate", self.predicate.to_sql()),)

    def render_sql(self, sources, predicates):
        self.child.render_sql(sources, predicates)
        predicates.append(self.predicate.to_sql())

    def bind(self, binder, outer):
        child = self.child.bind(binder, outer)
        cg = Codegen()  # the predicate inline: one call per batch
        return binder.bound(self, child.layout, child, cg.function(
            "return [row for row in batch if %s]" % cg.emit(
                self.predicate, binder, child.layout), "batch, stats"))

    def produce(self, em, bound):
        child, kept = bound.args
        em.pull(bound, child)
        em.line("batch = %s(batch, stats)" % em.ref(kept))
        em.clock(bound.slot)
        em.line("if not batch: %scontinue"
                % ("_c = _clock(); " if em.timed else ""))


def _bind_condition(condition, binder, layout):
    return None if condition is None else condition.bind(binder, layout)


def _render_join(join, sources, predicates, *conjuncts):
    """Both sides' FROM items and conjuncts, then the join's own."""
    for child in join.children():
        child.render_sql(sources, predicates)
    predicates.extend(conjuncts)


class NestedLoopJoin(PlanNode):
    """Inner join: right side re-evaluated per left row (correlated OK) —
    it is opened with the left row as its prefix, so its rows are the
    joined rows."""

    regroupable = True

    def __init__(self, left, right, condition=None):
        self.left = left
        self.right = right
        self.condition = condition

    def children(self):
        return (self.left, self.right)

    def detail(self):
        return ()

    def render_sql(self, sources, predicates):
        _render_join(self, sources, predicates)
        if self.condition is not None:
            predicates.append(self.condition.to_sql())

    def bind(self, binder, outer):
        left = self.left.bind(binder, outer)
        right = self.right.bind(binder, left.layout)
        return binder.bound(
            self, right.layout, left, right,
            _bind_condition(self.condition, binder, right.layout))

    def batches(self, db, outer, stats, batch_size, *bound):
        return _chunked(self._joined(db, outer, stats, batch_size, *bound),
                        batch_size)

    def _joined(self, db, outer, stats, batch_size, left, right, condition):
        for left_row in left.iter_rows(db, outer, stats, batch_size):
            for joined in right.iter_rows(db, left_row, stats, batch_size):
                if condition is None or condition(joined, stats):
                    yield joined


class HashJoin(PlanNode):
    """Equi-join: build a hash table over the right side, probe with the
    left side in order.

    Output rows (and their order) are identical to the equivalent
    ``NestedLoopJoin``: left rows drive in left order, and within one
    probe the matches come back in right-side build order.  The right
    side is evaluated exactly once against the outer row, so the
    planner only picks this operator when the right side is uncorrelated
    with the left.  ``condition`` carries any residual (non-equi)
    predicate evaluated against the joined row.
    """

    regroupable = True

    def __init__(self, left, right, left_key, right_key, condition=None):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key
        self.condition = condition

    def children(self):
        return (self.left, self.right)

    def detail(self):
        (pair,) = _key_pairs([self.left_key], [self.right_key])
        return (("build", "right"), ("keys", [pair], "key=%s" % pair))

    def render_sql(self, sources, predicates):
        _render_join(self, sources, predicates, "%s = %s /*+ USE_HASH */" % (
            self.left_key.to_sql(), self.right_key.to_sql()))
        if self.condition is not None:
            predicates.append(self.condition.to_sql())

    def bind(self, binder, outer):
        left = self.left.bind(binder, outer)
        right = self.right.bind(binder, outer)
        layout = left.layout.join(right.layout, outer)
        left_cg, (left_key,) = _typed_keys(binder, [self.left_key],
                                           left.layout)
        right_cg, (right_key,) = _typed_keys(binder, [self.right_key],
                                             right.layout)
        return binder.bound(
            self, layout, left, right,
            _key_function(left_cg, [left_key], [right_key[1]]),
            _key_function(right_cg, [right_key], [left_key[1]]),
            _bind_condition(self.condition, binder, layout))

    def batches(self, db, outer, stats, batch_size, *bound):
        return _chunked(self._joined(db, outer, stats, batch_size, *bound),
                        batch_size)

    def _joined(self, db, outer, stats, batch_size, left, right, left_key,
                right_key, condition):
        # {canonical key: [the right side's own columns, in build order]};
        # a NULL key never equi-joins
        cut, table = len(outer), {}
        profiler = stats.profiler
        for batch in right.iter_batches(db, outer, stats, batch_size):
            if profiler is not None:
                profiler.rows_out[right.slot] += len(batch)
                profiler.batches[right.slot] += 1
            stats.hash_build_rows += len(batch)
            for row in batch:
                key = right_key(row, stats)
                if None not in key:
                    table.setdefault(key, []).append(row[cut:])
        for left_batch in left.iter_batches(db, outer, stats, batch_size):
            if profiler is not None:
                profiler.rows_out[left.slot] += len(left_batch)
                profiler.batches[left.slot] += 1
            for left_row in left_batch:
                stats.hash_probes += 1
                key = left_key(left_row, stats)
                if None in key:
                    continue
                for columns in table.get(key, ()):
                    joined = left_row + columns
                    if condition is None or condition(joined, stats):
                        yield joined


class HashLeftJoin(PlanNode):
    """Left-preserving multi-key equi hash join against a grouped
    aggregate build side — the decorrelation operator.

    ``right`` must be an :class:`Aggregate` whose group keys are the
    build keys.  Every left row yields exactly one output row: when a
    group matches, its columns; when none does, the aggregate's
    empty-group defaults (:meth:`Aggregate.empty_row` — COUNT()=0,
    XMLAgg=[], SUM/MIN/MAX=NULL), exactly what the correlated
    ``ScalarSubquery`` returned for a parent row with no children.
    Group keys are unique, so cardinality and left order are preserved
    — the invariant that keeps decorrelated output byte-identical.
    It runs as a groupjoin: ``right_keys`` name the group columns, the
    aggregate folds under the join keys (normalised as ``=`` compares),
    and its finalised groups are the probe table.
    """

    regroupable = True
    pipelined = True

    def __init__(self, left, right, left_keys, right_keys):
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)

    def children(self):
        return (self.left, self.right)

    def detail(self):
        return (("outer", True, "build=right(outer)"),
                ("keys", _key_pairs(self.left_keys, self.right_keys)))

    def render_sql(self, sources, predicates):
        _render_join(self, sources, predicates, *[
            "%s (+) /*+ USE_HASH */" % pair
            for pair in _key_pairs(self.left_keys, self.right_keys)])

    def bind(self, binder, outer):
        if not isinstance(self.right, Aggregate) or [
                (getattr(key, "table", None), getattr(key, "column", None))
                for key in self.right_keys] != [
                (self.right.alias, name) for name, _ in self.right.group_by]:
            raise PlanError("HashLeftJoin's right keys must be its "
                            "Aggregate's group columns")
        left = self.left.bind(binder, outer)
        cg, lefts = _typed_keys(binder, self.left_keys, left.layout)
        rights = []

        def normal(position, kind):
            rights.append(kind)
            return key_normal(kind, lefts[position][1])

        # the aggregate folds under the keys normalised as ``=`` compares
        # them with the left's, so its groups are the probe table
        right = self.right.bind(binder, outer, normal)
        return binder.bound(self, left.layout.join(right.layout, outer),
                            left, right, _key_function(cg, lefts, rights))

    def produce(self, em, bound):
        left, right, left_keys = bound.args
        child, fold, _, finish, _ = right.args
        em.members.append(right.slot)
        names = {"g": "_g%d" % right.slot, "m": "_m%d" % bound.slot,
                 "f": em.ref(finish), "k": em.ref(left_keys),
                 "e": em.ref(right.node.empty_row), "a": em.ref(right.args)}
        em.timer(bound.slot)
        em.line("%(g)s = {}" % names)
        em.fold(child, fold, names["g"])
        em.line("for _key, _s in %(g)s.items(): %(g)s[_key] = _key + %(f)s("
                "outer + tuple(_s), stats)" % names)
        em.line("stats.hash_build_rows += len(%(g)s); %(m)s = None" % names)
        em.count(right.slot, "len(%(g)s)" % names,
                 "-(-len(%(g)s) // batch_size)" % names)
        # a NULL key component never equi-joins: a probe for it misses
        em.line(("%(g)s.pop((None,), None)" if len(self.left_keys) == 1 else
                 "for _key in [_key for _key in %(g)s if None in _key]: "
                 "del %(g)s[_key]") % names)
        em.charge(bound.slot, [right.slot])
        em.pull(bound, left)
        # one output row per left row; a miss (computed once, on the
        # first) gets the aggregate's empty group
        em.line("batch = [row + (%(g)s.get(%(k)s(row, stats)) or %(m)s or "
                "(%(m)s := %(e)s(outer, stats, *%(a)s))) for row in batch]; "
                "stats.hash_probes += len(batch)" % names)
        em.clock(bound.slot)


def static_type(expr, plan, db):
    """``expr``'s static type over the columns of ``plan``'s scans, before
    any bind; None where they cannot tell."""
    layout = Layout()
    for node in plan.iter_plan():
        if isinstance(node, (Scan, IndexScan)) and db.has_table(
                node.table_name):
            schema = db.table(node.table_name).schema
            layout = layout.extend(node.alias, schema.names, schema.types)
    try:
        return expr.value_type(layout)
    except DatabaseError:  # not a scanned column
        return None


def _typed_keys(binder, exprs, layout):
    """``(codegen, [(source, value type)])`` of the key ``exprs`` over
    rows of ``layout``: one slot search per column."""
    cg = Codegen()
    return cg, [expr.emit_typed(binder, layout, cg) for expr in exprs]


def _key_function(cg, keys, others):
    """``f(row, stats)``: the tuple of ``keys`` (``(source, type)``, in
    ``cg``), each normalised as ``=`` compares it with a key of the type
    ``others`` holds at its position (:mod:`repro.rdb.values`)."""
    return cg.function("return (%s)" % "".join([
        _normalised(cg, source, key_normal(kind, other)) + ", "
        for (source, kind), other in zip(keys, others)]))


def _normalised(cg, source, normal):
    """``source`` through ``normal``, a function or None for itself."""
    if normal is None:
        return source
    return "%s(%s)" % (cg.helper(normal.__name__, normal), source)


class Sort(PlanNode):
    """Materialising sort."""

    def __init__(self, child, keys):
        self.child = child
        self.keys = keys  # list of (expr, descending)

    def children(self):
        return (self.child,)

    def detail(self):
        return (("keys", [expr.to_sql() for expr, _ in self.keys]),)

    def render_sql(self, sources, predicates):
        # a sort below the root has no SQL spelling here: an opaque source
        sources.append("(/* %s */)" % type(self).__name__)

    def render_root(self, sources, predicates):
        self.child.render_sql(sources, predicates)
        return _order_sql(self.keys)

    def bind(self, binder, outer):
        child = self.child.bind(binder, outer)
        return binder.bound(self, child.layout, child,
                            *bind_order(binder, self.keys, child.layout))

    def batches(self, db, outer, stats, batch_size, child, key, directions):
        # this node is the sole consumer of the child's row stream, so
        # rows are decorated in the same pass that drains it
        pairs = [(key(row, stats), row)
                 for row in child.iter_rows(db, outer, stats, batch_size)]
        yield from _sliced(
            [row for _, row in sort_pairs(pairs, directions)], batch_size)


class Aggregate(PlanNode):
    """Hash aggregation with optional GROUP BY.

    Yields one row per group, in group arrival order: the prefix, then
    under ``alias`` the group keys and the aggregate outputs.  Per group,
    one generated fold keeps one state per aggregate.
    """

    regroupable = True

    def __init__(self, child, group_by, outputs, alias="agg"):
        self.child = child
        self.group_by = group_by  # list of (name, expr)
        self.outputs = outputs    # list of (name, expr w/ aggregates)
        self.alias = alias

    def children(self):
        return (self.child,)

    def detail(self):
        names = [name for name, _ in self.group_by]
        return (("alias", self.alias),
                ("group_by", names, "group_by=[%s]" % ", ".join(names)))

    def render_sql(self, sources, predicates):
        inner_sources, inner_predicates = [], []
        self.child.render_sql(inner_sources, inner_predicates)
        body = "SELECT %s FROM %s" % (
            ", ".join("%s AS %s" % (expr.to_sql(), name)
                      for name, expr in (*self.group_by, *self.outputs)),
            ", ".join(inner_sources) or "DUAL",
        )
        if inner_predicates:
            body += " WHERE %s" % " AND ".join(inner_predicates)
        if self.group_by:
            body += " GROUP BY %s" % ", ".join(
                expr.to_sql() for _, expr in self.group_by)
        sources.append("(%s) %s" % (body, self.alias))

    def bind(self, binder, outer, normal=None):
        """``normal(position, type)``: what each group key goes through
        (a :class:`HashLeftJoin` folding under its join keys)."""
        child = self.child.bind(binder, outer)
        fold, fresh, final, types = bind_aggregates(
            binder, self.outputs, child.layout, outer,
            [expr for _, expr in self.group_by], normal)
        names = [name for name, _ in (*self.group_by, *self.outputs)]
        return binder.bound(
            self, outer.extend(self.alias, names,
                               types + (None,) * len(self.outputs)),
            child, fold, fresh,
            bind_tuple(binder, [expr for _, expr in self.outputs], final),
            Pipeline(partial(_folding, child, fold, fresh,
                             bool(self.group_by))))

    def batches(self, db, outer, stats, batch_size, child, fold, fresh,
                finish, build):
        groups = build.get(stats.profiler)(db, outer, stats, batch_size)
        yield from _sliced(
            [outer + key + finish(outer + tuple(states), stats)
             for key, states in groups.items()],
            batch_size)

    def empty_row(self, outer, stats, child, fold, fresh, finish, build):
        """The columns of a group no child row fell into: group keys
        NULL, aggregates finalized over fresh state (COUNT()=0,
        XMLAgg=[], SUM/MIN/MAX=NULL) — exactly what a correlated
        aggregating subquery returns when no row matches the parent.
        :class:`HashLeftJoin` appends this on probe misses."""
        return (None,) * len(self.group_by) + finish(
            outer + tuple(fresh()), stats)


class TopN(PlanNode):
    """Bounded-buffer fusion of ``Limit(Sort(child, keys), count)``.

    Instead of materialising and fully sorting the child's output, a
    buffer of at most ``2 * count`` decorated rows is kept: whenever it
    overflows it is sorted (the same C-speed multi-pass stable sort the
    full Sort operator uses) and truncated back to the best ``count``
    rows.  Stable sorting preserves first-arrival order among ties, so
    the emitted rows (and their order) are exactly what the unfused
    ``Limit(Sort(...))`` pair produces — with O(count) memory.
    """

    def __init__(self, child, keys, count):
        self.child = child
        self.keys = keys    # list of (expr, descending), as Sort
        self.count = count

    def children(self):
        return (self.child,)

    def detail(self):
        return (("keys", [expr.to_sql() for expr, _ in self.keys]),
                ("count", self.count))

    def render_sql(self, sources, predicates):
        self.child.render_sql(sources, predicates)
        predicates.append("ROWNUM <= %d" % self.count)

    def render_root(self, sources, predicates):
        self.render_sql(sources, predicates)
        return _order_sql(self.keys)

    def bind(self, binder, outer):
        child = self.child.bind(binder, outer)
        return binder.bound(self, child.layout, child,
                            *bind_order(binder, self.keys, child.layout))

    def batches(self, db, outer, stats, batch_size, child, key, directions):
        count = self.count
        if count <= 0:
            return
        threshold = max(count * 2, 64)
        buffer = []
        for row in child.iter_rows(db, outer, stats, batch_size):
            stats.topn_heap_rows += 1
            buffer.append((key(row, stats), row))
            if len(buffer) >= threshold:
                buffer = sort_pairs(buffer, directions)[:count]
        yield from _sliced(
            [row for _, row in sort_pairs(buffer, directions)[:count]],
            batch_size)


class Limit(PlanNode):
    def __init__(self, child, count):
        self.child = child
        self.count = count

    def children(self):
        return (self.child,)

    def detail(self):
        return ()

    def render_sql(self, sources, predicates):
        self.child.render_sql(sources, predicates)
        predicates.append("ROWNUM <= %d" % self.count)

    def bind(self, binder, outer):
        child = self.child.bind(binder, outer)
        return binder.bound(self, child.layout, child)

    def batches(self, db, outer, stats, batch_size, child):
        remaining = self.count
        if remaining <= 0:
            return
        profiler = stats.profiler
        # never ask the child for more rows at once than are still wanted:
        # a scan under a limit then reads exactly ``count`` rows
        for batch in child.iter_batches(db, outer, stats,
                                        min(batch_size, remaining)):
            if profiler is not None:
                profiler.rows_out[child.slot] += len(batch)
                profiler.batches[child.slot] += 1
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            remaining -= len(batch)
            yield batch


def _expired(stats):
    raise DeadlineExceededError(
        "deadline passed during plan execution (after %d batches)"
        % stats.batches)


# -- fused pipelines ---------------------------------------------------------------


class _Emitter(Codegen):
    """One fused chain being emitted (DESIGN §9.1): the body of a
    generated ``f(db, outer, stats, batch_size)``.  The leaf opens the
    batch loop (``batch`` is each batch), each pipelined member over it
    turns ``batch`` into its own, and the consumer — a fold, the drive
    loop or ``yield`` to a pipeline breaker — takes the top's; work done
    once per open (an index probe, a groupjoin's build) comes before the
    loop.  Every member's ``opens`` is counted when the chain opens, its
    ``rows_out`` and ``batches`` where its parent takes its batch.
    ``timed`` emits the same loop with a clock read at each operator
    boundary, once per batch: a member's total is the time since its
    consumer last asked (``_c``); once-per-open work is charged to the
    member doing it and to every member ``above``."""

    __slots__ = ("timed", "lines", "pad", "members", "above")

    def __init__(self, timed):
        super().__init__(("_clock",), (time.perf_counter,))
        self.timed = timed
        self.lines, self.pad, self.members, self.above = [], "", [], []

    def line(self, text):
        self.lines.append(self.pad + text)

    def asks(self):
        """Timed: the consumer asks for the next batch from here."""
        if self.timed:
            self.line("_c = _clock()")

    def chain(self, bound):
        """Leave ``bound``'s batches in ``batch``, inside the loop."""
        if bound.node.pipelined:
            self.members.append(bound.slot)
            bound.node.produce(self, bound)
            return
        # a pipeline breaker as the leaf counts its open and times itself
        self.loop("batch in %s.iter_batches(db, outer, stats, batch_size)"
                  % self.ref(bound))

    def loop(self, iteration):
        """Open the chain's batch loop."""
        self.asks()
        self.line("for %s:" % iteration)
        self.pad += " "

    def pull(self, parent, child):
        """``child``'s batches, taken (and counted) by ``parent``."""
        self.above.append(parent.slot)
        self.chain(child)
        self.above.pop()
        self.count(child.slot)

    def fold(self, child, fold, groups):
        """A loop of its own taking every batch of ``child`` into
        ``groups``, run before whatever it is emitted in."""
        above, pad, self.above = self.above, self.pad, []
        self.chain(child)
        self.count(child.slot)
        self.line("%s(batch, %s, stats)" % (self.ref(fold), groups))
        self.asks()
        self.pad, self.above = pad, above

    def count(self, slot, rows="len(batch)", batches="1"):
        text = "_ro[%d] += %s; _bt[%d] += %s" % (slot, rows, slot, batches)
        self.line(text if self.timed else "if _p is not None: " + text)

    def clock(self, slot):
        """Timed: ``slot``'s batch is complete."""
        if self.timed:
            self.line("_ts[%d] += _clock() - _c" % slot)

    def timer(self, slot):
        """Timed: once-per-open work of ``slot`` starts."""
        if self.timed:
            self.line("_b%d = _clock()" % slot)

    def charge(self, slot, also=()):
        """Timed: the work since :meth:`timer` goes to ``slot``, ``also``
        and every member above."""
        if self.timed:
            self.line("_e = _clock() - _b%d; " % slot + "; ".join(
                "_ts[%d] += _e" % charged
                for charged in (slot, *also, *self.above)))

    def function(self, signature="db, outer, stats, batch_size"):
        counters = "_ro = _p.rows_out; _bt = _p.batches" + "".join(
            "; _p.opens[%d] += 1" % slot for slot in self.members)
        if self.timed:
            counters += "; _ts = _p.total_seconds"
        prelude = ["_p = stats.profiler",
                   counters if self.timed else "if _p is not None: " + counters]
        return super().function("\n  ".join(prelude + self.lines), signature)


def _stream(top, timed):
    """``f(db, outer, stats, batch_size)``: a generator of ``top``'s
    batches, whose consumer (a pipeline breaker) counts them."""
    em = _Emitter(timed)
    em.chain(top)
    em.line("yield batch")
    em.asks()
    return em.function()


def _folding(child, fold, fresh, grouped, timed):
    """``f(db, outer, stats, batch_size)``: the ``{group key: states}``
    of ``fold`` over every batch of ``child`` (ungrouped, the one group
    ``()``)."""
    em = _Emitter(timed)
    em.line("_g = {}" if grouped else "_g = {(): %s()}" % em.ref(fresh))
    em.fold(child, fold, "_g")
    em.line("return _g")
    return em.function()


def _driving(plan, fold, fresh, output, timed):
    """``f(db, outer, stats, batch_size, start)``: the drive loop — a
    generator of the batches of output-value tuples ``output`` makes of
    the plan's rows (of an aggregate query's one folded row), charging
    ``stats`` per batch and checking the deadline between them."""
    em = _Emitter(timed)
    if fold is None:
        em.chain(plan)
        em.count(plan.slot)
    else:
        em.line("_g = {(): %s()}" % em.ref(fresh))
        em.fold(plan, fold, "_g")
        em.line("batch = [outer + tuple(_g[()])]")
    em.line("if stats.deadline is not None and _clock() >= stats.deadline:"
            " %s(stats)" % em.helper("_expired", _expired))
    em.line("out = [%s(row, stats) for row in batch]; stats.batches += 1; "
            "stats.output_rows += len(out)" % em.ref(output))
    em.line("stats.elapsed_seconds += _clock() - start; yield out; "
            "start = _clock()")
    em.asks()
    em.pad = ""
    em.line("stats.elapsed_seconds += _clock() - start")
    return em.function("db, outer, stats, batch_size, start")


class Query:
    """A plan plus output expressions; the unit the database executes.
    ``runtime`` caches its binding (closures): a runtime handle,
    dropped on pickling and rebuilt on first execution."""

    def __init__(self, plan, outputs):
        self.plan = plan
        self.outputs = outputs  # list of (name, expr)
        self.runtime = BindingCache()

    def __getstate__(self):
        return {"plan": self.plan, "outputs": self.outputs}

    def __setstate__(self, state):
        self.__init__(state["plan"], state["outputs"])

    def form(self):
        """The pickled query — what the disk tier stores — and the key
        under which a database's equal plans share one binding.  A plan
        not yet numbered is numbered first: profile slots are found by
        ``plan_node_id``."""
        if getattr(self.plan, "plan_node_id", None) is None:
            assign_plan_node_ids(self)
        return pickle.dumps(self, pickle.HIGHEST_PROTOCOL)

    def bind(self, binder, outer):
        """Bind plan and outputs under the prefix layout ``outer``;
        returns the :class:`~repro.rdb.binding.Pipeline` of the drive
        loop :meth:`execute_batches` runs."""
        return Pipeline(partial(_driving, *self._bind(binder, outer)))

    def _bind(self, binder, outer):
        """``(plan, fold, fresh, output)``: the bound plan, the fold of
        an aggregate query's single group (None when there is none) and
        ``output(row, stats)``, the tuple of output values of a plan row
        (of the folded row)."""
        binder.plans.append(self.plan)
        plan = self.plan.bind(binder, outer)
        fold, fresh, final, _ = bind_aggregates(
            binder, self.outputs, plan.layout, outer)
        return plan, fold, fresh, bind_tuple(
            binder, [expr for _, expr in self.outputs], final)

    def bind_scalar(self, binder, outer):
        """This query as a correlated scalar subquery of rows of
        ``outer``: a closure ``f(row, stats)`` that runs it with ``row``
        as the prefix and returns its single value (or NULL)."""
        if len(self.outputs) != 1:
            raise PlanError("scalar subquery must have one output column")
        plan, fold, fresh, output = self._bind(binder, outer)
        folded = fold and Pipeline(partial(_folding, plan, fold, fresh, False))
        db = binder.db

        def scalar(row, stats):
            stats.subquery_executions += 1
            profiler = stats.profiler
            if folded:
                groups = folded.get(profiler)(db, row, stats,
                                              DEFAULT_BATCH_SIZE)
                return output(row + tuple(groups[()]), stats)[0]
            # not the drive loop: the outer execution's output_rows /
            # batches / elapsed_seconds are not charged for these rows
            values = []
            for batch in plan.iter_batches(db, row, stats,
                                           DEFAULT_BATCH_SIZE):
                if profiler is not None:
                    profiler.rows_out[plan.slot] += len(batch)
                    profiler.batches[plan.slot] += 1
                for inner in batch:
                    values.append(output(inner, stats)[0])
            if not values:
                return None
            if len(values) > 1:
                raise DatabaseError(
                    "scalar subquery returned %d rows" % len(values)
                )
            return values[0]

        return scalar

    def execute(self, db, env=None, stats=None, batch_size=None):
        """Run the query; returns (rows, stats).  Each row is a tuple of
        output values in declaration order.  ``batch_size`` only tunes
        how many rows the operators hand over at once (None: the
        default), never the result."""
        stats = stats or ExecutionStats()
        rows = list(chain.from_iterable(
            self.execute_batches(db, env, stats, batch_size)))
        return rows, stats

    def execute_batches(self, db, env=None, stats=None, batch_size=None):
        """Yield lists of output-row tuples, at most ``batch_size`` each
        — the one loop that drives a plan to output rows, generated with
        the plan's top chain (DESIGN §9.1).

        ``stats.batches`` / ``output_rows`` count what was handed to the
        consumer, and ``elapsed_seconds`` the time spent producing it:
        the clock stops while the consumer holds a batch, and a consumer
        that stops early has been charged for what it received.  Between
        batches the loop checks ``stats.deadline``.
        """
        stats = stats or ExecutionStats()
        start = time.perf_counter()
        binding, outer_row = self.runtime.get(self, db, env)
        profiler = stats.profiler
        if profiler is not None:
            profiler.attach(binding.observation)
        yield from binding.drive.get(profiler)(
            db, outer_row, stats, batch_size or DEFAULT_BATCH_SIZE, start)

    # -- explain --------------------------------------------------------------

    def explain(self, db=None, analyze=False, env=None):
        """This query's :class:`~repro.obs.explain.ExplainReport` —
        render with ``str()``, export with ``.to_json()``.
        ``analyze=True`` executes against ``db``."""
        from repro.obs.explain import ExplainReport

        if analyze and db is None:
            raise PlanError("Query.explain(analyze=True) requires db=")
        assign_plan_node_ids(self)
        return ExplainReport.for_query(db, self, analyze=analyze, env=env)

    # -- streaming ------------------------------------------------------------

    def stream_pieces(self, db, env=None, stats=None, batch_size=None):
        """Yield the :class:`~repro.rdb.sqlxml.Markup` pieces of the
        first output column of every row, in row order.

        The pieces are ``row[0]``'s markup as
        :func:`~repro.rdb.sqlxml.row_items` renders it — a top-level
        scalar escaped, as the XSLT VM escapes text — no piece spanning
        more than one aggregated row.  This is a loop over
        :meth:`execute_batches`, which owns the drive loop, its deadline
        check and the ``batches`` / ``output_rows`` /
        ``elapsed_seconds`` accounting.
        """
        if not self.outputs:
            raise PlanError("cannot stream a query with no outputs")
        for batch in self.execute_batches(db, env, stats, batch_size):
            for row in batch:
                yield from row_items(row[0])

    # -- SQL rendering --------------------------------------------------------

    def fingerprint(self):
        """Stable content hash of this query's shape (its SQL rendering).

        The serving layer (:mod:`repro.serve`) keys compiled plans by the
        stylesheet hash plus the source's structural fingerprint; two
        queries with the same SQL text compile to the same plan against
        the same catalog.  Index DDL is *not* visible in the SQL text —
        storage-level fingerprints (:meth:`ObjectRelationalStorage.
        fingerprint`) cover that.
        """
        return hashlib.sha256(self.to_sql().encode("utf-8")).hexdigest()

    def to_sql(self):
        select = ", ".join(
            expr.to_sql() + (" AS %s" % name if name else "")
            for name, expr in self.outputs
        )
        from_clause, where_clause, order_clause = _render_plan(self.plan)
        text = "SELECT %s" % select
        if from_clause:
            text += " FROM %s" % from_clause
        if where_clause:
            text += " WHERE %s" % where_clause
        if order_clause:
            text += " ORDER BY %s" % order_clause
        return text


def _render_plan(plan):
    """A plan's FROM / WHERE / ORDER BY fragments, as its operators
    render themselves."""
    sources, predicates = [], []
    order_clause = plan.render_root(sources, predicates)
    return ", ".join(sources), " AND ".join(predicates), order_clause


def assign_plan_node_ids(plan_or_query, extra_plans=()):
    """Stamp every plan node with a stable pre-order ``plan_node_id``.

    The ids appear in ``explain`` output as ``#n`` and are what the
    rewrite-decision ledger (:mod:`repro.obs.decisions`) records as SQL
    provenance.  ``extra_plans`` extends numbering over plan trees that
    hang off expressions rather than the main tree — the correlated
    XMLAgg subqueries the SQL merge builds per repeating element.
    Returns the ``{id(node): plan_node_id}`` map.
    """
    roots = []
    if plan_or_query is not None:  # a plan, or anything carrying one
        roots.append(getattr(plan_or_query, "plan", plan_or_query))
    roots.extend(extra_plans)
    ids = {}
    counter = 0
    for root in roots:
        if not hasattr(root, "iter_plan"):
            continue
        for node in root.iter_plan():
            if id(node) in ids:
                continue
            counter += 1
            node.plan_node_id = counter
            ids[id(node)] = counter
    return ids


def explain(plan_or_query, indent=0, profile=None):
    """A readable operator-tree rendering (EXPLAIN) — the pure tree
    renderer :class:`~repro.obs.explain.ExplainReport` calls.

    Pass ``profile=`` (an executed :class:`PlanProfiler`) to annotate
    every node with its actual row count, open count and self/total
    wall time (EXPLAIN ANALYZE).  Nothing executes here:
    :meth:`Query.explain` / :meth:`ExplainReport.for_query
    <repro.obs.explain.ExplainReport.for_query>` run the query.
    """
    return "\n".join(
        line for _, line in explain_lines(plan_or_query, indent, profile))


def explain_lines(plan, indent=0, profile=None):
    """The lines of :func:`explain`, each with the operator it renders
    (None for a query's header line)."""
    if isinstance(plan, Query):
        yield None, "QUERY outputs=[%s]" % ", ".join(
            name or expr.to_sql() for name, expr in plan.outputs)
        plan, indent = plan.plan, indent + 1
    label = type(plan).__name__
    node_id = getattr(plan, "plan_node_id", None)
    if node_id is not None:
        label = "#%d %s" % (node_id, label)
    detail = "".join(" " + _fact_text(*fact) for fact in plan.detail())
    yield plan, ("  " * indent + label + detail + _estimate_note(plan)
                 + _profile_note(plan, profile))
    for child in plan.children():
        yield from explain_lines(child, indent + 1, profile)


def _fact_text(key, value, text=None):
    """How the EXPLAIN line words one :meth:`PlanNode.detail` fact."""
    if text is None:
        text = "%s=%s" % (
            key, ", ".join(value) if isinstance(value, list) else value)
    return text


def _estimate_note(plan):
    """Cost-based planner estimates, when the optimizer stamped them."""
    estimated_rows = getattr(plan, "estimated_rows", None)
    if estimated_rows is None:
        return ""
    estimated_cost = getattr(plan, "estimated_cost", None)
    note = "  (est rows=%s" % _fmt_estimate(estimated_rows)
    if estimated_cost is not None:
        note += " cost=%s" % _fmt_estimate(estimated_cost)
    return note + ")"


def _fmt_estimate(value):
    if float(value) == int(value):
        return "%d" % int(value)
    return "%.1f" % value


def _profile_note(plan, profile):
    if profile is None:
        return ""
    node_profile = profile.get(plan)
    if node_profile is None:
        return "  (never executed)"
    batches = ""
    if node_profile.batches:
        batches = " batches=%d" % node_profile.batches
    timing = ""
    if node_profile.total_seconds is not None:
        timing = " total=%.3fms self=%.3fms" % (
            node_profile.total_seconds * 1000.0,
            profile.self_seconds(plan) * 1000.0)
    qnote = ""
    if getattr(plan, "estimated_rows", None) is not None:
        from repro.obs.feedback import format_qerror, q_error

        # estimates are per open; a correlated inner plan re-opens per
        # outer row, so judge the per-open actual (rows / loops)
        opens = node_profile.opens or 1
        qnote = " q=%s" % format_qerror(
            q_error(plan.estimated_rows, node_profile.rows_out / opens)
        )
    return "  (actual rows=%d%s opens=%d%s%s)" % (
        node_profile.rows_out, batches, node_profile.opens, timing, qnote)
