"""Iterator-based query execution (the pull model of paper [10], one
batch per ``next()``) over plans that are bound once.

Rows are flat tuples and every name is resolved to a tuple slot by one
*bind* pass per (plan, catalog) — see :mod:`repro.rdb.binding`.
``node.bind(binder, outer)`` returns a :class:`BoundNode`;
``batches(db, outer, stats, batch_size, *bound)`` is the one way an
operator produces rows (lists of up to ``batch_size`` tuples) and
:meth:`BoundNode.iter_batches` (the same stream, profiled) the one way a
parent consumes them.  A :class:`Query` couples a plan with output
expressions and caches its binding: :meth:`Query.execute_batches` is its
one drive loop (``execute`` collects it), and :meth:`Query.stream_pieces`
runs the same tree bound to the markup representation of SQL/XML values
(:mod:`repro.rdb.sqlxml`) so serialized output leaves the executor in
chunks without a result document ever being materialized.  Execution
statistics (heap rows read, index probes, index entries touched, XML
elements built) are collected per run — benchmarks and tests assert on
them to prove plan shape, e.g. that the rewritten Figure-2 query probes
the B-tree instead of scanning.
"""

from __future__ import annotations

import hashlib
import time
from collections import namedtuple
from itertools import chain, islice

from repro.errors import DatabaseError, DeadlineExceededError, PlanError
from repro.obs.metrics import global_metrics
from repro.obs.trace import current_trace_id
from repro.rdb.binding import (
    BindingCache,
    bind_order,
    sort_pairs,
    tuple_of,
)
from repro.rdb.expressions import SqlExpr, _text
from repro.rdb.sqlxml import bind_aggregates, render_item, row_items

#: Row count per batch wherever ``batch_size`` is not given (or None).
DEFAULT_BATCH_SIZE = 256


class ExecutionStats:
    """Counters collected during one query execution.

    ``elapsed_seconds`` is filled by :meth:`Query.execute` (and by the
    functional transform path); ``btree_node_visits`` counts emulated
    B-tree node descents per probe; ``docs_materialized`` counts full
    DOMs rebuilt by the functional (no-rewrite) path — the paper's §2
    materialisation cost.  ``profiler`` optionally carries a
    :class:`PlanProfiler` collecting per-plan-node row counts and
    timings for EXPLAIN ANALYZE.

    ``markup`` is not a counter: it is the representation SQL/XML values
    take during this execution (see :mod:`repro.rdb.sqlxml`), set by the
    entry point that opened it — the transform front door and
    :meth:`Query.stream_pieces` render text, everything else builds DOM
    nodes — and picks which binding of the plan runs.  Nor is
    ``deadline``: the ``time.perf_counter()`` instant after which the
    drive loop raises :class:`~repro.errors.DeadlineExceededError`
    between batches (None: never).  One stats object belongs to one
    execution.
    """

    _FIELDS = (
        "rows_scanned", "index_probes", "index_entries", "output_rows",
        "xml_elements", "subquery_executions", "btree_node_visits",
        "docs_materialized", "batches", "peak_buffered_bytes",
        "hash_build_rows", "hash_probes", "topn_heap_rows",
        "struct_range_scans", "struct_join_rows",
        "peak_ingest_buffered_bytes",
        "elapsed_seconds",
    )

    __slots__ = _FIELDS + ("profiler", "markup", "deadline")

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
        #: structural path-index range scans opened (per indexed path)
        self.struct_range_scans = 0
        #: (ancestor, descendant) pairs emitted by StructuralJoin
        self.struct_join_rows = 0
        #: high-water mark of parse buffer + in-flight row scopes during
        #: streaming ingest (0 when ingest went through a full DOM)
        self.peak_ingest_buffered_bytes = 0
        self.elapsed_seconds = 0.0
        self.profiler = None
        self.markup = False
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
NodeProfile = namedtuple("NodeProfile",
                         "rows_out opens batches total_seconds")


class PlanProfiler:
    """Collects per-node row counts and wall time during execution.

    Attached via ``stats.profiler``; every plan node routes child
    iteration through :meth:`BoundNode.iter_batches`, which wraps the
    batch generator when a profiler is present.  The counters are four
    flat arrays indexed by observation slot, sized when the drive loop
    hands over (:meth:`attach`) the binding's shared
    :class:`~repro.rdb.binding.Observation` (``table``).  Time spent
    inside a node's ``next()`` includes its children (total time); self
    time is derived at rendering time as total minus the children's.

    The profiler captures the ambient trace id at construction, so an
    EXPLAIN ANALYZE retained by the flight recorder links back to the
    request whose execution produced it.
    """

    __slots__ = ("trace_id", "table", "rows_out", "opens", "batches",
                 "total_seconds")

    def __init__(self):
        #: trace id of the request this execution profiled under (None
        #: outside any trace)
        self.trace_id = current_trace_id()
        self.table = None
        self.rows_out = self.opens = self.batches = self.total_seconds = ()

    def attach(self, table):
        """Count into ``table``'s slots from here on; a further
        execution of the same binding keeps accumulating."""
        if table is not self.table:
            self.table = table
            width = len(table.nodes)
            self.rows_out = [0] * width
            self.opens = [0] * width
            self.batches = [0] * width
            self.total_seconds = [0.0] * width

    def get(self, node):
        """The node's :class:`NodeProfile`; None when it never opened."""
        slot = None if self.table is None else self.table.slots.get(id(node))
        if slot is None or not self.opens[slot]:
            return None
        return NodeProfile(self.rows_out[slot], self.opens[slot],
                           self.batches[slot], self.total_seconds[slot])

    def wrap_batches(self, slot, iterator):
        """Pass a node's batch stream through, counting opens, batches,
        the rows inside them and the time spent producing them."""
        rows_out, batches = self.rows_out, self.batches
        total_seconds, clock = self.total_seconds, time.perf_counter
        self.opens[slot] += 1
        start = clock()
        for batch in iterator:
            total_seconds[slot] += clock() - start
            batches[slot] += 1
            rows_out[slot] += len(batch)
            yield batch
            start = clock()
        total_seconds[slot] += clock() - start

    def self_seconds(self, node):
        """Total time minus the direct children's total time."""
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
    ``batch_size`` flat tuple rows.

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

    def bind(self, binder, outer):
        raise NotImplementedError

    def batches(self, db, outer, stats, batch_size):
        raise NotImplementedError

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
    """A leaf over ``node.table_name``: its columns follow the prefix."""
    schema = binder.table(node.table_name).schema
    layout = outer.extend(node.alias, schema.column_names())
    return binder.bound(node, layout, *args)


def _fetched(rows, row_ids, outer, stats, batch_size):
    """Batches of ``outer + rows[row_id]``, each fetch a scanned row."""
    batch = []
    for row_id in row_ids:
        stats.rows_scanned += 1
        batch.append(outer + rows[row_id])
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


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

    def __init__(self, table_name, alias=None):
        self.table_name = table_name
        self.alias = alias or table_name

    def detail(self):
        return (("table", self.table_name), ("alias", self.alias))

    def render_sql(self, sources, predicates):
        sources.append(_source(self.table_name, self.alias))

    def bind(self, binder, outer):
        return _bind_scan(self, binder, outer)

    def batches(self, db, outer, stats, batch_size):
        rows = db.table(self.table_name).rows
        for start in range(0, len(rows), batch_size):
            batch = rows[start:start + batch_size]
            stats.rows_scanned += len(batch)
            # no outer row: the slice of the table's own tuples is the batch
            yield [outer + row for row in batch] if outer else batch


class IndexScan(PlanNode):
    """B-tree probe: ``column op key`` where ``key`` may be correlated."""

    regroupable = True

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
        coerce = binder.table(self.table_name).schema.column(column).coerce
        return _bind_scan(self, binder, outer,
                          self.key_expr.bind(binder, outer), coerce)

    def batches(self, db, outer, stats, batch_size, key, coerce):
        # a generator itself, so the probe runs (and is timed) on first pull
        matches = db.index(self.index_name).lookup_op(
            self.op, coerce(key(outer, stats)), stats=stats)
        yield from _fetched(db.table(self.table_name).rows, matches, outer,
                            stats, batch_size)


class Filter(PlanNode):
    """Row filter over a child plan."""

    regroupable = True

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
        return binder.bound(self, child.layout, child,
                            self.predicate.bind(binder, child.layout))

    def batches(self, db, outer, stats, batch_size, child, predicate):
        for child_batch in child.iter_batches(db, outer, stats, batch_size):
            batch = [row for row in child_batch if predicate(row, stats)]
            if batch:
                yield batch


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


class StructuralScan(PlanNode):
    """Structural path-index range scan: every element named ``name``, in
    document order (``(doc_id, start)``), via merged per-path B-tree
    ranges — no tree walk, no sort."""

    def __init__(self, table_name, name, alias=None, doc_id=None):
        self.table_name = table_name
        self.name = name
        self.alias = alias or table_name
        self.doc_id = doc_id

    def detail(self):
        facts = (("table", self.table_name), ("name", self.name),
                 ("alias", self.alias))
        return facts if self.doc_id is None else (*facts, ("doc", self.doc_id))

    def render_sql(self, sources, predicates):
        sources.append(_source(self.table_name, self.alias))
        predicate = '"%s"."NAME" = \'%s\' /*+ STRUCT_PATH(%s) */' % (
            self.alias.upper(), self.name, self.table_name)
        if self.doc_id is not None:
            predicate += ' AND "%s"."DOC_ID" = %s' % (
                self.alias.upper(), self.doc_id)
        predicates.append(predicate)

    def bind(self, binder, outer):
        return _bind_scan(self, binder, outer)

    def batches(self, db, outer, stats, batch_size):
        labelled = db.structural_index(self.table_name).scan_name(
            self.name, doc_id=self.doc_id, stats=stats)
        return _fetched(db.table(self.table_name).rows,
                        (row_id for _, row_id in labelled), outer, stats,
                        batch_size)


class StructuralJoin(PlanNode):
    """Stack-based ancestor/descendant merge join (Stack-Tree-Desc).

    Both inputs must arrive in ``(doc, start)`` containment-label order
    (StructuralScan and preorder-loaded table scans both do).  A stack of
    open ancestors replaces the per-pair containment test: each arriving
    descendant matches exactly the stack entries below it, bottom-to-top —
    O(n + m + output) instead of O(n * m * depth) parent-chain walking.

    Output order is descendant-major with ancestors ascending by start,
    which is byte-identical to ``NestedLoopJoin(descendant, ancestor,
    TreeContains)`` over start-ordered inputs.
    """

    def __init__(self, descendant, ancestor, desc_alias, anc_alias,
                 doc_column="doc_id", start_column="start",
                 end_column="end"):
        self.descendant = descendant
        self.ancestor = ancestor
        self.desc_alias = desc_alias
        self.anc_alias = anc_alias
        self.doc_column = doc_column
        self.start_column = start_column
        self.end_column = end_column

    def children(self):
        return (self.descendant, self.ancestor)

    def detail(self):
        return (("desc", self.desc_alias), ("anc", self.anc_alias),
                ("labels", [self.start_column, self.end_column],
                 "labels=(%s,%s)" % (self.start_column, self.end_column)))

    def render_sql(self, sources, predicates):
        _render_join(
            self, sources, predicates,
            'STRUCT_CONTAINS("%s", "%s") /*+ STRUCT_JOIN */'
            % (self.anc_alias.upper(), self.desc_alias.upper()))

    def bind(self, binder, outer):
        desc = self.descendant.bind(binder, outer)
        anc = self.ancestor.bind(binder, outer)
        labels = (self.doc_column, self.start_column, self.end_column)
        return binder.bound(
            self, desc.layout.join(anc.layout, outer),
            desc, anc,
            [desc.layout.slot(column, self.desc_alias)
             for column in labels[:2]],
            [anc.layout.slot(column, self.anc_alias) for column in labels])

    def batches(self, db, outer, stats, batch_size, *bound):
        return _chunked(self._pairs(db, outer, stats, batch_size, *bound),
                        batch_size)

    def _pairs(self, db, outer, stats, batch_size, desc, anc, desc_slots,
               anc_slots):
        desc_doc, desc_start = desc_slots
        anc_doc, anc_start, anc_end = anc_slots
        cut = len(outer)
        anc_batches = anc.iter_batches(db, outer, stats, batch_size)
        anc_iter = chain.from_iterable(anc_batches)
        next_anc = next(anc_iter, None)
        # stack entries: (doc, start, end, ancestor's own columns),
        # innermost last
        stack = []
        emitted = 0
        try:
            for desc_row in desc.iter_rows(db, outer, stats, batch_size):
                desc_key = (desc_row[desc_doc], desc_row[desc_start])
                while next_anc is not None:
                    anc_key = (next_anc[anc_doc], next_anc[anc_start])
                    if anc_key > desc_key:
                        break
                    while stack and (stack[-1][0], stack[-1][2]) < anc_key:
                        stack.pop()
                    stack.append((anc_key[0], anc_key[1], next_anc[anc_end],
                                  next_anc[cut:]))
                    next_anc = next(anc_iter, None)
                while stack and (stack[-1][0], stack[-1][2]) < desc_key:
                    stack.pop()
                for doc, start, end, anc_columns in stack:
                    # strict: a node never pairs with itself
                    if doc == desc_key[0] and start < desc_key[1]:
                        emitted += 1
                        stats.struct_join_rows += 1
                        yield desc_row + anc_columns
        finally:
            anc_batches.close()
            global_metrics().counter("structural.index.join_rows").inc(
                emitted)


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
        return binder.bound(
            self, layout, left, right,
            self.left_key.bind(binder, left.layout),
            self.right_key.bind(binder, right.layout),
            _bind_condition(self.condition, binder, layout))

    def batches(self, db, outer, stats, batch_size, *bound):
        return _chunked(self._joined(db, outer, stats, batch_size, *bound),
                        batch_size)

    def _joined(self, db, outer, stats, batch_size, left, right, left_key,
                right_key, condition):
        # {canonical key: [the right side's own columns, in build order]}
        cut = len(outer)
        table = {}
        for row in right.iter_rows(db, outer, stats, batch_size):
            key = _hash_key(right_key(row, stats))
            stats.hash_build_rows += 1
            if key is not None:  # NULL never equi-joins
                table.setdefault(key, []).append(row[cut:])
        for left_row in left.iter_rows(db, outer, stats, batch_size):
            stats.hash_probes += 1
            key = _hash_key(left_key(left_row, stats))
            if key is None:
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
    """

    regroupable = True

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
        left = self.left.bind(binder, outer)
        right = self.right.bind(binder, outer)
        return binder.bound(
            self, left.layout.join(right.layout, outer),
            left, right,
            tuple_of([expr.bind(binder, left.layout)
                      for expr in self.left_keys]),
            tuple_of([expr.bind(binder, right.layout)
                      for expr in self.right_keys]))

    def batches(self, db, outer, stats, batch_size, left, right, left_keys,
                right_keys):
        cut = len(outer)
        table = {}
        for row in right.iter_rows(db, outer, stats, batch_size):
            stats.hash_build_rows += 1
            key = tuple(map(_hash_key, right_keys(row, stats)))
            if None not in key:  # a NULL key component never equi-joins
                table.setdefault(key, []).append(row[cut:])
        # what stands in for a left row with no matching group; computed
        # once per execution, on the first miss
        miss = None
        # one output row per left row, so a left batch maps to one batch
        for left_batch in left.iter_batches(db, outer, stats, batch_size):
            batch = []
            for left_row in left_batch:
                stats.hash_probes += 1
                key = tuple(map(_hash_key, left_keys(left_row, stats)))
                matches = table.get(key) if None not in key else None
                if not matches:
                    if miss is None:
                        miss = (right.node.empty_row(outer, stats,
                                                     *right.args),)
                    matches = miss
                for columns in matches:
                    batch.append(left_row + columns)
            yield batch


def _hash_key(value):
    """Canonical equi-join hash key, matching ``BinOp('=')`` semantics:
    NULL joins nothing (None sentinel), and mixed-type operands compare
    as SQL text — so every key hashes by its text rendering (integral
    floats and ints collapse to the same string, exactly as ``=`` treats
    them as equal)."""
    if value is None:
        return None
    return _text(value)


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
    under ``alias`` the group keys and the aggregate outputs.
    Accumulator state is a list per group, one slot per aggregate.
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

    def bind(self, binder, outer):
        child = self.child.bind(binder, outer)
        accumulators, final = bind_aggregates(
            binder, self.outputs, child.layout, outer)
        names = [name for name, _ in (*self.group_by, *self.outputs)]
        return binder.bound(
            self, outer.extend(self.alias, names), child,
            tuple_of([expr.bind(binder, child.layout)
                      for _, expr in self.group_by]),
            accumulators,
            tuple_of([expr.bind(binder, final) for _, expr in self.outputs]))

    def batches(self, db, outer, stats, batch_size, child, group_key,
                accumulators, finish):
        groups = {}
        for row in child.iter_rows(db, outer, stats, batch_size):
            key = group_key(row, stats)
            states = groups.get(key)
            if states is None:
                states = groups[key] = [[] for _ in accumulators]
            for accumulate, state in zip(accumulators, states):
                accumulate(state, row, stats)
        if not self.group_by and not groups:
            groups[()] = [[] for _ in accumulators]
        yield from _sliced(
            [outer + key + finish(outer + tuple(states), stats)
             for key, states in groups.items()],
            batch_size)

    def empty_row(self, outer, stats, child, group_key, accumulators,
                  finish):
        """The columns of a group no child row fell into: group keys
        NULL, aggregates finalized over fresh state (COUNT()=0,
        XMLAgg=[], SUM/MIN/MAX=NULL) — exactly what a correlated
        aggregating subquery returns when no row matches the parent.
        :class:`HashLeftJoin` appends this on probe misses."""
        fresh = tuple([] for _ in accumulators)
        return (None,) * len(self.group_by) + finish(outer + fresh, stats)


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
        # never ask the child for more rows at once than are still wanted:
        # a scan under a limit then reads exactly ``count`` rows
        for batch in child.iter_batches(db, outer, stats,
                                        min(batch_size, remaining)):
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            remaining -= len(batch)
            yield batch


def _check_deadline(stats):
    if stats.deadline is not None and time.perf_counter() >= stats.deadline:
        raise DeadlineExceededError(
            "deadline passed during plan execution (after %d batches)"
            % stats.batches)


class Query:
    """A plan plus output expressions; the unit the database executes.
    ``runtime`` caches its bindings (closures): a runtime handle,
    dropped on pickling and rebuilt on first execution."""

    def __init__(self, plan, outputs):
        self.plan = plan
        self.outputs = outputs  # list of (name, expr)
        self.runtime = BindingCache()

    def __getstate__(self):
        return {"plan": self.plan, "outputs": self.outputs}

    def __setstate__(self, state):
        self.__init__(state["plan"], state["outputs"])

    def bind(self, binder, outer):
        """Bind plan and outputs under the prefix layout ``outer``.
        Returns ``(source, outputs)``: ``source(db, outer_row, stats,
        batch_size)`` yields batches of the rows the ``outputs``
        closures evaluate against — the plan's rows, or for an aggregate
        query the single row carrying the accumulated state."""
        binder.plans.append(self.plan)
        plan = self.plan.bind(binder, outer)
        accumulators, final = bind_aggregates(
            binder, self.outputs, plan.layout, outer)
        if not accumulators:
            final = plan.layout
            source = plan.iter_batches
        else:
            def source(db, outer_row, stats, batch_size):
                states = [[] for _ in accumulators]
                for row in plan.iter_rows(db, outer_row, stats, batch_size):
                    for accumulate, state in zip(accumulators, states):
                        accumulate(state, row, stats)
                return [[outer_row + tuple(states)]]
        return source, [expr.bind(binder, final) for _, expr in self.outputs]

    def bind_scalar(self, binder, outer):
        """This query as a correlated scalar subquery of rows of
        ``outer``: a closure ``f(row, stats)`` that runs it with ``row``
        as the prefix and returns its single value (or NULL)."""
        if len(self.outputs) != 1:
            raise PlanError("scalar subquery must have one output column")
        source, (value,) = self.bind(binder, outer)
        db = binder.db

        def scalar(row, stats):
            stats.subquery_executions += 1
            # not the drive loop: the outer execution's output_rows /
            # batches / elapsed_seconds are not charged for these rows
            values = [
                value(inner, stats)
                for batch in source(db, row, stats, DEFAULT_BATCH_SIZE)
                for inner in batch
            ]
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
        — the one loop that drives a plan to output rows.

        ``stats.batches`` / ``output_rows`` count what was handed to the
        consumer, and ``elapsed_seconds`` the time spent producing it:
        the clock stops while the consumer holds a batch, and a consumer
        that stops early has been charged for what it received.  Between
        batches the loop checks ``stats.deadline``.
        """
        stats = stats or ExecutionStats()
        start = time.perf_counter()
        binding, outer_row = self.runtime.get(self, db, env, stats.markup)
        if stats.profiler is not None:
            stats.profiler.attach(binding.observation)
        output = binding.output
        for batch in binding.source(db, outer_row, stats,
                                    batch_size or DEFAULT_BATCH_SIZE):
            _check_deadline(stats)
            out = [output(row, stats) for row in batch]
            stats.batches += 1
            stats.output_rows += len(out)
            stats.elapsed_seconds += time.perf_counter() - start
            yield out
            start = time.perf_counter()
        stats.elapsed_seconds += time.perf_counter() - start

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
        """Yield serialized text pieces of the first output column of
        every row, in row order.

        This opens a *markup* execution (``stats.markup``): the plan's
        markup binding runs, whose result column (the ``xml_content``
        construction in rewritten plans) renders text instead of
        building result DOMs — the same binding the transform front door
        runs — so the concatenation of the pieces is byte-identical to
        executing the query and serializing ``row[0]`` of every row,
        while no piece ever spans more than one aggregated row.  This is
        a rendering loop over :meth:`execute_batches`, which owns the
        drive loop, its deadline check and the ``batches`` /
        ``output_rows`` / ``elapsed_seconds`` accounting.
        """
        stats = stats or ExecutionStats()
        stats.markup = True
        if not self.outputs:
            raise PlanError("cannot stream a query with no outputs")
        for batch in self.execute_batches(db, env, stats, batch_size):
            for row in batch:
                for item in row_items(row[0]):
                    yield render_item(item)

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
    qnote = ""
    if getattr(plan, "estimated_rows", None) is not None:
        from repro.obs.feedback import format_qerror, q_error

        # estimates are per open; a correlated inner plan re-opens per
        # outer row, so judge the per-open actual (rows / loops)
        opens = node_profile.opens or 1
        qnote = " q=%s" % format_qerror(
            q_error(plan.estimated_rows, node_profile.rows_out / opens)
        )
    return "  (actual rows=%d%s opens=%d total=%.3fms self=%.3fms%s)" % (
        node_profile.rows_out,
        batches,
        node_profile.opens,
        node_profile.total_seconds * 1000.0,
        profile.self_seconds(plan) * 1000.0,
        qnote,
    )
