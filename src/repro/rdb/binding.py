"""Bind once, run per row: what plans and expressions are bound against
and into.

A row is a **flat tuple**.  Its static shape is a :class:`Layout` —
``(alias, column names)`` segments in slot order — and a correlated
inner plan sees its outer row as the *prefix* of its own rows, so an
outer layout is a prefix of the inner one and outer references resolve
like any other.  One *bind* pass per (plan, catalog) walks the operator
tree and every expression under it with a :class:`Binder`, resolves
every name to a slot (name errors are raised here, once, not per row)
and leaves closures ``f(row, stats)`` behind; the pass's result is a
:class:`BoundNode` per operator and, for a whole query, the
:class:`Binding` the :class:`~repro.rdb.plan.Query` caches in its
:class:`BindingCache`.  The same pass gives every operator an
*observation slot* and leaves an :class:`Observation` behind: what a
profiled execution counts into and what EXPLAIN ANALYZE, the metrics
and the Q-error loop read back.  Nothing here is pickled: an artifact
carries the tree, not the binding.
"""

from __future__ import annotations

import threading
from itertools import chain

from repro.errors import DatabaseError


class Layout:
    """The static shape of a flat tuple row: ``(alias, column names)``
    segments in slot order.  A later segment shadows an earlier one of
    the same alias; a segment whose alias is None holds slots no name
    reaches — aggregate accumulator state, found through ``aggregates``:
    ``{id(aggregate expr): (slot, finaliser)}``."""

    __slots__ = ("segments", "width", "aggregates", "_slots")

    def __init__(self, segments=(), aggregates=None):
        self.segments = tuple(segments)
        self.width = sum(len(names) for _, names in self.segments)
        self.aggregates = aggregates or {}
        self._slots = None

    @classmethod
    def of_env(cls, env):
        """``(layout, row)`` of a caller-supplied ``{alias: {column:
        value}}`` environment: the outer prefix row, flattened once."""
        env = env or {}
        layout = cls((alias, tuple(columns)) for alias, columns in env.items())
        row = tuple(
            value for columns in env.values() for value in columns.values()
        )
        return layout, row

    def extend(self, alias, names):
        """This layout followed by one more segment."""
        return Layout(self.segments + ((alias, tuple(names)),))

    def join(self, other, outer):
        """This layout followed by ``other``'s segments past the prefix
        ``outer`` that both sides were bound under."""
        return Layout(self.segments + other.segments[len(outer.segments):])

    def _visible(self):
        """``{alias: {column: slot}}`` of the segments names reach."""
        if self._slots is None:
            visible = {}
            offset = 0
            for alias, names in self.segments:
                if alias is not None:
                    visible[alias] = {
                        name: offset + position
                        for position, name in enumerate(names)
                    }
                offset += len(names)
            self._slots = visible
        return self._slots

    def slot(self, column, alias=None):
        """The tuple position of a (possibly alias-qualified) column."""
        visible = self._visible()
        if alias is not None:
            slots = visible.get(alias)
            if slots is None:
                raise DatabaseError(
                    "alias %r is not in scope (have: %s)"
                    % (alias, ", ".join(sorted(visible)) or "none")
                )
            if column not in slots:
                raise DatabaseError(
                    "no column %r in alias %r" % (column, alias)
                )
            return slots[column]
        matches = [slots for slots in visible.values() if column in slots]
        if not matches:
            raise DatabaseError("unknown column %r" % column)
        if len(matches) > 1:
            raise DatabaseError("ambiguous column %r" % column)
        return matches[0][column]


class Binder:
    """What one bind pass resolves against: the catalog, the
    representation SQL/XML values take (``markup`` text or DOM nodes),
    and the ``{table name: TableSchema}`` it resolved — slots are column
    positions, so a bound program is only valid for those very schemas.
    It also hands every operator it binds its observation slot
    (``slots``: ``{id(plan node): slot}``, ``nodes``: by slot) and keeps
    the plan roots bound (``plans``: the main tree, then each subquery
    reached through an expression) for the :class:`Observation`."""

    __slots__ = ("db", "markup", "schemas", "slots", "nodes", "plans")

    def __init__(self, db, markup=False):
        self.db = db
        self.markup = markup
        self.schemas = {}
        self.slots = {}
        self.nodes = []
        self.plans = []

    def table(self, name):
        table = self.db.table(name)
        self.schemas[name] = table.schema
        return table

    def bound(self, node, layout, *args):
        """``node`` bound to ``layout``: a :class:`BoundNode` under the
        node's slot — one per plan node, however many places bind it."""
        slot = self.slots.get(id(node))
        if slot is None:
            slot = self.slots[id(node)] = len(self.nodes)
            self.nodes.append(node)
        return BoundNode(node, slot, layout, *args)


#: layout and row of no outer prefix: what a top-level execution without a
#: caller-supplied ``env`` is bound and run under
_NO_OUTER = (Layout(), ())


class BoundNode:
    """A plan node bound to one row layout: the node, its observation
    slot, the layout of the rows it yields, and the bound arguments its
    ``batches`` takes.  Immutable once built, so any number of
    executions share it."""

    __slots__ = ("node", "slot", "layout", "args")

    def __init__(self, node, slot, layout, *args):
        self.node = node
        self.slot = slot
        self.layout = layout
        self.args = args

    def iter_batches(self, db, outer, stats, batch_size):
        """Open the node's batch stream under the prefix row ``outer``,
        profiled when ``stats`` carries a profiler.  Parents iterate
        children through this so per-node counts are collected."""
        batches = self.node.batches(db, outer, stats, batch_size, *self.args)
        profiler = getattr(stats, "profiler", None)
        if profiler is None:
            return batches
        return profiler.wrap_batches(self.slot, batches)

    def iter_rows(self, db, outer, stats, batch_size):
        """:meth:`iter_batches` flattened, for operators that consume
        their child one row at a time (sorts, builds, merges)."""
        return chain.from_iterable(
            self.iter_batches(db, outer, stats, batch_size))


class Observation:
    """What one bind pass fixed about observing the plan.  Every bound
    operator has a slot (``slots``: ``{id(node): slot}``; ``nodes``, by
    slot, keeps the ids valid), so a profiled execution owns only its
    per-slot counters.  ``rows`` is what is read back after a run:
    ``(slot, plan_node_id, operator name, table_name, estimated_rows)``
    — plain data — per node EXPLAIN shows: the
    main tree, then the subquery plans it numbers (those the rewrite's
    ledger bound), in pre-order and, where numbered, ``#n`` order.  A
    plan is numbered and costed at compile, before it is first bound."""

    __slots__ = ("rows", "slots", "nodes", "instruments")

    def __init__(self, binder):
        self.slots = binder.slots
        self.nodes = binder.nodes
        #: whatever the reader of ``rows`` keeps per row between runs
        #: (``repro.obs.feedback``: its metric instruments)
        self.instruments = None
        rows, seen = [], set()
        self._observe(binder.plans[0], rows, seen)
        for plan in binder.plans[1:]:
            if getattr(plan, "plan_node_id", None) is not None:
                self._observe(plan, rows, seen)
        rows.sort(key=lambda row: row[1] or 0)
        self.rows = tuple(rows)

    def _observe(self, node, rows, seen):
        """Append ``node``'s subtree to ``rows``, once (two subqueries
        may share one; ``seen``: the slots appended)."""
        slot = self.slots[id(node)]
        if slot in seen:
            return
        seen.add(slot)
        rows.append((slot, getattr(node, "plan_node_id", None),
                     type(node).__name__, getattr(node, "table_name", None),
                     getattr(node, "estimated_rows", None)))
        for child in node.children():
            self._observe(child, rows, seen)


class Binding:
    """A query bound to one catalog: ``source(db, outer_row, stats,
    batch_size)`` yields batches of the rows the ``outputs`` closures
    (``output``: all of them, as one tuple) evaluate, and
    ``observation`` is the :class:`Observation` of the pass.  It
    remembers what its slots were resolved against — the database, the
    very ``TableSchema`` objects, the shape of the caller's ``env`` —
    and :meth:`fits` is checked once per execution, never per row."""

    __slots__ = ("db", "schemas", "shape", "source", "outputs", "output",
                 "observation")

    def __init__(self, query, db, markup, outer):
        binder = Binder(db, markup)
        self.source, self.outputs = query.bind(binder, outer)
        self.output = tuple_of(self.outputs)
        self.observation = Observation(binder)
        self.db = db
        self.schemas = list(binder.schemas.items())
        self.shape = outer.segments

    def fits(self, db, shape):
        if db is not self.db or shape != self.shape:
            return False
        for name, schema in self.schemas:
            if not db.has_table(name) or db.table(name).schema is not schema:
                return False
        return True


class BindingCache:
    """A query's runtime handle: its current :class:`Binding` per
    SQL/XML representation, and how often it was (re)bound.  Never
    pickled — a loaded query starts with an empty one and binds on its
    first execution.  Executions only read a binding, so threads share
    it; the lock makes concurrent first executions bind once."""

    __slots__ = ("binds", "_bindings", "_lock")

    def __init__(self):
        self.binds = 0
        self._bindings = {}  # markup (bool) -> Binding
        self._lock = threading.Lock()

    def get(self, query, db, env, markup):
        """``(binding, outer row)`` for one execution: the cached binding
        when it still fits ``db`` and the shape of ``env``, else a fresh
        one (which replaces it)."""
        outer, outer_row = Layout.of_env(env) if env else _NO_OUTER
        binding = self._bindings.get(markup)
        if binding is None or not binding.fits(db, outer.segments):
            with self._lock:
                binding = self._bindings.get(markup)
                if binding is None or not binding.fits(db, outer.segments):
                    binding = Binding(query, db, markup, outer)
                    self._bindings[markup] = binding
                    self.binds += 1
        return binding, outer_row


def tuple_of(closures):
    """One closure returning the tuple of the given closures' values."""
    if not closures:
        return lambda row, stats: ()
    if len(closures) == 1:
        (only,) = closures
        return lambda row, stats: (only(row, stats),)
    return lambda row, stats: tuple([f(row, stats) for f in closures])


# -- ORDER BY --------------------------------------------------------------------


def _null_safe(value):
    # Sort NULLs first; mixed types compare as text.
    if value is None:
        return (0, "", 0.0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, "", float(value))
    return (2, str(value), 0.0)


def bind_order(binder, order_by, layout):
    """Bind ``(expr, descending)`` ORDER BY pairs: returns ``(key,
    directions)`` — ``key(row, stats)`` is the tuple of key values to
    decorate a row with, ``directions`` what :func:`sort_pairs` takes."""
    key = tuple_of([expr.bind(binder, layout) for expr, _ in order_by])
    return key, [descending for _, descending in order_by]


def sort_pairs(pairs, directions):
    """``(key values, payload)`` pairs in ORDER BY order — the one sort
    behind ``Sort``, ``TopN``, ``XMLAgg`` and ``LISTAGG``: stable, one
    pass per key, last key first, so arrival order breaks ties.  Keys
    compare natively; where they cannot (NULLs, mixed types) NULLs sort
    first and mixed types compare as text."""
    for position in range(len(directions) - 1, -1, -1):
        descending = directions[position]
        try:
            pairs = sorted(pairs, key=lambda pair: pair[0][position],
                           reverse=descending)
        except TypeError:
            pairs = sorted(pairs,
                           key=lambda pair: _null_safe(pair[0][position]),
                           reverse=descending)
    return pairs
