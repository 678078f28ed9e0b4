"""Bind once, run per row: what plans and expressions are bound against
and into.

A row is a **flat tuple**.  Its static shape is a :class:`Layout` —
``(alias, column names)`` segments in slot order — and a correlated
inner plan sees its outer row as the *prefix* of its own rows, so an
outer layout is a prefix of the inner one and outer references resolve
like any other.  One *bind* pass per (plan form, database) walks the
operator tree and every expression under it with a :class:`Binder`,
resolves every name to a slot (name errors are raised here, once, not
per row) and leaves functions ``f(row, stats)`` behind — each predicate,
key tuple, output tuple, SQL/XML template and aggregate fold one
generated function (:class:`Codegen`, the one place source text becomes
code); the pass's result is a :class:`BoundNode` per operator and, for
a whole query, the :class:`Binding` the database keeps in its
:class:`BindingTable` and the :class:`~repro.rdb.plan.Query` caches in
its :class:`BindingCache`.  The same pass gives every
operator an *observation slot* and leaves an :class:`Observation`
behind: what a profiled execution counts into and what EXPLAIN ANALYZE,
the metrics and the Q-error record read back.  Nothing here is pickled:
an artifact carries the tree, not the binding.
"""

from __future__ import annotations

import pickle
import threading
from functools import partial
from itertools import chain
from operator import itemgetter

from repro.errors import DatabaseError


class Layout:
    """The static shape of a flat tuple row: ``(alias, column names)``
    segments in slot order, and ``types``, per slot ``int``, ``float``,
    ``str`` or None (unknown).  A later segment shadows an earlier one of
    the same alias; a segment whose alias is None holds slots no name
    reaches — aggregate accumulator state, found through ``aggregates``:
    ``{id(aggregate expr): (slot, finaliser)}``."""

    __slots__ = ("segments", "width", "aggregates", "types")

    def __init__(self, segments=(), aggregates=None, width=None, types=None):
        self.segments = tuple(segments)
        self.width = (sum(len(names) for _, names in self.segments)
                      if width is None else width)
        self.aggregates = aggregates or {}
        self.types = (None,) * self.width if types is None else types

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

    def extend(self, alias, names, types=None):
        """This layout followed by one more segment (of ``types``)."""
        names = tuple(names)
        return Layout(self.segments + ((alias, names),),
                      width=self.width + len(names),
                      types=self.types + (types or (None,) * len(names)))

    def join(self, other, outer):
        """This layout followed by ``other``'s segments past the prefix
        ``outer`` that both sides were bound under."""
        return Layout(self.segments + other.segments[len(outer.segments):],
                      width=self.width + other.width - outer.width,
                      types=self.types + other.types[outer.width:])

    def slot(self, column, alias=None):
        """The tuple position of a (possibly alias-qualified) column,
        found from the last segment back: the first segment of an alias
        met is the one in scope."""
        end = self.width
        if alias is not None:
            for name, names in reversed(self.segments):
                end -= len(names)
                if name == alias:
                    if column not in names:
                        raise DatabaseError(
                            "no column %r in alias %r" % (column, alias))
                    return end + names.index(column)
            visible = {name for name, _ in self.segments if name is not None}
            raise DatabaseError(
                "alias %r is not in scope (have: %s)"
                % (alias, ", ".join(sorted(visible)) or "none"))
        found = None
        seen = set()
        for name, names in reversed(self.segments):
            end -= len(names)
            if name is None or name in seen:
                continue
            seen.add(name)
            if column in names:
                if found is not None:
                    raise DatabaseError("ambiguous column %r" % column)
                found = end + names.index(column)
        if found is None:
            raise DatabaseError("unknown column %r" % column)
        return found


class Binder:
    """What one bind pass resolves against: the catalog, and the
    ``{table name: TableSchema}`` it resolved — slots are column
    positions, so a bound program is only valid for those very schemas.
    It also hands every operator it binds its observation slot
    (``slots``: ``{id(plan node): slot}``, read only while it binds;
    ``nodes``: by slot) and keeps the plan roots bound (``plans``: the
    main tree, then each subquery reached through an expression) for the
    :class:`Observation`."""

    __slots__ = ("db", "schemas", "slots", "nodes", "plans")

    def __init__(self, db):
        self.db = db
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
    slot, the layout of the rows it yields, the bound arguments its
    ``batches`` (or emitted source) takes and, pipelined, the
    :class:`Pipeline` of its own chain (``stream``, made on first pull).
    Otherwise immutable once built, so any number of executions share it."""

    __slots__ = ("node", "slot", "layout", "args", "stream")

    def __init__(self, node, slot, layout, *args):
        self.node = node
        self.slot = slot
        self.layout = layout
        self.args = args
        self.stream = None

    def iter_batches(self, db, outer, stats, batch_size):
        """Open the node's batch stream under the prefix row ``outer``.
        Parents iterate children through this; on a profiled run it
        counts a breaker's open (a chain counts its members'), and the
        parent's loop counts the rows and batches it pulls."""
        profiler = stats.profiler
        if self.node.pipelined:
            if self.stream is None:
                self.stream = Pipeline(partial(self.node.stream, self))
            return self.stream.get(profiler)(db, outer, stats, batch_size)
        batches = self.node.batches(db, outer, stats, batch_size, *self.args)
        if profiler is None:
            return batches
        profiler.opens[self.slot] += 1
        if profiler.total_seconds is None:
            return batches
        return profiler.wrap_batches(self.slot, batches)

    def iter_rows(self, db, outer, stats, batch_size):
        """:meth:`iter_batches` flattened, for operators that consume
        their child one row at a time (sorts, nested loops, merges)."""
        return self.flatten(self.iter_batches(db, outer, stats, batch_size),
                            stats)

    def flatten(self, batches, stats):
        """The rows of this node's ``batches``, counted as they are
        flattened on a profiled run."""
        profiler = stats.profiler
        if profiler is None:
            return chain.from_iterable(batches)
        return profiler.flattened(self.slot, batches)


class Pipeline:
    """One fused chain's generated function, built by ``emit(timed)`` on
    first use of each variant: plain, or timed for a timed profiler.
    Threads racing to emit build the same function; either is kept."""

    __slots__ = ("emit", "_made")

    def __init__(self, emit):
        self.emit = emit
        self._made = [None, None]

    def get(self, profiler):
        timed = profiler is not None and profiler.total_seconds is not None
        made = self._made[timed]
        if made is None:
            made = self._made[timed] = self.emit(timed)
        return made


class Observation:
    """What one bind pass fixed about observing the plan.  Every bound
    operator has a slot (``nodes``, by slot), so a profiled execution
    owns only its per-slot counters; ``slots`` finds a numbered node's
    slot by its ``plan_node_id`` — never by object identity, so every
    query sharing the binding (equal plans, :class:`BindingTable`)
    reads its own nodes' counts.  ``rows`` is what is read back after a
    run: ``(slot, plan_node_id, operator name, table_name,
    estimated_rows)`` — plain data — per node EXPLAIN shows: the main
    tree, then the subquery plans it numbers (those the rewrite's
    ledger bound), in pre-order and, where numbered, ``#n`` order.  A
    plan is numbered and costed at compile, before it is first bound;
    a hand-built one is numbered at its own bind."""

    __slots__ = ("rows", "slots", "nodes", "instruments")

    def __init__(self, binder):
        self.slots = {}
        self.nodes = binder.nodes
        #: whatever the reader of ``rows`` keeps per row between runs
        #: (``repro.obs.feedback``: its metric instruments)
        self.instruments = None
        rows, seen = [], set()
        self._observe(binder.plans[0], binder.slots, rows, seen)
        for plan in binder.plans[1:]:
            if getattr(plan, "plan_node_id", None) is not None:
                self._observe(plan, binder.slots, rows, seen)
        rows.sort(key=lambda row: row[1] or 0)
        self.rows = tuple(rows)

    def _observe(self, node, by_node, rows, seen):
        """Append ``node``'s subtree to ``rows`` and its numbered nodes to
        ``slots``, once (two subqueries may share one; ``by_node``: the
        binder's ``{id(node): slot}``, ``seen``: the slots appended)."""
        slot = by_node[id(node)]
        if slot in seen:
            return
        seen.add(slot)
        node_id = getattr(node, "plan_node_id", None)
        if node_id is not None:
            self.slots.setdefault(node_id, slot)  # the main tree's first
        rows.append((slot, node_id, type(node).__name__,
                     getattr(node, "table_name", None),
                     getattr(node, "estimated_rows", None)))
        for child in node.children():
            self._observe(child, by_node, rows, seen)


class Binding:
    """A query bound to one catalog: ``drive``, the :class:`Pipeline` of
    its drive loop — ``f(db, outer_row, stats, batch_size, start)``
    yields batches of the query's output-value tuples — and
    ``observation``, the :class:`Observation` of the pass.
    It remembers what its slots were resolved against — the database,
    the very ``TableSchema`` objects, the shape of the caller's ``env``
    — and :meth:`fits` is checked once per execution, never per row."""

    __slots__ = ("db", "schemas", "shape", "drive", "observation")

    def __init__(self, query, db, outer):
        binder = Binder(db)
        self.drive = query.bind(binder, outer)
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
    """A query's runtime handle: its current :class:`Binding`, and how
    often it took one (bound, or found in the database's
    :class:`BindingTable`).  Never pickled — a loaded query starts with
    an empty one and takes a binding on its first execution.  Executions
    only read a binding, so threads share it; the lock makes concurrent
    first executions take one once."""

    __slots__ = ("binds", "_binding", "_lock")

    def __init__(self):
        self.binds = 0
        self._binding = None
        self._lock = threading.Lock()

    def get(self, query, db, env):
        """``(binding, outer row)`` for one execution: the cached binding
        when it still fits ``db`` and the shape of ``env``, else the
        database's for this query form (which replaces it)."""
        outer, outer_row = Layout.of_env(env) if env else _NO_OUTER
        binding = self._binding
        if binding is None or not binding.fits(db, outer.segments):
            with self._lock:
                binding = self._binding
                if binding is None or not binding.fits(db, outer.segments):
                    binding = self._binding = db.bindings.get(query, db,
                                                              outer)
                    self.binds += 1
        return binding, outer_row


#: bindings a database keeps, by query form (the least recently used goes
#: first)
_BINDING_TABLE_SIZE = 64


class BindingTable:
    """One database's :class:`Binding` per query form — the bytes of the
    pickled query (:meth:`~repro.rdb.plan.Query.form`: every operator,
    expression, constant, count, index path, estimate and plan node id)
    and the shape of the caller's ``env``.  Equal plans compiled apart
    therefore share one binding: its generated chains, its slots and its
    :class:`Observation`, once :meth:`Binding.fits` holds.  A binding
    that no longer fits is bound afresh in its place; a query that does
    not pickle is bound alone.  It keeps the ``_BINDING_TABLE_SIZE``
    most recently used."""

    __slots__ = ("_bindings", "_lock")

    def __init__(self):
        self._bindings = {}
        self._lock = threading.Lock()

    def get(self, query, db, outer):
        try:
            key = query.form(), outer.segments
        except (pickle.PicklingError, TypeError, AttributeError):
            return Binding(query, db, outer)  # no form (a closure in it)
        with self._lock:
            binding = self._bindings.pop(key, None)  # put back last, below
        if binding is None or not binding.fits(db, outer.segments):
            binding = Binding(query, db, outer)
        with self._lock:
            if len(self._bindings) >= _BINDING_TABLE_SIZE:
                del self._bindings[next(iter(self._bindings))]
            self._bindings[key] = binding
        return binding

    def __len__(self):
        return len(self._bindings)


# -- generated row functions ------------------------------------------------------

#: factories kept, by source text (the least recently used goes first)
_FACTORY_CACHE_SIZE = 512
#: nesting past which a subexpression is a function of its own: a level
#: opens at most two brackets, and CPython's parser stops at 200
_MAX_DEPTH = 32

_factories = {}
_factories_lock = threading.Lock()


class Codegen:
    """One generated function ``f(row, stats)`` (or an aggregate's fold
    over a batch) being built — the one place source text becomes code.  ``emit`` methods return source (an
    atom) over ``row`` and ``stats``; any value it needs (a constant,
    helper, closure, format string) is a parameter of the factory
    ``make(...)`` around it — :meth:`helper` a fixed name, :meth:`ref`
    ``_kN`` — never spliced in, so the source is the cache key of its
    factory and a plan of the same shape only calls it."""

    __slots__ = ("names", "values", "depth")

    def __init__(self, names=None, values=None):
        self.names = list(names) if names else []  # the factory's parameters
        self.values = list(values) if values else []  # ... and their values
        self.depth = 0

    def ref(self, value):
        name = "_k%d" % len(self.values)
        self.names.append(name)
        self.values.append(value)
        return name

    def helper(self, name, function):
        if name not in self.names:
            self.names.append(name)
            self.values.append(function)
        return name

    def emit(self, expr, binder, layout):
        """``expr``'s source; nested too deep, a call of its own
        function."""
        if self.depth >= _MAX_DEPTH:
            return "%s(row, stats)" % self.ref(expr.bind(binder, layout))
        self.depth += 1
        source = expr.emit(binder, layout, self)
        self.depth -= 1
        return source

    def function(self, body, signature="row, stats"):
        """``f(row, stats)`` (or ``f(signature)``) running ``body``
        (statements apart by a newline and two spaces)."""
        source = "def make(%s):\n def f(%s):\n  %s\n return f\n" % (
            ", ".join(self.names), signature, body)
        with _factories_lock:
            make = _factories.pop(source, None)  # put back last, below
        if make is None:
            namespace = {}
            exec(compile(source, "<bound expression>", "exec"), namespace)
            make = namespace["make"]
            if not self.values:  # nothing bound in: one shared function
                make = lambda shared=make(): shared  # noqa: E731
        with _factories_lock:
            if len(_factories) >= _FACTORY_CACHE_SIZE:
                del _factories[next(iter(_factories))]
            _factories[source] = make
        return make(*self.values)


# -- ORDER BY --------------------------------------------------------------------


def _null_safe(value):
    # Sort NULLs first; mixed types compare as text.
    if value is None:
        return (0, "", 0.0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, "", float(value))
    return (2, str(value), 0.0)


_KEYS = itemgetter(0)


def sort_pairs(pairs, directions):
    """``(key values, payload)`` pairs in ORDER BY order — the one sort
    behind ``Sort``, ``TopN``, ``XMLAgg`` and ``LISTAGG``: stable, one
    pass per key, last key first, so arrival order breaks ties.  Keys
    compare natively; where they cannot (NULLs, mixed types) NULLs sort
    first and mixed types compare as text."""
    for position in range(len(directions) - 1, -1, -1):
        descending = directions[position]
        try:
            # one key: its 1-tuple orders as it does, with no call per pair
            pairs = sorted(pairs, key=_KEYS if len(directions) == 1
                           else lambda pair: pair[0][position],
                           reverse=descending)
        except TypeError:
            pairs = sorted(pairs,
                           key=lambda pair: _null_safe(pair[0][position]),
                           reverse=descending)
    return pairs
