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
:class:`BindingCache`.  Nothing here is pickled: an artifact carries the
tree, not the binding.
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
    positions, so a bound program is only valid for those very schemas."""

    __slots__ = ("db", "markup", "schemas")

    def __init__(self, db, markup=False):
        self.db = db
        self.markup = markup
        self.schemas = {}

    def table(self, name):
        table = self.db.table(name)
        self.schemas[name] = table.schema
        return table


#: layout and row of no outer prefix: what a top-level execution without a
#: caller-supplied ``env`` is bound and run under
_NO_OUTER = (Layout(), ())


class BoundNode:
    """A plan node bound to one row layout: the node, the layout of the
    rows it yields, and the bound arguments its ``batches`` takes.
    Immutable once built, so any number of executions share it."""

    __slots__ = ("node", "layout", "args")

    def __init__(self, node, layout, *args):
        self.node = node
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
        return profiler.wrap_batches(self.node, batches)

    def iter_rows(self, db, outer, stats, batch_size):
        """:meth:`iter_batches` flattened, for operators that consume
        their child one row at a time (sorts, builds, merges)."""
        return chain.from_iterable(
            self.iter_batches(db, outer, stats, batch_size))


class Binding:
    """A query bound to one catalog: ``source(db, outer_row, stats,
    batch_size)`` yields batches of the rows the ``outputs`` closures
    (``output``: all of them, as one tuple) evaluate.  It remembers what
    its slots were resolved against — the database, the very
    ``TableSchema`` objects, the shape of the caller's ``env`` — and
    :meth:`fits` is checked once per execution, never per row."""

    __slots__ = ("db", "schemas", "shape", "source", "outputs", "output")

    def __init__(self, query, db, markup, outer):
        binder = Binder(db, markup)
        self.source, self.outputs = query.bind(binder, outer)
        self.output = tuple_of(self.outputs)
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
