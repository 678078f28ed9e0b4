"""The database facade: catalog, DDL/DML, views, query execution."""

from __future__ import annotations

import itertools

from repro.errors import CatalogError
from repro.rdb.btree import BTreeIndex
from repro.rdb.infer import CompileContext
from repro.rdb.plan import ExecutionStats, Query
from repro.rdb.planner import optimize_query
from repro.rdb.stats import StatisticsCatalog
from repro.rdb.table import HeapTable
from repro.rdb.types import Column, TableSchema


class View:
    """A named query.  XMLType views (paper Table 3) are plain views whose
    single output column is an XML construction expression;
    ``compile_context`` derives what the rewrite needs — the inferred
    structure and its sample document — on the first compile, once."""

    def __init__(self, name, query):
        self.name = name
        self.query = query
        self.compile_context = CompileContext(query)

    @property
    def xml_output(self):
        """(name, expr) of the single output column, for XMLType views."""
        if len(self.query.outputs) != 1:
            raise CatalogError(
                "view %r has %d output columns, expected 1"
                % (self.name, len(self.query.outputs))
            )
        return self.query.outputs[0]

    def fingerprint(self):
        """Stable hash of the view definition (name + defining query) —
        the cache-key component the serving layer uses for view sources."""
        import hashlib

        return hashlib.sha256(
            ("view:%s:%s" % (self.name, self.query.fingerprint()))
            .encode("utf-8")
        ).hexdigest()


class Database:
    """An in-process database instance."""

    def __init__(self):
        self._tables = {}
        self._indexes = {}
        self._views = {}
        self._index_names = itertools.count(1)
        self.stats = StatisticsCatalog()

    # -- DDL ----------------------------------------------------------------

    def create_table(self, name, columns):
        """``columns`` is a list of Column or (name, type) pairs."""
        if name in self._tables:
            raise CatalogError("table %r already exists" % name)
        columns = [
            column if isinstance(column, Column) else Column(*column)
            for column in columns
        ]
        table = HeapTable(TableSchema(name, columns))
        self._tables[name] = table
        return table

    def drop_table(self, name):
        self.table(name)  # raises if missing
        del self._tables[name]
        for index_name in [
            index_name
            for index_name, index in self._indexes.items()
            if index.table_name == name
        ]:
            del self._indexes[index_name]
        self.stats.note_ddl(name)

    def create_index(self, table_name, column_name, index_name=None):
        """Build a B-tree index over existing rows; maintained on insert."""
        table = self.table(table_name)
        position = table.schema.position_of(column_name)
        if index_name is None:
            index_name = "idx_%s_%s" % (table_name, column_name)
        if index_name in self._indexes:
            raise CatalogError("index %r already exists" % index_name)
        index = BTreeIndex(index_name, table_name, column_name)
        index.build(
            (row[position], row_id) for row_id, row in table.scan()
        )
        self._indexes[index_name] = index
        table.indexes.append((position, index))
        self.stats.note_ddl(table_name)
        return index

    def create_view(self, name, query):
        if name in self._views:
            raise CatalogError("view %r already exists" % name)
        view = View(name, query)
        self._views[name] = view
        return view

    # -- DML -----------------------------------------------------------------

    def insert(self, table_name, *rows):
        """Append rows; returns their row ids.  One statistics note for
        the whole batch, and only the table's own indexes are touched."""
        first = self.table(table_name).extend(rows)
        if rows:
            self.stats.note_dml(table_name)
        return list(range(first, first + len(rows)))

    # -- catalog lookups ------------------------------------------------------

    def table(self, name):
        if name not in self._tables:
            raise CatalogError("no table %r" % name)
        return self._tables[name]

    def table_names(self):
        return sorted(self._tables)

    def has_table(self, name):
        return name in self._tables

    def index(self, name):
        if name not in self._indexes:
            raise CatalogError("no index %r" % name)
        return self._indexes[name]

    def find_index(self, table_name, column_name):
        """Any index on (table, column), or None."""
        for index in self._indexes.values():
            if (
                index.table_name == table_name
                and index.column_name == column_name
            ):
                return index
        return None

    def indexes_on(self, table_name):
        """All indexes over one table, sorted by (column, name) — the
        deterministic order storage fingerprints hash over."""
        return sorted(
            (
                index for index in self._indexes.values()
                if index.table_name == table_name
            ),
            key=lambda index: (index.column_name, index.name),
        )

    def view(self, name):
        if name not in self._views:
            raise CatalogError("no view %r" % name)
        return self._views[name]

    # -- statistics ------------------------------------------------------------

    def analyze(self, table_name=None):
        """Compute and cache optimizer statistics (ANALYZE)."""
        return self.stats.analyze(self, table_name)

    def stats_version(self):
        """Monotonic statistics version; bumps on ANALYZE and on DML/DDL
        that invalidates analyzed statistics.  Plan caches key on this."""
        return self.stats.version

    def fingerprint(self):
        """Stable hash of the catalog shape: every table schema, index
        and view definition.  Anything that changes what the optimizer
        could pick (a new index, a different view) changes this value.
        The serve tier's persistent artifact store embeds it in entry
        headers, so a plan compiled against one catalog is never loaded
        into a process serving a different one."""
        import hashlib

        parts = []
        for name in sorted(self._tables):
            schema = self._tables[name].schema
            parts.append("table:%s(%s)" % (name, ",".join(
                "%s:%s" % (column.name, column.type)
                for column in schema.columns
            )))
        for name in sorted(self._indexes):
            index = self._indexes[name]
            parts.append("index:%s(%s.%s)" % (name, index.table_name,
                                              index.column_name))
        for name in sorted(self._views):
            parts.append("view:%s" % self._views[name].fingerprint())
        return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()

    # -- execution -------------------------------------------------------------

    def execute(self, query, env=None, stats=None, level=None):
        """Optimize (``level="off"``: run the plan as written) and
        execute a :class:`Query`; returns (rows, stats).  Pass a
        prepared :class:`ExecutionStats` (e.g. with a
        :class:`~repro.rdb.plan.PlanProfiler` attached) to collect into."""
        query = optimize_query(query, self, level=level)
        return query.execute(self, env=env, stats=stats or ExecutionStats())

    def optimize(self, query, level=None, ledger=None, decorrelate=True):
        return optimize_query(query, self, level=level, ledger=ledger,
                              decorrelate=decorrelate)

    def explain(self, query, analyze=False, env=None, level=None):
        """EXPLAIN (or EXPLAIN ANALYZE) a :class:`Query` or a SQL SELECT
        string: an :class:`~repro.obs.explain.ExplainReport` over the
        optimised operator tree with ``#n`` node ids and per-node cost
        estimates; with ``analyze=True`` the query runs here and actual
        row counts/timings appear next to the estimates.  ``str()`` /
        ``.render()`` give the text, ``.to_json()`` the structured
        form."""
        from repro.obs.explain import ExplainReport
        from repro.rdb.plan import assign_plan_node_ids

        if isinstance(query, str):
            from repro.rdb.sql_parser import parse_select

            query = parse_select(query)
        query = self.optimize(query, level=level)
        assign_plan_node_ids(query)
        return ExplainReport.for_query(self, query, analyze=analyze, env=env)

    def sql(self, statement, env=None):
        """Parse and execute one SQL statement (see
        :mod:`repro.rdb.sql_parser` for the supported subset)."""
        from repro.rdb.sql_parser import execute_sql

        return execute_sql(self, statement, env=env)
