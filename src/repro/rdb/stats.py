"""ANALYZE statistics: the catalog the cost-based planner estimates from.

Real relational optimizers (and the engines the paper targets) pick access
paths from *statistics*, not rules: per-table row counts, per-column
distinct-value counts and min/max bounds, and histograms over indexed
columns.  :class:`StatisticsCatalog` is that subsystem for the in-process
engine:

* ``analyze(table)`` (or ``analyze()`` for every table) computes and
  caches a :class:`TableStats` per table — row count, per-column
  :class:`ColumnStats` (distinct count, null count, min/max) and, for
  columns that carry a B-tree index, an equi-width :class:`Histogram`
  the planner uses for range-selectivity estimation;
* DML on an analyzed table drops its cached stats (the numbers are no
  longer trustworthy) — the planner falls back to live row counts and
  default selectivities until the next ``ANALYZE``;
* every change the optimizer could *observe* — an ``ANALYZE``, or DML
  that invalidated analyzed stats — bumps a monotonically increasing
  ``version``.  Storage fingerprints and the serving layer's plan-cache
  key incorporate that version, so a compiled plan chosen under stale
  statistics is never served again once the statistics move.

Estimation itself (selectivity formulas, cost constants) lives in
:mod:`repro.rdb.planner`; this module only owns the numbers.
"""

from __future__ import annotations

from repro.rdb.values import orderable

#: bucket count for equi-width histograms over indexed numeric columns
HISTOGRAM_BUCKETS = 16


class Histogram:
    """Equi-width histogram over a numeric column's non-NULL values."""

    __slots__ = ("low", "high", "width", "counts", "total")

    def __init__(self, values, buckets=HISTOGRAM_BUCKETS):
        self.low = min(values)
        self.high = max(values)
        self.total = len(values)
        span = float(self.high - self.low)
        if span <= 0.0:
            # single-valued column: one bucket holding everything
            self.width = 1.0
            self.counts = [self.total]
            return
        self.width = span / buckets
        self.counts = [0] * buckets
        for value in values:
            position = int((value - self.low) / self.width)
            if position >= buckets:  # value == high lands in the last bucket
                position = buckets - 1
            self.counts[position] += 1

    def selectivity(self, op, key):
        """Estimated fraction of rows satisfying ``column op key``."""
        if self.total == 0:
            return 0.0
        if op == "=":
            if key < self.low or key > self.high:
                return 0.0
            bucket = self._bucket_of(key)
            # assume uniformity inside the bucket: one distinct value's share
            return self.counts[bucket] / float(self.total) / max(
                1.0, self.width
            ) if self.width > 1.0 else self.counts[bucket] / float(self.total)
        if op in ("<", "<="):
            return self._fraction_below(key, inclusive=(op == "<="))
        if op in (">", ">="):
            return 1.0 - self._fraction_below(key, inclusive=(op == ">"))
        return 1.0

    def _bucket_of(self, key):
        position = int((key - self.low) / self.width)
        return min(max(position, 0), len(self.counts) - 1)

    def _fraction_below(self, key, inclusive):
        if key < self.low or (key == self.low and not inclusive):
            return 0.0
        if key > self.high or (key == self.high and inclusive):
            return 1.0
        bucket = self._bucket_of(key)
        below = sum(self.counts[:bucket])
        # linear interpolation inside the boundary bucket
        bucket_low = self.low + bucket * self.width
        fraction = (key - bucket_low) / self.width
        below += self.counts[bucket] * min(max(fraction, 0.0), 1.0)
        return min(1.0, below / float(self.total))


class ColumnStats:
    """Distinct/null counts and value bounds for one column."""

    __slots__ = ("column_name", "distinct", "null_count", "min", "max",
                 "histogram")

    def __init__(self, column_name, distinct, null_count, min_value,
                 max_value, histogram=None):
        self.column_name = column_name
        self.distinct = distinct
        self.null_count = null_count
        self.min = min_value
        self.max = max_value
        self.histogram = histogram

    def as_dict(self):
        return {
            "column": self.column_name,
            "distinct": self.distinct,
            "nulls": self.null_count,
            "min": self.min,
            "max": self.max,
            "histogram_buckets": (
                len(self.histogram.counts) if self.histogram else 0
            ),
        }


class TableStats:
    """ANALYZE output for one table."""

    __slots__ = ("table_name", "row_count", "columns", "version")

    def __init__(self, table_name, row_count, columns, version):
        self.table_name = table_name
        self.row_count = row_count
        self.columns = columns          # {column_name: ColumnStats}
        self.version = version          # catalog version when computed

    def column(self, column_name):
        return self.columns.get(column_name)

    def as_dict(self):
        return {
            "table": self.table_name,
            "rows": self.row_count,
            "columns": {
                name: stats.as_dict()
                for name, stats in sorted(self.columns.items())
            },
        }


class StatisticsCatalog:
    """Per-database statistics store with change versioning.

    ``version`` increases whenever the numbers the planner could have
    consumed change: on every ``analyze()`` and whenever DML/DDL drops a
    table's cached stats.  It never decreases, so it is safe to embed in
    cache keys and fingerprints.

    It holds no reference to its database (which holds it): ``analyze``
    is handed the database, so a dropped database is freed by refcount.
    """

    def __init__(self):
        self._tables = {}   # table_name -> TableStats
        self.version = 0

    # -- computing ---------------------------------------------------------------

    def analyze(self, db, table_name=None):
        """Compute (and cache) statistics over ``db``'s tables; returns the
        TableStats computed (a single one, or ``{name: TableStats}`` for a
        whole-database ANALYZE)."""
        self.version += 1
        if table_name is not None:
            self._tables[table_name] = self._compute(db, table_name)
            return self._tables[table_name]
        out = {}
        for name in db.table_names():
            out[name] = self._tables[name] = self._compute(db, name)
        return out

    def _compute(self, db, table_name):
        table = db.table(table_name)
        indexed = {
            index.column_name for index in db.indexes_on(table_name)
        }
        names = table.schema.column_names()
        per_column = {name: [] for name in names}
        row_count = 0
        for _, row in table.scan():
            row_count += 1
            for name, value in zip(names, row):
                per_column[name].append(value)
        columns = {}
        for name in names:
            values = [value for value in per_column[name] if value is not None]
            null_count = row_count - len(values)
            histogram = None
            if not values:
                columns[name] = ColumnStats(name, 0, null_count, None, None)
                continue
            numeric = all(
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                for value in values
            )
            if numeric:
                # over the values an index orders (a NaN or ±inf is none)
                ordered = [value for value in values if orderable(value)]
                min_value, max_value = (min(ordered), max(ordered)) \
                    if ordered else (None, None)
                if name in indexed and ordered:
                    histogram = Histogram(ordered)
            else:
                text = [str(value) for value in values]
                min_value, max_value = min(text), max(text)
            columns[name] = ColumnStats(
                name, len(set(values)), null_count, min_value, max_value,
                histogram=histogram,
            )
        return TableStats(table_name, row_count, columns, self.version)

    # -- lookup ------------------------------------------------------------------

    def table_stats(self, table_name):
        """Cached ANALYZE output, or None when never analyzed (or since
        invalidated)."""
        return self._tables.get(table_name)

    def column_stats(self, table_name, column_name):
        stats = self._tables.get(table_name)
        return stats.column(column_name) if stats is not None else None

    def analyzed_tables(self):
        return sorted(self._tables)

    # -- invalidation ------------------------------------------------------------

    def note_dml(self, table_name):
        """DML touched ``table_name``: analyzed stats are stale, drop them
        (bumping the version so cached plans chosen under them die too).
        A table that was never analyzed doesn't bump — the planner was
        already running on live row counts and defaults."""
        if self._tables.pop(table_name, None) is not None:
            self.version += 1

    def note_ddl(self, table_name):
        """Index/table DDL: histogram coverage changed, drop cached stats
        so the next ANALYZE rebuilds them for the new index set."""
        self.note_dml(table_name)

    def invalidate(self, table_name=None):
        """Explicitly drop cached stats (all tables when None)."""
        if table_name is not None:
            self.note_dml(table_name)
            return
        if self._tables:
            self._tables.clear()
            self.version += 1
