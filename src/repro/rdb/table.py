"""Heap tables: row storage with stable row ids."""

from __future__ import annotations


class HeapTable:
    """Append-only row storage; row id is the list position."""

    def __init__(self, schema):
        self.schema = schema
        self.rows = []
        # (column position, BTreeIndex) for every index over this table;
        # the owning Database keeps the list, extend() keeps them current.
        self.indexes = []

    def __len__(self):
        return len(self.rows)

    def extend(self, value_rows):
        """Append rows (coerced to column types) and enter them in the
        table's indexes; returns the row id of the first.  Every row is
        coerced before any is stored, and each index takes its column as
        one run."""
        first = len(self.rows)
        if value_rows:
            columns = self.schema.coerce_columns(value_rows)
            self.rows.extend(zip(*columns))
            row_ids = range(first, len(self.rows))
            for position, index in self.indexes:
                index.extend(columns[position], row_ids)
        return first

    def fetch(self, row_id):
        return self.rows[row_id]

    def scan(self):
        """Yield (row_id, row) pairs."""
        return enumerate(self.rows)

    def row_dict(self, row):
        """Row tuple → {column: value} mapping."""
        return dict(zip(self.schema.column_names(), row))
