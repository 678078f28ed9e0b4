"""Column types and table schemas for the relational engine."""

from __future__ import annotations

from repro.errors import CatalogError, DatabaseError
from repro.xmlmodel.nodes import Node

INT = "int"
FLOAT = "float"
TEXT = "text"
XML = "xml"

_TYPES = frozenset([INT, FLOAT, TEXT, XML])


class Column:
    """A typed column.

    ``coerce(value)`` is ``value`` itself when that is None or exactly an
    ``exact``, and ``convert(value)`` otherwise — the pair
    :meth:`TableSchema.coerce_row` inlines.
    """

    __slots__ = ("name", "type", "exact", "convert")

    def __init__(self, name, type_=TEXT):
        if type_ not in _TYPES:
            raise CatalogError("unknown column type %r" % type_)
        self.name = name
        self.type = type_
        self.exact, self.convert = (
            _COERCIONS.get(type_) or (None, self._as_xml))

    def coerce(self, value):
        """Coerce a Python value to this column's storage type."""
        if value is None or type(value) is self.exact:
            return value
        return self.convert(value)

    def _as_xml(self, value):
        if not isinstance(value, (Node, str)):
            raise DatabaseError(
                "XML column %r expects a node or markup text" % self.name
            )
        return value

    def __repr__(self):
        return "Column(%r, %r)" % (self.name, self.type)


def _as_text(value):
    return value if isinstance(value, str) else str(value)


_COERCIONS = {INT: (int, int), FLOAT: (float, float), TEXT: (str, _as_text)}


class TableSchema:
    """Ordered column list with name lookup."""

    def __init__(self, name, columns):
        self.name = name
        self.columns = list(columns)
        self._coercions = [(column.exact, column.convert)
                           for column in self.columns]
        self._index = {}
        for position, column in enumerate(self.columns):
            if column.name in self._index:
                raise CatalogError(
                    "duplicate column %r in table %r" % (column.name, name)
                )
            self._index[column.name] = position

    def position_of(self, column_name):
        if column_name not in self._index:
            raise CatalogError(
                "no column %r in table %r" % (column_name, self.name)
            )
        return self._index[column_name]

    def column(self, column_name):
        return self.columns[self.position_of(column_name)]

    def has_column(self, column_name):
        return column_name in self._index

    def column_names(self):
        return [column.name for column in self.columns]

    def coerce_row(self, values):
        if len(values) != len(self.columns):
            raise DatabaseError(
                "table %r expects %d values, got %d"
                % (self.name, len(self.columns), len(values))
            )
        return tuple([
            value if value is None or type(value) is exact
            else convert(value)
            for value, (exact, convert) in zip(values, self._coercions)
        ])
