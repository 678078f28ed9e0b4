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
    ``exact``, and ``convert(value)`` otherwise;
    :meth:`TableSchema.coerce_columns` decides that a column at a time.
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


#: each coerces to exactly its type: a str subclass (``Markup``) is stored
#: as plain ``str``, so a binding may take a TEXT value for ``str`` itself
_COERCIONS = {INT: (int, int), FLOAT: (float, float), TEXT: (str, str)}


class TableSchema:
    """Ordered column list with name lookup; ``names`` and ``types``:
    each column's name and ``exact`` type."""

    def __init__(self, name, columns):
        self.name = name
        self.columns = list(columns)
        self.names = tuple(column.name for column in self.columns)
        self.types = tuple(column.exact for column in self.columns)
        self._coercions = [
            (frozenset((column.exact, type(None))), column.coerce)
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

    def column_names(self):
        return list(self.names)

    def coerce_columns(self, value_rows):
        """A non-empty batch of rows, transposed into one tuple per column
        with every value coerced to the column's type.  A column is
        checked whole — the set of its value types against the exact type
        and NULL — and only one that needs it is converted cell by cell."""
        width = len(self.columns)
        lengths = set(map(len, value_rows))
        if lengths != {width}:
            raise DatabaseError(
                "table %r expects %d values, got %d"
                % (self.name, width, (lengths - {width}).pop()))
        return [
            values if accepted.issuperset(map(type, values))
            else tuple(map(coerce, values))
            for values, (accepted, coerce)
            in zip(zip(*value_rows), self._coercions)
        ]
