"""Tree storage for XMLType (the third storage model in the paper's
Figure 1: "Tree Storage", alongside object-relational and CLOB/BLOB).

Every node of every document becomes one row of a generic node table::

    <name>_nodes(node_id, doc_id, parent_id, seq, kind, name, value)

Rows are inserted in preorder; ``parent_id`` and ``seq`` are all the
materialiser needs to rebuild document order.

Unlike object-relational shredding, tree storage needs no schema and
handles *any* document — mixed content, comments, processing
instructions.  The cost is that navigation is self-joins over the node
table: descendant-axis (``//``) pairs are answered by the parent-chain
walk of :class:`TreeContains` (:meth:`descendant_query`).

Documents load either from a DOM (:meth:`load`) or straight from text in
bounded memory (:meth:`load_stream`); both feed one event-driven shredder
(a replayed DOM or the scanner's stream — see
:mod:`repro.xmlmodel.stream_ingest`), so rows and row order cannot
differ between the two doors.
"""

from __future__ import annotations

from functools import reduce

from repro.errors import DatabaseError
from repro.rdb.expressions import TreeContains, and_, col, const, eq
from repro.rdb.plan import Filter, NestedLoopJoin, Query, Scan
from repro.rdb.types import INT, TEXT
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.stream_ingest import (
    DEFAULT_CHUNK_SIZE,
    StreamParser,
    document_events,
)

# Node rows wait in a batch of this many before they are appended, so a
# streamed load never holds more than this beside the node table.
_BATCH_ROWS = 1024


class TreeStorage:
    """Schema-less node-table storage."""

    def __init__(self, db, name):
        self.db = db
        self.name = name
        self.table_name = "%s_nodes" % name
        db.create_table(
            self.table_name,
            [
                ("node_id", INT),
                ("doc_id", INT),
                ("parent_id", INT),
                ("seq", INT),
                ("kind", TEXT),
                ("name", TEXT),
                ("value", TEXT),
            ],
        )
        db.create_index(self.table_name, "doc_id")
        db.create_index(self.table_name, "node_id")
        self._doc_counter = 0
        self._node_counter = 0

    # -- loading -----------------------------------------------------------

    def load(self, document):
        return self._shred(document_events(document))

    def load_many(self, documents):
        return [self.load(document) for document in documents]

    def load_stream(self, source, stats=None, chunk_size=DEFAULT_CHUNK_SIZE):
        """Shred XML text into the node table without building a DOM.

        *source* is a string, a file-like object, or an iterable of text
        chunks.  Node ids, rows, row order and every index end up
        identical to :meth:`load` over the parsed document; memory stays
        bounded by the parser's token buffer plus one batch of rows and
        one frame per open element.  Pass an
        :class:`~repro.rdb.plan.ExecutionStats` to record the buffering
        high-water mark in ``peak_ingest_buffered_bytes``.
        """
        parser = StreamParser(source, chunk_size=chunk_size)
        doc_id = self._shred(parser.events())
        if stats is not None:
            stats.peak_ingest_buffered_bytes = max(
                stats.peak_ingest_buffered_bytes, parser.peak_buffered_bytes)
        return doc_id

    def _shred(self, events):
        """Node rows from one document's event stream (see
        :mod:`repro.xmlmodel.stream_ingest`), each a finished tuple when it
        is made, appended in batches.  Returns the doc id."""
        self._doc_counter += 1
        doc_id = self._doc_counter
        node_id = self._node_counter
        rows = []  # rows not yet appended
        frames = [[0, 0]]  # per open element: [node_id, next child seq]

        def flush():
            self.db.insert(self.table_name, *rows)
            del rows[:]
            self._node_counter = node_id

        for event in events:
            kind = event[0]
            if kind == "end":
                del frames[-1]
                if len(rows) >= _BATCH_ROWS:
                    flush()
                continue
            # every other event is one node under the innermost open element
            parent = frames[-1]
            node_id += 1
            if kind == "start":
                element_id = node_id
                rows.append((element_id, doc_id, parent[0], parent[1],
                             "element", event[1], None))
                frames.append([element_id, len(event[2])])
                for position, (name, value) in enumerate(event[2]):
                    node_id += 1
                    rows.append((node_id, doc_id, element_id, position,
                                 "attribute", name, value))
            elif kind == "leaf":
                # a start, text and end in one step: the element row, then
                # its text row if any
                rows.append((node_id, doc_id, parent[0], parent[1],
                             "element", event[1], None))
                if event[2] is not None:
                    node_id += 1
                    rows.append((node_id, doc_id, node_id - 1, 0, "text",
                                 None, event[2]))
                if len(rows) >= _BATCH_ROWS:
                    flush()
            else:
                # "text", "comment" and "pi" are stored under those names
                rows.append((node_id, doc_id, parent[0], parent[1], kind,
                             event[1] if kind == "pi" else None, event[-1]))
            parent[1] += 1
        flush()
        return doc_id

    # -- structural queries ----------------------------------------------------

    def descendant_query(self, ancestor_name, descendant_name, doc_id=None):
        """A :class:`Query` for the descendant-axis pattern
        ``//ancestor_name//descendant_name``: one output row per
        (ancestor, descendant) element pair.

        A nested-loop join whose condition walks parent chains
        (:class:`TreeContains`); the cost planner pushes the name tests
        into the two scans and keeps the walk, so every optimizer level
        returns the same rows in the same order.
        """
        conjuncts = [
            eq(col("kind", "d"), const("element")),
            eq(col("name", "d"), const(descendant_name)),
            eq(col("kind", "a"), const("element")),
            eq(col("name", "a"), const(ancestor_name)),
            TreeContains(self.table_name, "a", "d"),
        ]
        if doc_id is not None:
            conjuncts.insert(0, eq(col("doc_id", "d"), const(doc_id)))
            conjuncts.insert(1, eq(col("doc_id", "a"), const(doc_id)))
        predicate = reduce(and_, conjuncts)
        plan = Filter(
            NestedLoopJoin(
                Scan(self.table_name, alias="d"),
                Scan(self.table_name, alias="a"),
            ),
            predicate,
        )
        outputs = [
            ("doc_id", col("doc_id", "d")),
            ("ancestor", col("node_id", "a")),
            ("descendant", col("node_id", "d")),
        ]
        return Query(plan, outputs)

    def fingerprint(self):
        """Stable hash of the physical design: table layout, B-tree
        indexes, ANALYZE epoch — the serve-tier cache-key
        component, mirroring ``ObjectRelationalStorage.fingerprint``."""
        import hashlib

        schema = self.db.table(self.table_name).schema
        parts = ["tree:%s cols=%s" % (
            self.table_name,
            ",".join("%s:%s" % (column.name, column.type)
                     for column in schema.columns),
        )]
        for index in self.db.indexes_on(self.table_name):
            parts.append("index:%s:%s:%s" % (
                index.table_name, index.column_name, index.name))
        table_stats = self.db.stats.table_stats(self.table_name)
        if table_stats is not None:
            parts.append("stats:%s:%d" % (self.table_name,
                                          table_stats.version))
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    # -- materialisation ---------------------------------------------------------

    def document_ids(self):
        """The stored documents' ids, in load order."""
        return list(dict.fromkeys(
            row[1] for _, row in self.db.table(self.table_name).scan()))

    def materialize(self, doc_id, stats=None):
        """Rebuild one document: one indexed fetch of its rows, then an
        in-memory tree assembly."""
        table = self.db.table(self.table_name)
        index = self.db.find_index(self.table_name, "doc_id")
        rows = []
        for row_id in index.lookup_eq(doc_id, stats=stats):
            if stats is not None:
                stats.rows_scanned += 1
            rows.append(table.fetch(row_id))
        if not rows:
            raise DatabaseError("no document %d" % doc_id)
        if stats is not None:
            stats.docs_materialized += 1
        children = {}
        for row in rows:
            children.setdefault(row[2], []).append(row)
        for group in children.values():
            group.sort(key=lambda row: row[3])

        builder = TreeBuilder()

        def emit(row):
            kind = row[4]
            if kind == "element":
                builder.start_element(row[5])
                for child in children.get(row[0], ()):
                    if child[4] == "attribute":
                        builder.attribute(child[5], child[6])
                for child in children.get(row[0], ()):
                    if child[4] != "attribute":
                        emit(child)
                builder.end_element()
            elif kind == "text":
                builder.text(row[6])
            elif kind == "comment":
                builder.comment(row[6])
            elif kind == "pi":
                builder.processing_instruction(row[5], row[6])

        for row in children.get(0, ()):
            emit(row)
        return builder.finish()
