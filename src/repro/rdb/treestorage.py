"""Tree storage for XMLType (the third storage model in the paper's
Figure 1: "Tree Storage", alongside object-relational and CLOB/BLOB).

Every node of every document becomes one row of a generic node table::

    <name>_nodes(node_id, doc_id, parent_id, seq, kind, name, value,
                 start, end, level)

``(start, end, level)`` are containment labels (see
:mod:`repro.xmlmodel.labels`): rows are inserted in preorder, so a table
scan already streams nodes in ``(doc_id, start)`` order and descendant
tests are pure interval arithmetic instead of parent-chain walks.

Unlike object-relational shredding, tree storage needs no schema and
handles *any* document — mixed content, comments, processing
instructions.  The cost is that navigation is self-joins over the node
table; the paper's §7.4 proposes tree storage *with path/value indexes*.
:class:`TreeStorage` maintains two of them: a :class:`PathValueIndex` for
document-level value filtering, and a
:class:`~repro.rdb.structindex.StructuralPathIndex` that turns
descendant-axis (``//``) steps into index range scans feeding a
:class:`~repro.rdb.plan.StructuralJoin`.

Documents load either from a DOM (:meth:`load`) or straight from text in
bounded memory (:meth:`load_stream`); both feed one event-driven shredder
(a replayed DOM or the scanner's stream — see
:mod:`repro.xmlmodel.stream_ingest`), so labels, rows, row order and
indexes cannot differ between the two doors.
"""

from __future__ import annotations

from functools import reduce

from repro.errors import DatabaseError
from repro.rdb.expressions import TreeContains, and_, col, const, eq
from repro.rdb.pathindex import PathValueIndex
from repro.rdb.plan import Filter, NestedLoopJoin, Query, Scan
from repro.rdb.structindex import StructuralPathIndex
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
_END = 8  # position of the "end" column


class TreeStorage:
    """Schema-less node-table storage with path/value + structural
    indexes."""

    def __init__(self, db, name, path_index=True, structural_index=True):
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
                ("start", INT),
                ("end", INT),
                ("level", INT),
            ],
        )
        db.create_index(self.table_name, "doc_id")
        db.create_index(self.table_name, "node_id")
        self.index = PathValueIndex() if path_index else None
        self.structural = None
        if structural_index:
            self.structural = db.register_structural_index(
                StructuralPathIndex(self.table_name))
        self._doc_counter = 0
        self._node_counter = 0

    # -- loading -----------------------------------------------------------

    def load(self, document):
        return self._shred(document_events(document))[0]

    def load_many(self, documents):
        return [self.load(document) for document in documents]

    def load_stream(self, source, strip_whitespace=False, stats=None,
                    chunk_size=DEFAULT_CHUNK_SIZE):
        """Shred XML text into the node table without building a DOM.

        *source* is a string, a file-like object, or an iterable of text
        chunks.  Labels, node ids, row order and every index end up
        identical to :meth:`load` over the parsed document; memory stays
        bounded by the parser's token buffer plus one frame per open
        element (``end`` labels are filled in at element close).
        Pass an :class:`~repro.rdb.plan.ExecutionStats` to record the
        buffering high-water mark in ``peak_ingest_buffered_bytes``.
        """
        parser = StreamParser(source, strip_whitespace=strip_whitespace,
                              chunk_size=chunk_size)
        doc_id, peak_text = self._shred(parser.events())
        if stats is not None:
            stats.peak_ingest_buffered_bytes = max(
                stats.peak_ingest_buffered_bytes,
                parser.peak_buffered_bytes + peak_text)
        return doc_id

    def _shred(self, events):
        """Node rows, containment labels and both indexes from one
        document's event stream (see :mod:`repro.xmlmodel.stream_ingest`).
        Returns the doc id and the high-water mark of buffered text."""
        self._doc_counter += 1
        doc_id = self._doc_counter
        stored = self.db.table(self.table_name).rows
        structural = self.structural
        # Only the first top-level element is path/value-indexed
        # (PathValueIndex.add_document indexes the document element).
        index = self.index
        node_id = self._node_counter
        counter = 1  # label counter; 1 is the (virtual) document node
        rows = []      # rows not yet appended; rows[0] gets row id `first`
        first = len(stored)
        elements = []  # their (path, name, start, row id) entries
        leaves = []    # (path, value) leaves not yet path/value-indexed
        # frame: [path, node_id, row, row_id, next_seq, text_parts,
        #         has_element_children]
        frames = [["", 0, None, None, 0, [], False]]
        buffered_text = 0
        peak_text = 0

        def flush():
            nonlocal first
            self.db.insert(self.table_name, *rows)
            first += len(rows)
            del rows[:]
            if structural is not None:
                structural.add_elements(doc_id, elements)
                del elements[:]
            if leaves:
                self.index.add_leaves(doc_id, leaves)
                del leaves[:]
            self._node_counter = node_id

        for event in events:
            kind = event[0]
            if kind == "end":
                frame = frames.pop()
                frame[2][_END] = counter
                if frame[3] < first:
                    # appended while still open: fill in the stored tuple
                    row = stored[frame[3]]
                    stored[frame[3]] = (
                        row[:_END] + (counter,) + row[_END + 1:])
                if index is not None:
                    direct_text = "".join(frame[5])
                    if direct_text and (not frame[6]
                                        or direct_text.strip()):
                        leaves.append((frame[0], direct_text))
                    buffered_text -= len(direct_text)
                    if len(frames) == 1:
                        index = None
                if len(rows) >= _BATCH_ROWS:
                    flush()
                continue
            # every other event is one node under the innermost open element
            parent = frames[-1]
            level = len(frames)
            node_id += 1
            counter += 1
            if kind == "start" or kind == "leaf":
                name = event[1]
                parent[6] = True
                path = "%s/%s" % (parent[0], name)
                row_id = first + len(rows)
                if structural is not None:
                    elements.append((path, name, counter, row_id))
                if kind == "leaf":
                    # a start, text and end in one step: the element row
                    # with its final end label, then its text row if any
                    value = event[2]
                    rows.append((node_id, doc_id, parent[1], parent[4],
                                 "element", name, None, counter,
                                 counter if value is None else counter + 1,
                                 level))
                    if value is not None:
                        node_id += 1
                        counter += 1
                        rows.append((node_id, doc_id, node_id - 1, 0, "text",
                                     None, value, counter, counter,
                                     level + 1))
                        if value and index is not None:
                            leaves.append((path, value))
                            if buffered_text + len(value) > peak_text:
                                peak_text = buffered_text + len(value)
                    if level == 1:
                        index = None  # the first top-level element is done
                    parent[4] += 1
                    if len(rows) >= _BATCH_ROWS:
                        flush()
                    continue
                row = [node_id, doc_id, parent[1], parent[4], "element",
                       name, None, counter, None, level]
                frames.append([path, node_id, row, row_id, len(event[2]),
                               [], False])
                rows.append(row)
                element_id = node_id
                for position, (attr_name, value) in enumerate(event[2]):
                    node_id += 1
                    counter += 1
                    rows.append((node_id, doc_id, element_id, position,
                                 "attribute", attr_name, value,
                                 counter, counter, level + 1))
                    if index is not None:
                        leaves.append(("%s/@%s" % (path, attr_name), value))
            else:
                # "text", "comment" and "pi" are stored under those names
                value = event[-1]
                rows.append((node_id, doc_id, parent[1], parent[4], kind,
                             event[1] if kind == "pi" else None, value,
                             counter, counter, level))
                if kind == "text" and index is not None:
                    parent[5].append(value)
                    buffered_text += len(value)
                    if buffered_text > peak_text:
                        peak_text = buffered_text
            parent[4] += 1
        flush()
        return doc_id, peak_text

    # -- structural queries ----------------------------------------------------

    def descendant_query(self, ancestor_name, descendant_name, doc_id=None):
        """A :class:`Query` for the descendant-axis pattern
        ``//ancestor_name//descendant_name``: one output row per
        (ancestor, descendant) element pair.

        Built in its *naive* shape — a nested-loop join whose condition
        walks parent chains (:class:`TreeContains`).  ``level="off"``
        executes it as written; the cost-based planner replaces it with
        a StructuralJoin over label ranges when this storage's
        structural index is registered.
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
            ("start", col("start", "d")),
        ]
        return Query(plan, outputs)

    def fingerprint(self):
        """Stable hash of the physical design: table layout, value/
        structural indexes, ANALYZE epoch — the serve-tier cache-key
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
        if self.structural is not None:
            parts.append(self.structural.fingerprint_token())
        if self.index is not None:
            parts.append("pathvalue:%s" % ",".join(self.index.paths()))
        table_stats = self.db.stats.table_stats(self.table_name)
        if table_stats is not None:
            parts.append("stats:%s:%d" % (self.table_name,
                                          table_stats.version))
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    # -- materialisation ---------------------------------------------------------

    def document_ids(self):
        seen = []
        for _, row in self.db.table(self.table_name).scan():
            if row[1] not in seen:
                seen.append(row[1])
        return seen

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

    # -- path/value filtering -------------------------------------------------------

    def find_documents(self, path, op, value, stats=None):
        if self.index is None:
            raise DatabaseError("tree storage built without a path index")
        return self.index.lookup(path, op, value, stats=stats)
