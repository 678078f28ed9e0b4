"""XMLType storage models (paper §7.4 and the §5 experimental setup).

Two of the paper's storage models are implemented:

* **Object-relational** (:class:`ObjectRelationalStorage`): documents
  conforming to a structural schema are shredded into tables — one table
  per repeating element, leaf children as typed columns, parent/sequence
  columns preserving document order.  The storage can emit a canonical
  SQL/XML *reconstruction view* (exactly the paper's Table-3 shape), which
  is what the XSLT rewrite merges into; and it can *materialise* any stored
  document back into a DOM, which is what the functional no-rewrite path
  consumes.
* **CLOB** (:class:`ClobStorage`): documents stored as serialised text,
  parsed on access — no structure for the rewrite to exploit, included as
  the baseline storage model.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter

from repro.errors import DatabaseError, SchemaError
from repro.rdb.binding import _MAX_DEPTH, Codegen
from repro.rdb.expressions import (
    CaseWhen,
    ColumnRef,
    Const,
    IsNull,
    ScalarSubquery,
    _text,
    col,
    eq,
)
from repro.rdb.infer import CompileContext, derive_once
from repro.rdb.plan import Filter, Query, Scan
from repro.rdb.sqlxml import XMLAgg, XMLElement
from repro.rdb.types import FLOAT, INT, TEXT
from repro.xmlmodel.nodes import (
    Attribute, Document, Element, QName, Text, new_node)
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.stream_ingest import (
    DEFAULT_CHUNK_SIZE,
    StreamParser,
    document_events,
)

# Reserved bookkeeping column names; element names never collide with
# these (they are not valid XML names).
ROW_ID = "$id"
PARENT_ID = "$parent"
SEQ = "$seq"
VALUE = "value"

# Emit-program step kinds (see ObjectRelationalStorage._compile_element;
# _SKIP only occurs in a projected program); the shred program
# (_compile_shred_row) uses the first two and _ROWS.
_LEAF, _INLINE, _ROWS_LEAF, _ROWS_TREE, _ROWS, _SKIP = range(6)
_BY_SEQ = itemgetter(2)  # child-table rows are ($id, $parent, $seq, ...)
# Shredded rows wait in per-table batches of this many before they are
# appended, so a streamed load never holds more than this beside the tables.
_BATCH_ROWS = 1024
_NO_CHILDREN = {}
# Generated emitters a storage keeps, one per distinct mask: a
# long-lived storage serving ad-hoc stylesheets must not grow without bound.
_PROJECTIONS_KEPT = 64


class TableBinding:
    """One shredded table: which element type it stores and how it links to
    its parent table."""

    __slots__ = ("table_name", "decl", "parent", "alias_counter")

    def __init__(self, table_name, decl, parent=None):
        self.table_name = table_name
        self.decl = decl
        self.parent = parent  # TableBinding or None (root: keyed by doc_id)


class ColumnBinding:
    """A leaf element (or attribute) stored as a column."""

    __slots__ = ("table", "column_name", "decl", "is_attribute", "attr_name")

    def __init__(self, table, column_name, decl, is_attribute=False,
                 attr_name=None):
        self.table = table
        self.column_name = column_name
        self.decl = decl
        self.is_attribute = is_attribute
        self.attr_name = attr_name  # the attribute's XML name, when one


class InlineBinding:
    """A single-occurrence wrapper element flattened into its parent table.

    Optional wrappers carry a presence column (``name$present``): a wrapper
    has no value column of its own, so absence must be recorded explicitly.
    """

    __slots__ = ("table", "decl", "presence_column")

    def __init__(self, table, decl, presence_column=None):
        self.table = table
        self.decl = decl
        self.presence_column = presence_column


class PresenceBinding:
    """The 0/1 presence column of an optional inline wrapper."""

    __slots__ = ("table", "column_name", "decl", "is_attribute")

    def __init__(self, table, column_name, decl):
        self.table = table
        self.column_name = column_name
        self.decl = decl
        self.is_attribute = False


class ObjectRelationalStorage:
    """Shredded storage for documents conforming to one structural schema."""

    def __init__(self, db, schema, name, column_types=None):
        """
        :param column_types: optional ``{element_or_attr_name: INT|FLOAT|TEXT}``
            for typed columns (value indexes need numeric typing to order
            numerically, e.g. ``{"sal": INT}``).
        """
        if schema.is_recursive():
            raise SchemaError(
                "object-relational shredding requires a non-recursive schema"
            )
        self.db = db
        self.schema = schema
        self.name = name
        self.column_types = column_types or {}
        self.bindings = {}       # id(decl) -> binding
        self.tables = []         # TableBinding, parents first
        self._doc_counter = 0
        #: the schema half of :meth:`fingerprint`, once first asked for
        self._schema_signature = None
        self._layout()
        self._create_tables()
        # Compiled once, never mutated: concurrent materialisations share it.
        self._emit_program = self._compile_element(self.schema.root,
                                                   self.tables[0])
        #: projection mask (None: the full program) -> its emitter (_projected)
        self._projections = {}
        self._shred_program = self._compile_shred_row(self.schema.root,
                                                      self.tables[0])
        self._compile_context = None  # built on the first compile

    # -- layout -----------------------------------------------------------------

    def _layout(self):
        root_binding = TableBinding("%s_%s" % (self.name, self.schema.root.name),
                                    self.schema.root)
        self.bindings[id(self.schema.root)] = root_binding
        self.tables.append(root_binding)
        self._columns = {id(root_binding): []}  # per table: ColumnBindings
        self._layout_children(self.schema.root, root_binding)

    def _layout_children(self, decl, table):
        if decl.has_text and decl.particles:
            raise SchemaError(
                "mixed content (<%s>) cannot be shredded; use CLOB storage"
                % decl.name
            )
        for attribute in decl.attributes:
            self._add_column(table, decl, attribute, is_attribute=True)
        for particle in decl.particles:
            child = particle.decl
            if particle.at_most_one:
                if child.is_leaf:
                    binding = self._add_column(table, child, child.name)
                    for attribute in child.attributes:
                        self._add_column(table, child, attribute,
                                         is_attribute=True)
                    self.bindings[id(child)] = binding
                else:
                    presence_column = None
                    if particle.occurs == "?" or decl.group == "choice":
                        presence_column = "%s$present" % child.name
                        self._columns[id(table)].append(
                            PresenceBinding(table, presence_column, child)
                        )
                    self.bindings[id(child)] = InlineBinding(
                        table, child, presence_column
                    )
                    self._layout_children(child, table)
            else:
                child_table = TableBinding(
                    "%s_%s" % (self.name, child.name), child, parent=table
                )
                if id(child) in self.bindings:
                    raise SchemaError(
                        "element <%s> is shredded twice; shared declarations"
                        " must occur once" % child.name
                    )
                self.bindings[id(child)] = child_table
                self.tables.append(child_table)
                self._columns[id(child_table)] = []
                if child.is_leaf:
                    self._add_column(child_table, child, VALUE)
                    for attribute in child.attributes:
                        self._add_column(child_table, child, attribute,
                                         is_attribute=True)
                else:
                    self._layout_children(child, child_table)

    def _add_column(self, table, decl, base_name, is_attribute=False):
        columns = self._columns[id(table)]
        existing = {binding.column_name for binding in columns}
        column_name = ("attr_" + base_name) if is_attribute else base_name
        if column_name in existing:
            column_name = "%s_%s" % (decl.name, column_name)
        if column_name in existing:
            raise SchemaError("cannot derive unique column for %r" % base_name)
        binding = ColumnBinding(
            table, column_name, decl, is_attribute,
            attr_name=base_name if is_attribute else None,
        )
        columns.append(binding)
        return binding

    def _type_of(self, binding):
        return self.column_types.get(
            binding.decl.name if not binding.is_attribute
            else binding.column_name.replace("attr_", "", 1), TEXT)

    def _ref(self, binding, alias):
        """The view's reference to a bound column, saying if it is numeric."""
        return ColumnRef(binding.column_name, alias,
                         self._type_of(binding) != TEXT)

    def _create_tables(self):
        for table in self.tables:
            columns = [(ROW_ID, INT)]
            if table.parent is None:
                pass  # root rows: id is the document id
            else:
                columns.append((PARENT_ID, INT))
                columns.append((SEQ, INT))
            for binding in self._columns[id(table)]:
                if isinstance(binding, PresenceBinding):
                    columns.append((binding.column_name, INT))
                    continue
                columns.append((binding.column_name, self._type_of(binding)))
            self.db.create_table(table.table_name, columns)
            if table.parent is not None:
                # Foreign-key index: the reconstruction view correlates
                # child rows on the parent id, so child lookups are probes.
                self.db.create_index(table.table_name, PARENT_ID)

    # -- metadata for the rewrite ---------------------------------------------------

    @property
    def compile_context(self):
        """The :class:`~repro.rdb.infer.CompileContext` every compile
        against this storage reads: the view query, built on the first
        compile, its structure and its sample document, each derived
        once and then shared (the structural schema does not change after
        ``__init__``).  Racing first compiles publish one context."""
        context = self._compile_context
        if context is None:
            context = derive_once(self, "_compile_context", lambda: (
                CompileContext(self.make_view_query())))
        return context

    def fingerprint(self):
        """Stable hash of everything that shapes a compiled transform
        against this storage: the structural schema, the shredded table
        layout (names, columns, types) and the set of live indexes over
        those tables.  Creating a value index — which changes what plan
        the optimizer picks — changes the fingerprint, so the serving
        layer's plan cache misses instead of executing a stale plan.
        The structural schema does not change after ``__init__`` (the
        emit and shred programs rely on that too), so its signature is
        derived once; the catalog half is read live on every call.
        """
        if self._schema_signature is None:
            self._schema_signature = _schema_signature(self.schema.root)
        parts = ["object-relational:%s" % self.name, self._schema_signature]
        for table in self.tables:
            schema = self.db.table(table.table_name).schema
            parts.append("table:%s parent=%s cols=%s" % (
                table.table_name,
                table.parent.table_name if table.parent else "-",
                ",".join("%s:%s" % (column.name, column.type)
                         for column in schema.columns),
            ))
            for index in self.db.indexes_on(table.table_name):
                parts.append("index:%s:%s:%s" % (
                    index.table_name, index.column_name, index.name,
                ))
            # ANALYZE epoch: statistics changes the cost-based optimizer
            # could act on must re-key cached plans.  Plain DML on a
            # never-analyzed table contributes nothing (the planner was
            # already running on live row counts).
            table_stats = self.db.stats.table_stats(table.table_name)
            if table_stats is not None:
                parts.append("stats:%s:%d" % (
                    table.table_name, table_stats.version,
                ))
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    def column_of(self, decl):
        """(table_name, column_name) for a leaf element declaration."""
        binding = self.bindings.get(id(decl))
        if not isinstance(binding, ColumnBinding):
            raise DatabaseError(
                "<%s> is not stored as a column" % decl.name
            )
        return binding.table.table_name, binding.column_name

    def create_value_index(self, element_name):
        """B-tree index over the column storing this leaf element."""
        decl = self.schema.find_decl(element_name)
        if decl is None:
            raise DatabaseError("no element <%s> in schema" % element_name)
        table_name, column_name = self.column_of(decl)
        return self.db.create_index(table_name, column_name)

    # -- loading ------------------------------------------------------------------

    def load(self, document):
        """Shred one document; returns its doc id.  All or nothing: a
        document that does not conform leaves every table as it was."""
        return self._shred(document_events(document), float("inf"))[0]

    def load_many(self, documents):
        return [self.load(document) for document in documents]

    def load_stream(self, source, stats=None, chunk_size=DEFAULT_CHUNK_SIZE):
        """Shred XML text into the tables without materializing a DOM.

        *source* is a string, a file-like object, or an iterable of text
        chunks.  Rows and row ids come out identical to :meth:`load` of the
        parsed document, so fingerprints and query results match exactly.
        Memory stays bounded by the parser's token buffer plus the open
        *row scopes* — the rows of repeating elements still being
        assembled — never the whole document.  Pass an
        :class:`~repro.rdb.plan.ExecutionStats` to record the buffering
        high-water mark in ``peak_ingest_buffered_bytes``.

        A document that does not conform raises the same
        :class:`DatabaseError` as :meth:`load`, at the close of the
        offending element; batches of rows already appended by then stay.
        """
        parser = StreamParser(source, chunk_size=chunk_size)
        doc_id, peak_chars = self._shred(parser.events(), _BATCH_ROWS)
        if stats is not None:
            stats.peak_ingest_buffered_bytes = max(
                stats.peak_ingest_buffered_bytes,
                parser.peak_buffered_bytes + peak_chars)
        return doc_id

    def _shred(self, events, batch_rows):
        """Run the shred program over one document's event stream (see
        :mod:`repro.xmlmodel.stream_ingest`), filling row value lists by
        slot, checking each element's children against its content model
        as it closes, and appending rows in per-table batches of
        *batch_rows* (none is reached: only once the whole document has
        been accepted).  Returns the doc id and the high-water mark of
        characters held in open rows."""
        doc_id = self._doc_counter + 1
        insert = self.db.insert
        table_names = [table.table_name for table in self.tables]
        batches = [[] for _ in table_names]
        next_ids = [len(self.db.table(name)) + 1 for name in table_names]
        # One frame per open element: (children, row, slots, parts, scope,
        # name, seen, model).  children maps a child element name to its
        # step; slots and parts are where a leaf's text goes; scope is set
        # on the element that owns row: [row, table, child $seq counters,
        # chars before]; seen collects the particle positions of the child
        # elements for model (None on a column leaf) to judge at the close.
        frames = [({self.schema.root.name: (_ROWS, self._shred_program, 0)},
                   None, None, None, None, None, [], None)]
        scopes = []
        open_chars = 0
        peak_chars = 0

        def reject(message):  # located at the innermost open element
            return DatabaseError(
                "document does not conform to schema: /%s: %s"
                % ("/".join(frame[5] for frame in frames[1:]), message))

        for event in events:
            kind = event[0]
            if kind == "start" or kind == "leaf":
                name = event[1]
                children, row, _, _, _, parent_name, seen, _ = frames[-1]
                step = children.get(name)
                if step is None:
                    if parent_name is None:
                        raise DatabaseError(
                            "document does not conform to schema: "
                            "root is <%s>, expected <%s>"
                            % (name, self.schema.root.name))
                    raise reject("unexpected child <%s>" % name)
                seen.append(step[-1])
                step_kind = step[0]
                if step_kind == _LEAF and kind == "leaf":
                    # a column leaf in one step: its text into the open row
                    value = "" if event[2] is None else event[2]
                    for slot in step[1]:
                        # the first instance wins: a declaration shared by
                        # two wrappers of one row has several slots
                        if row[slot] is None:
                            row[slot] = value
                            open_chars += len(value)
                    continue
                if step_kind == _LEAF:
                    attr_slots = step[2]
                    frames.append((_NO_CHILDREN, row, step[1], [], None, name,
                                   None, None))
                elif step_kind == _INLINE:
                    for slot in step[1]:
                        row[slot] = 1
                    attr_slots = step[2]
                    frames.append((step[3], row, None, None, None, name,
                                   [], step[4]))
                else:
                    table, template, children, attr_slots, slots, model = (
                        step[1])
                    row = template[:]
                    if scopes:
                        row[0] = next_ids[table]
                        next_ids[table] += 1
                        outer = scopes[-1]
                        row[1] = outer[0][0]
                        row[2] = seq = outer[2].get(table, 0)
                        outer[2][table] = seq + 1
                    else:
                        row[0] = doc_id
                    scope = [row, table, {}, open_chars]
                    scopes.append(scope)
                    frames.append((children, row, slots,
                                   None if slots is None else [], scope, name,
                                   [], model))
                if kind == "start":
                    if attr_slots is not None:
                        for attr_name, value in event[2]:
                            for slot in attr_slots.get(attr_name, ()):
                                if row[slot] is None:
                                    row[slot] = value
                                    open_chars += len(value)
                    continue
                # a leaf that opens a row or a wrapper: its text, then its
                # end, below
                if event[2] is not None:
                    parts = frames[-1][3]
                    if parts is not None:
                        parts.append(event[2])
            elif kind == "text":
                parts = frames[-1][3]
                if parts is not None:
                    parts.append(event[1])
                continue
            elif kind != "end":
                # comments and processing instructions are not shredded
                continue
            # the end of an element
            _, row, slots, parts, scope, _, seen, model = frames[-1]
            if model is not None:
                problems = model.violations(seen)
                if problems:
                    raise reject(problems[0])
            del frames[-1]
            if slots is not None:
                value = parts[0] if len(parts) == 1 else "".join(parts)
                for slot in slots:
                    if row[slot] is None:
                        row[slot] = value
                        open_chars += len(value)
            if scope is not None:
                scopes.pop()
                if open_chars > peak_chars:
                    peak_chars = open_chars
                open_chars = scope[3]
                batch = batches[scope[1]]
                batch.append(row)
                if len(batch) >= batch_rows:
                    self._doc_counter = doc_id
                    insert(table_names[scope[1]], *batch)
                    del batch[:]
                if not scopes:
                    break  # the root row: nothing after it is shredded
        for _ in events:
            pass  # the scanner still checks what follows the root
        self._doc_counter = doc_id
        for table_name, batch in zip(table_names, batches):
            if batch:
                insert(table_name, *batch)
        return doc_id, peak_chars

    # -- the shred program ----------------------------------------------------------

    def _compile_shred_row(self, decl, table_binding):
        """``(table, template, children, attr_slots, slots, model)`` for an
        element that opens a row of ``table_binding``'s table (``table``
        indexes ``self.tables``): ``template`` is the row before any value
        is known (NULLs, 0 in presence columns), ``slots`` where the text
        of a leaf with rows of its own goes (else None), ``model`` the
        element's :class:`~repro.schema.model.ContentModel`, and
        ``children`` maps each child element name to its step, which ends
        in the child's particle position for ``model``::

            (_LEAF, slots, attr_slots, position)     text into the open row
            (_INLINE, presence_slots, attr_slots, children, model, position)
            (_ROWS, row program, position)           a row of a child table

        ``attr_slots`` is ``{attribute name: slots}`` or None.  Like the
        emit program it is built once from the schema and the bindings, so
        shredding touches neither.
        """
        schema = self.db.table(table_binding.table_name).schema
        template = [None] * len(schema.columns)
        # (id(decl), what) -> row positions, what being None for the
        # element's text, "@name" for an attribute, "?" for its presence
        slot_map = {}
        for binding in self._columns[id(table_binding)]:
            position = schema.position_of(binding.column_name)
            if isinstance(binding, PresenceBinding):
                what = "?"
                template[position] = 0
            else:
                what = "@" + binding.attr_name if binding.is_attribute else None
            slot_map.setdefault((id(binding.decl), what), []).append(position)
        slots = None
        if decl.is_leaf and table_binding.parent is not None:
            slots = (schema.position_of(VALUE),)
        return (self.tables.index(table_binding), template,
                self._compile_shred_children(decl, slot_map),
                _attr_slots(decl, slot_map), slots,
                self.schema.content_model(decl))

    def _compile_shred_children(self, decl, slot_map):
        children = {}
        for name, position in self.schema.content_model(decl).index_of.items():
            particle = decl.particles[position]
            child = particle.decl
            if not particle.at_most_one:
                step = (_ROWS, self._compile_shred_row(
                    child, self.bindings[id(child)]), position)
            elif child.is_leaf:
                step = (_LEAF, tuple(slot_map.get((id(child), None), ())),
                        _attr_slots(child, slot_map), position)
            else:
                step = (_INLINE, tuple(slot_map.get((id(child), "?"), ())),
                        _attr_slots(child, slot_map),
                        self._compile_shred_children(child, slot_map),
                        self.schema.content_model(child), position)
            children[name] = step
        return children

    # -- materialisation (functional / no-rewrite path) --------------------------------

    def document_ids(self):
        root_table = self.db.table(self.tables[0].table_name)
        return [row[0] for _, row in root_table.scan()]

    def materialize(self, doc_id, stats=None):
        """Rebuild the full DOM of one stored document.

        The root table is scanned for the document's row; child rows come
        through the parent-id index (one probe per parent) or, without
        one, from one scan of the child table grouped by parent id.
        Either way materialisation is linear in storage size — the honest
        cost of the paper's "XSLT no rewrite" baseline.
        """
        row = None
        scanned = 0
        for _, candidate in self.db.table(self.tables[0].table_name).scan():
            scanned += 1
            if candidate[0] == doc_id:
                row = candidate
                break
        if stats is not None:
            stats.rows_scanned += scanned
        if row is None:
            raise DatabaseError("no document %d" % doc_id)
        return self._build_document(row, self._child_fetchers(stats), stats,
                                    self._projected(None))

    def materialize_all(self, stats=None, mask=None):
        """Yield every stored document's DOM, in document-id order.

        The many-document form of :meth:`materialize`: the root table is
        walked once and each un-indexed child table is scanned and grouped
        once for all documents, so the rows touched stay linear in storage
        size however many documents there are.

        ``mask`` is a projection mask (see :meth:`_projected`): only the
        nodes it reaches are built, each with the ``order`` it has in the
        full DOM, and the rows touched are the same.  None builds all.
        """
        emit = self._projected(mask)
        rows = [row for _, row in
                self.db.table(self.tables[0].table_name).scan()]
        fetchers = self._child_fetchers(stats)
        for row in rows:
            if stats is not None:
                stats.rows_scanned += 1
            yield self._build_document(row, fetchers, stats, emit)

    def _child_fetchers(self, stats):
        """Per call, one ``parent_id -> child rows in $seq order`` callable
        for each child table (aligned with ``self.tables``)."""
        fetchers = [None]
        for table_binding in self.tables[1:]:
            table = self.db.table(table_binding.table_name)
            index = self.db.find_index(table_binding.table_name, PARENT_ID)
            # an empty index has nothing to probe: fall through to the
            # (zero-row) scan rather than charge a probe per parent
            if index is not None and len(index):
                fetchers.append(_index_fetcher(table, index, stats))
                continue
            grouped = {}
            scanned = 0
            for _, row in table.scan():
                scanned += 1
                grouped.setdefault(row[1], []).append(row)
            for rows in grouped.values():
                rows.sort(key=_BY_SEQ)
            if stats is not None:
                stats.rows_scanned += scanned
            fetchers.append(_group_fetcher(grouped))
        return fetchers

    def _build_document(self, row, fetchers, stats, emit):
        if stats is not None:
            stats.docs_materialized += 1
        document = Document()
        # Nodes are numbered exactly as TreeBuilder would: elements and
        # text take the next slot, attributes share their element's.
        document.resume_order(emit(row, document, document._children, 1,
                                   fetchers))
        return document

    def _projected(self, mask):
        """The generated emitter (:func:`_emitter`) of the emit program
        filtered by a projection ``mask`` — a frozenset of ``(path,
        content)`` pairs, ``path`` naming an element (``row/state``) or
        attribute (``row/@id``) below the document element, ``content``
        whether its value (an element's: its whole subtree) is read or
        only the node (see :mod:`repro.core.projection`); None reads the
        whole document.  What no path reaches becomes a ``_SKIP`` step
        that advances ``order`` by the nodes it would have built.  The
        mask holds names, so any storage of the same schema resolves it.
        Made on a mask's first materialise and memoised per mask, at most
        ``_PROJECTIONS_KEPT`` emitters (the memo starts over when full);
        two threads racing a fill make equal ones."""
        emit = self._projections.get(mask)
        if emit is None:
            # None: the document element's content is read, all of it
            paths = {"": True} if mask is None else dict(mask)
            reached = {""}  # every path of the mask and each prefix of one
            for path in paths:
                parts = path.split("/")
                reached.update("/".join(parts[:end])
                               for end in range(1, len(parts) + 1))
            emit = _emitter(_project(self._emit_program, "", paths, reached))
            if len(self._projections) >= _PROJECTIONS_KEPT:
                self._projections.clear()
            self._projections[mask] = emit
        return emit

    # -- the emit program ---------------------------------------------------------

    def _compile_element(self, decl, table_binding):
        """``(qname, attrs, steps)`` for an element whose content lives in
        one row of ``table_binding``'s table: names become shared
        :class:`QName` objects and column names become row slots, so
        executing the program touches neither the schema nor the bindings.

        ``attrs`` is ``((qname, slot), ...)``; each step is one of::

            (_LEAF, qname, attrs, slot)          column leaf, NULL = absent
            (_INLINE, presence_slot, element)    flattened wrapper
            (_ROWS_LEAF, table, qname, attrs, slot)   child-table leaf rows
            (_ROWS_TREE, table, element)         child-table subtrees
            (_SKIP, steps)                       counted, not built

        where ``table`` indexes ``self.tables`` and ``presence_slot`` is
        None for a mandatory wrapper.  ``_SKIP`` occurs only in a
        projected program (:meth:`_projected`).
        """
        position_of = self.db.table(table_binding.table_name).schema.position_of
        steps = []
        for particle in decl.particles:
            child = particle.decl
            binding = self.bindings[id(child)]
            if isinstance(binding, ColumnBinding):
                steps.append((
                    _LEAF, QName(child.name),
                    self._compile_attributes(child, table_binding),
                    position_of(binding.column_name),
                ))
            elif isinstance(binding, InlineBinding):
                presence = binding.presence_column
                steps.append((
                    _INLINE,
                    None if presence is None else position_of(presence),
                    self._compile_element(child, table_binding),
                ))
            elif child.is_leaf:
                child_schema = self.db.table(binding.table_name).schema
                steps.append((
                    _ROWS_LEAF, self.tables.index(binding), QName(child.name),
                    self._compile_attributes(child, binding),
                    child_schema.position_of(VALUE),
                ))
            else:
                steps.append((
                    _ROWS_TREE, self.tables.index(binding),
                    self._compile_element(child, binding),
                ))
        return (QName(decl.name),
                self._compile_attributes(decl, table_binding), tuple(steps))

    def _compile_attributes(self, owner_decl, table_binding):
        position_of = self.db.table(table_binding.table_name).schema.position_of
        slots = {}
        for attribute in owner_decl.attributes:
            binding = self._attr_binding(table_binding, owner_decl, attribute)
            if binding is not None:
                slots.setdefault(attribute, position_of(binding.column_name))
        return tuple((QName(name), slot) for name, slot in slots.items())

    def _attr_binding(self, table_binding, owner_decl, attribute):
        """The column binding of ``owner_decl``'s attribute, if stored."""
        for binding in self._columns[id(table_binding)]:
            if (
                getattr(binding, "is_attribute", False)
                and binding.decl is owner_decl
                and binding.attr_name == attribute
            ):
                return binding
        return None

    # -- canonical reconstruction view ------------------------------------------------

    def make_view_query(self):
        """The SQL/XML view reconstructing documents from the shredded
        tables — the paper's Table 3 shape; the rewrite merges into it
        (the one :attr:`compile_context` builds)."""
        root_table = self.tables[0]
        alias = root_table.table_name
        construction = self._construct_expr(
            self.schema.root, root_table, alias
        )
        return Query(Scan(root_table.table_name, alias),
                     [("xml_content", construction)])

    def _attribute_refs(self, decl, table_binding, alias):
        """``(name, column ref)`` per stored attribute of ``decl``: the
        ``attributes=`` of its view constructor."""
        refs = []
        for attribute in decl.attributes:
            binding = self._attr_binding(table_binding, decl, attribute)
            if binding is not None:
                refs.append((attribute, self._ref(binding, alias)))
        return refs

    def _construct_expr(self, decl, table_binding, alias):
        content = [
            self._child_expr(decl, particle, table_binding, alias)
            for particle in decl.particles
        ]
        if decl.is_leaf and decl.has_text:
            content.append(ColumnRef(
                VALUE, alias, self.column_types.get(decl.name, TEXT) != TEXT))
        return XMLElement(decl.name, *content, attributes=self._attribute_refs(
            decl, table_binding, alias))

    def _child_expr(self, decl, particle, table_binding, alias):
        child = particle.decl
        binding = self.bindings[id(child)]
        if isinstance(binding, ColumnBinding):
            element = XMLElement(
                child.name, self._ref(binding, alias),
                attributes=self._attribute_refs(child, table_binding, alias),
            )
            if particle.occurs == "?" or decl.group == "choice":
                # absent children are NULL columns: guard so the view does
                # not fabricate empty elements for them
                return CaseWhen(
                    [(IsNull(col(binding.column_name, alias), negated=True),
                      element)],
                    Const(None),
                )
            return element
        if isinstance(binding, InlineBinding):
            inline = self._inline_expr(child, table_binding, alias)
            if binding.presence_column is not None:
                return CaseWhen(
                    [(eq(col(binding.presence_column, alias), Const(1)),
                      inline)],
                    Const(None),
                )
            return inline
        return self._aggregate_subquery(child, binding, alias)

    def _inline_expr(self, decl, table_binding, alias):
        content = [
            self._child_expr(decl, particle, table_binding, alias)
            for particle in decl.particles
        ]
        return XMLElement(decl.name, *content, attributes=self._attribute_refs(
            decl, table_binding, alias))

    def _aggregate_subquery(self, decl, table_binding, parent_alias):
        child_alias = table_binding.table_name
        inner = self._construct_expr(decl, table_binding, child_alias)
        plan = Filter(
            Scan(table_binding.table_name, child_alias),
            eq(col(PARENT_ID, child_alias), col(ROW_ID, parent_alias)),
        )
        subquery = Query(
            plan,
            [(None, XMLAgg(inner, order_by=[(col(SEQ, child_alias), False)]))],
        )
        return ScalarSubquery(subquery)


def _attr_slots(decl, slot_map):
    """``{attribute name: row positions}`` for ``decl``'s stored
    attributes, or None when it has none."""
    found = {attribute: tuple(slot_map[(id(decl), "@" + attribute)])
             for attribute in decl.attributes
             if (id(decl), "@" + attribute) in slot_map}
    return found or None


def _index_fetcher(table, index, stats):
    fetch = table.fetch
    lookup = index.lookup_eq

    def fetcher(parent_id):
        rows = [fetch(row_id) for row_id in lookup(parent_id, stats=stats)]
        if stats is not None:
            stats.rows_scanned += len(rows)
        rows.sort(key=_BY_SEQ)
        return rows

    return fetcher


def _group_fetcher(grouped):
    get = grouped.get
    return lambda parent_id: get(parent_id, ())


def _emitter(program, build=True):
    """An element program as one generated function ``f(row, parent,
    siblings, o, fetchers)`` that builds the element over ``row`` under
    ``parent`` (child list ``siblings``) from document-order slot ``o``
    and returns the slot after it: straight-line per declaration, every
    slot stored directly (no ``__init__``), a wrapper inlined and a child
    table's element program called per child row.  Names and child
    programs are ``_kN``: one schema and mask, one factory.  Without
    ``build`` (a ``_SKIP``'s child rows) it only counts the slots."""
    gen = Codegen(("_new", "_Element", "_Text", "_Attribute", "_text"),
                  (new_node, Element, Text, Attribute, _text))
    lines = []
    _element_source(gen, lines, program, "parent", "siblings", 0, "", build)
    return gen.function("\n  ".join(lines + ["return o"]),
                        "row, parent, siblings, o, fetchers")


def _element_source(gen, lines, program, parent, siblings, level, pad,
                    build):
    """Append the lines (indented by ``pad``) that build (or count)
    ``program``'s element over ``row``, inlined ``level`` wrappers deep."""
    name, attrs, steps = program
    e, c = ("e%d" % level, "c%d" % level) if build else ("None", "None")
    if build:
        _node_source(gen, lines, pad, e, name, attrs, parent, siblings, "row")
    lines.append(pad + ("%s._children = %s = []; " % (e, c) if build else "")
                 + "o += 1")
    _steps_source(gen, lines, steps, e, c, level, pad, build)


def _steps_source(gen, lines, steps, e, c, level, pad, build):
    """The lines of ``steps`` under element ``e`` (child list ``c``); a
    ``_SKIP`` step's are counted: the slots its nodes would take."""
    for step in steps:
        kind = step[0]
        if kind == _LEAF:
            lines += [pad + "x = row[%d]" % step[3],
                      pad + "if x is not None:"]
            _leaf_source(gen, lines, pad + " ", step[1:3], e, c, "row", build)
        elif kind == _ROWS_LEAF:
            lines += [pad + "for r in fetchers[%d](row[0]):" % step[1],
                      pad + " x = r[%d]" % step[4]]
            _leaf_source(gen, lines, pad + " ", step[2:4], e, c, "r", build)
        elif kind == _INLINE and len(pad) < _MAX_DEPTH:
            if step[1] is not None:  # optional: present when its flag is
                lines.append(pad + "if row[%d]:" % step[1])
            _element_source(gen, lines, step[2], e, c, level + 1,
                            pad + " " * (step[1] is not None), build)
        elif kind == _SKIP:
            _steps_source(gen, lines, step[1], e, c, level, pad, False)
        else:  # child rows, or a wrapper nested too deep: its own function
            call = "o = %s(%%s, %s, %s, o, fetchers)" % (
                gen.ref(_emitter(step[2], build)), e, c)
            lines.append(pad + (
                "for r in fetchers[%d](row[0]): " % step[1] + call % "r"
                if kind == _ROWS_TREE else
                ("" if step[1] is None else "if row[%d]: " % step[1])
                + call % "row"))


def _leaf_source(gen, lines, pad, leaf, parent, siblings, row, build):
    """Lines building (or counting) a leaf element of value ``x`` (NULL:
    no text)."""
    if build:
        _node_source(gen, lines, pad, "l", leaf[0], leaf[1], parent,
                     siblings, row)
    lines += [pad + "if type(x) is not str: x = _text(x)"] + ([
        pad + "if x: t = _new(_Text); t.parent = l; t.order = o + 1; "
        "t.value = x; l._children = [t]; o += 2",
        pad + "else: l._children = []; o += 1"] if build  # "": no text node
        else [pad + "o += 2 if x else 1"])


def _node_source(gen, lines, pad, e, name, attrs, parent, siblings, row):
    """Lines making element ``e``, attached after ``siblings``, with its
    attributes (NULL: absent), each in its element's order slot."""
    lines.append(pad + (
        "{e} = _new(_Element); {e}.parent = {p}; {e}.order = o; {e}._name = "
        "{k}; {e}.namespaces = {{}}; {e}.source_line = None; {s}.append({e})"
    ).format(e=e, p=parent, k=gen.ref(name), s=siblings))
    if attrs:
        lines.append(pad + "at = []")
    for name, slot in attrs:
        lines.append(pad + "if %s[%d] is not None: a = _new(_Attribute); "
                     "a.parent = %s; a.order = o; a._name = %s; a.value = "
                     "_text(%s[%d]); at.append(a)"
                     % (row, slot, e, gen.ref(name), row, slot))
    lines.append(pad + "%s.attributes = %s" % (e, "at or ()" if attrs
                                               else "()"))


def _project(program, path, paths, reached):
    """The element program at ``path`` (``""``: the document element)
    with what ``reached`` — the mask's paths and their prefixes — does not
    name turned into ``_SKIP`` steps; ``paths[path]`` true keeps the whole
    subtree as stored, and so does a leaf reached at all."""
    if paths.get(path):
        return program
    name, attrs, steps = program
    prefix = path + "/" if path else ""
    kept, skipped = [], []
    for step in steps:
        kind = step[0]
        if kind == _LEAF:
            child = prefix + step[1].local
        elif kind == _ROWS_LEAF:
            child = prefix + step[2].local
        else:  # a wrapper or subtree: its element program's name
            child = prefix + step[2][0].local
        if child not in reached:
            skipped.append(step)
            continue
        if skipped:
            kept.append((_SKIP, tuple(skipped)))
            skipped = []
        if kind == _INLINE or kind == _ROWS_TREE:
            step = step[:2] + (_project(step[2], child, paths, reached),)
        kept.append(step)
    if skipped:
        kept.append((_SKIP, tuple(skipped)))
    return (name, tuple(attr for attr in attrs
                        if prefix + "@" + attr[0].local in reached),
            tuple(kept))


def _schema_signature(decl, seen=None):
    """Canonical one-line description of a structural-schema subtree."""
    if seen is None:
        seen = set()
    if id(decl) in seen:  # shared decl: already described once
        return "<shared %s>" % decl.name
    seen.add(id(decl))
    children = ",".join(
        "%s%s" % (
            _schema_signature(particle.decl, seen),
            particle.occurs,
        )
        for particle in decl.particles
    )
    return "%s[group=%s text=%d attrs=%s](%s)" % (
        decl.name, decl.group, int(decl.has_text),
        "|".join(decl.attributes), children,
    )


class ClobStorage:
    """Serialised-text storage: no structure for the rewrite to exploit."""

    def __init__(self, db, name):
        self.db = db
        self.name = name
        self.table_name = "%s_clob" % name
        db.create_table(self.table_name, [("id", INT), ("body", TEXT)])
        self._doc_counter = 0

    def fingerprint(self):
        """CLOB storage carries no structure: a compiled transform against
        it depends only on the stylesheet, so the fingerprint is just the
        storage identity."""
        return hashlib.sha256(
            ("clob:%s" % self.table_name).encode("utf-8")
        ).hexdigest()

    def load(self, document):
        self._doc_counter += 1
        self.db.insert(
            self.table_name, (self._doc_counter, serialize(document))
        )
        return self._doc_counter

    def load_many(self, documents):
        return [self.load(document) for document in documents]

    def document_ids(self):
        table = self.db.table(self.table_name)
        return [row[0] for _, row in table.scan()]

    def materialize(self, doc_id, stats=None):
        table = self.db.table(self.table_name)
        for _, row in table.scan():
            if stats is not None:
                stats.rows_scanned += 1
            if row[0] == doc_id:
                if stats is not None:
                    stats.docs_materialized += 1
                return parse_document(row[1])
        raise DatabaseError("no document %d" % doc_id)
