"""Path/value index for CLOB-stored XMLType (paper §7.4).

The paper lists "CLOB or BLOB storage with path/value index" among the
physical models to study.  The index maps simple root-to-leaf paths
(``/table/row/id``) and attribute paths (``/table/row/@key``) to the
documents containing a leaf with a given value, so value predicates can
select candidate documents *without parsing every CLOB* — the transform
itself still materialises the selected documents.

Values are indexed both as text and (when numeric) as numbers, so both
string equality and numeric range probes work.
"""

from __future__ import annotations

from collections import defaultdict

from repro.rdb.btree import BTreeIndex
from repro.rdb.values import number_key, orderable
from repro.xmlmodel.nodes import NodeKind


class PathValueIndex:
    """(path, value) → document ids."""

    def __init__(self):
        self._text = {}     # path -> BTreeIndex over string values
        self._number = {}   # path -> BTreeIndex over numeric values
        self.entries = 0

    def add_document(self, doc_id, document):
        """Index every leaf text and attribute of one document."""
        root_element = document.document_element
        if root_element is None:
            return
        leaves = []
        self._walk(root_element, "", leaves)
        self.add_leaves(doc_id, leaves)

    def _walk(self, element, prefix, leaves):
        path = "%s/%s" % (prefix, element.name.local)
        for attribute in element.attributes:
            leaves.append(
                ("%s/@%s" % (path, attribute.name.local), attribute.value))
        has_element_children = False
        for child in element.children:
            if child.kind == NodeKind.ELEMENT:
                has_element_children = True
                self._walk(child, path, leaves)
        if not has_element_children:
            value = element.string_value()
            if value:
                leaves.append((path, value))
        else:
            # Mixed content: the element's own character data is a leaf
            # value too.  Only non-whitespace runs are indexed, so
            # pretty-printed documents don't index their indentation.
            direct_text = "".join(
                child.value for child in element.children
                if child.kind == NodeKind.TEXT
            )
            if direct_text.strip():
                leaves.append((path, direct_text))

    def add_leaves(self, doc_id, leaves):
        """Enter ``(path, value)`` leaves of one document: each path's
        values go to its text index, the finite numbers among them to its
        numeric one, as one sorted run each."""
        self.entries += len(leaves)
        by_path = defaultdict(list)
        for path, value in leaves:
            by_path[path].append(value)
        for path, values in by_path.items():
            numbers = sorted(number for number in map(_as_number, values)
                             if number is not None)
            for prefix, indexes, run in (("pv", self._text, sorted(values)),
                                         ("pvn", self._number, numbers)):
                if run:
                    index = indexes.get(path)
                    if index is None:
                        index = indexes[path] = BTreeIndex(
                            "%s:%s" % (prefix, path), "", path)
                    index.extend(run, [doc_id] * len(run))

    def paths(self):
        return sorted(self._text)

    def lookup(self, path, op, value, stats=None):
        """Document ids whose leaf at ``path`` satisfies ``op value``.

        Numeric ``value`` probes the numeric index; strings probe the text
        index.  Returns a sorted, de-duplicated list.
        """
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            index = self._number.get(path)
            key = number_key(value)
        else:
            index = self._text.get(path)
            key = str(value)
        if index is None or key is None:
            return []
        doc_ids = index.lookup_op(op, key, stats=stats)
        return sorted(set(doc_ids))


def _as_number(text):
    """The number *text* spells if an ordered index holds it
    (:func:`~repro.rdb.values.orderable`), else None."""
    if text.isalpha():
        # same answer as below, without a raised ValueError (~0.5 µs
        # against ~0.02): 57 % of the `ingest` document's leaves are one
        # word, and ten pairs with/without read p50 -3.6 % (CHANGES.md)
        return None
    try:
        number = float(text)
    except ValueError:
        return None
    return number if orderable(number) else None


class IndexedClobStorage:
    """CLOB storage plus a path/value index maintained at load time.

    A thin composition over :class:`~repro.rdb.storage.ClobStorage`:
    documents are stored serialised, but ``find_documents`` can pre-filter
    by leaf value without parsing anything.
    """

    def __init__(self, db, name):
        from repro.rdb.storage import ClobStorage

        self._clob = ClobStorage(db, name)
        self.index = PathValueIndex()
        self.db = db

    def load(self, document):
        doc_id = self._clob.load(document)
        self.index.add_document(doc_id, document)
        return doc_id

    def load_many(self, documents):
        return [self.load(document) for document in documents]

    def document_ids(self):
        return self._clob.document_ids()

    def materialize(self, doc_id, stats=None):
        return self._clob.materialize(doc_id, stats=stats)

    def find_documents(self, path, op, value, stats=None):
        """Candidate document ids for a leaf-value predicate."""
        return self.index.lookup(path, op, value, stats=stats)

    def transform_matching(self, stylesheet, path, op, value):
        """Transform only the documents the path/value index selects.

        Returns ``(doc_id → result document, stats)`` — the §7.4 usage:
        the index prunes the document set; the transform itself is still
        functional (CLOB carries no structure for the rewrite).
        """
        from repro.rdb.plan import ExecutionStats
        from repro.xslt.stylesheet import Stylesheet, compile_stylesheet
        from repro.xslt.vm import XsltVM

        if not isinstance(stylesheet, Stylesheet):
            stylesheet = compile_stylesheet(stylesheet)
        stats = ExecutionStats()
        vm = XsltVM(stylesheet)
        results = {}
        for doc_id in self.find_documents(path, op, value, stats=stats):
            document = self.materialize(doc_id, stats=stats)
            results[doc_id] = vm.transform_document(document)
        return results, stats
