"""Structural path index: root-to-node paths mapped to label ranges.

The index is the physical-design answer to descendant-axis (``//``) steps:
instead of walking parent chains, an element name resolves to the set of
root-to-node *paths* it appears under, and each path holds a B-tree over
``(doc_id, start)`` containment-label keys (see
:mod:`repro.xmlmodel.labels`).  A descendant step then becomes a merged
index range scan in document order — the input a stack-based structural
join (:class:`repro.rdb.plan.StructuralJoin`) consumes without sorting.

Maintained incrementally at ingest (DOM or streaming — both hand over
elements in preorder, so each path's share of a batch is a sorted run the
B-tree appends whole), and registered
with the owning :class:`~repro.rdb.database.Database` so its presence and
entry count participate in catalog/storage fingerprints, invalidating the
serve tier's plan cache exactly like any other DDL.
"""

from __future__ import annotations

import heapq

from repro.obs.metrics import global_metrics
from repro.rdb.btree import BTreeIndex


class StructuralPathIndex:
    """Per-table index: path → B-tree of ``(doc_id, start)`` → row id."""

    def __init__(self, table_name):
        self.table_name = table_name
        self._by_path = {}    # path -> BTreeIndex
        self._by_name = {}    # element name -> sorted list of paths
        self._entries = 0

    def __len__(self):
        return self._entries

    # -- maintenance ---------------------------------------------------------

    def add_elements(self, doc_id, elements):
        """Record element occurrences of one document: ``elements`` yields
        ``(path, name, start, row_id)`` in preorder, ``path`` the
        root-to-node path (e.g. ``/tree/node/label``) and ``name`` its
        last segment."""
        runs = {}  # path -> (name, keys, row ids), each a preorder run
        for path, name, start, row_id in elements:
            run = runs.get(path)
            if run is None:
                run = runs[path] = (name, [], [])
            run[1].append((doc_id, start))
            run[2].append(row_id)
        for path, (name, keys, row_ids) in runs.items():
            index = self._by_path.get(path)
            if index is None:
                index = self._by_path[path] = BTreeIndex(
                    "sidx_%s%s" % (self.table_name, path.replace("/", "_")),
                    self.table_name, "($doc,$start)")
                paths = self._by_name.setdefault(name, [])
                paths.append(path)
                paths.sort()
            index.extend(keys, row_ids)
            self._entries += len(keys)
        global_metrics().gauge("structural.index.entries").set(self._entries)

    # -- lookups -------------------------------------------------------------

    def paths(self):
        return sorted(self._by_path)

    def paths_for(self, name):
        """All indexed root-to-node paths ending in *name*."""
        return list(self._by_name.get(name, ()))

    def count_name(self, name):
        """Number of indexed occurrences of *name* (cost estimation)."""
        return sum(
            len(self._by_path[path]) for path in self._by_name.get(name, ()))

    def scan_name(self, name, doc_id=None, stats=None):
        """Yield ``((doc_id, start), row_id)`` for every element named
        *name*, merged across its paths into ``(doc_id, start)`` order —
        i.e. document order.  With *doc_id*, restricted to one document
        via a range probe per path."""
        streams = []
        for path in self._by_name.get(name, ()):
            index = self._by_path[path]
            if doc_id is None:
                pairs = index.lookup_range_items(stats=stats)
            else:
                pairs = index.lookup_range_items(
                    low=(doc_id, 0), high=(doc_id + 1, 0),
                    low_inclusive=True, high_inclusive=False, stats=stats)
            if pairs:
                streams.append(pairs)
            if stats is not None:
                stats.struct_range_scans += 1
        global_metrics().counter("structural.index.range_scans").inc(
            max(1, len(streams)))
        if len(streams) == 1:
            yield from streams[0]
        elif streams:
            yield from heapq.merge(*streams)

    def fingerprint_token(self):
        """Deterministic catalog-shape token: the indexed path set.  Entry
        counts deliberately do not participate — row-count changes bump the
        statistics version instead, mirroring value indexes."""
        return "structpath:%s(%s)" % (
            self.table_name, ",".join(sorted(self._by_path)))
