"""B-tree index emulation.

Implemented as a sorted array with binary search (``bisect``): the same
O(log n) point/range probe behaviour as a B-tree, which is the property the
paper's Figure 2 depends on ("uses B-tree index to compute the predicate").
Probe and entry counts are reported so tests and benchmarks can assert plan
shape, not just wall-clock time.
"""

from __future__ import annotations

import bisect
from itertools import islice
from math import inf
from operator import itemgetter, le, ne

from repro.errors import DatabaseError

_INFINITIES = (inf, -inf)


def _indexable(key):
    """NULLs are not indexed, and neither is NaN: it has no place in a
    total order (one NaN key breaks ``bisect`` for its neighbours), and no
    comparison a probe serves is true of it — exactly what a scan finds.
    Nor is ±inf, which compares as the NaN XPath reads from its text."""
    return key is not None and key == key and key not in _INFINITIES


class BTreeIndex:
    """A secondary index mapping column values to row ids."""

    def __init__(self, name, table_name, column_name):
        self.name = name
        self.table_name = table_name
        self.column_name = column_name
        self._keys = []     # sorted key values
        self._row_ids = []  # parallel to _keys

    def __len__(self):
        return len(self._keys)

    def insert(self, key, row_id):
        """Enter one pair, after every equal key already present."""
        if not _indexable(key):
            return
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._row_ids.insert(position, row_id)

    def extend(self, keys, row_ids):
        """Enter parallel sequences of keys and row ids, leaving the index
        as one :meth:`insert` per pair, in order, would.  A batch in key
        order that starts at or after the last key — what ingest hands
        over — is appended whole; any other is merged in one pass."""
        if None in keys or (keys and type(keys[-1]) is float and (
                any(map(ne, keys, keys)) or max(keys) == inf
                or min(keys) == -inf)):
            row_ids = [row_id for key, row_id in zip(keys, row_ids)
                       if _indexable(key)]
            keys = [key for key in keys if _indexable(key)]
        mine, my_row_ids = self._keys, self._row_ids
        if all(map(le, keys, islice(keys, 1, None))) and (
                not mine or not keys or keys[0] >= mine[-1]):
            mine.extend(keys)
            my_row_ids.extend(row_ids)
            return
        # the stretch the batch overlaps, re-sorted with the batch behind
        # it: stable, so equal keys land after those present, in batch order
        start = bisect.bisect_right(mine, min(keys))
        stop = bisect.bisect_right(mine, max(keys), start)
        entries = sorted(zip(mine[start:stop] + list(keys),
                             my_row_ids[start:stop] + list(row_ids)),
                         key=itemgetter(0))
        mine[start:stop], my_row_ids[start:stop] = zip(*entries)

    def build(self, pairs):
        """Bulk-load (key, row_id) pairs."""
        entries = sorted(
            (key, row_id) for key, row_id in pairs if _indexable(key)
        )
        self._keys = [key for key, _ in entries]
        self._row_ids = [row_id for _, row_id in entries]

    def node_visits_per_probe(self):
        """Emulated B-tree node visits for one probe: the binary-search
        descent touches ~log2(n) positions, the analogue of root-to-leaf
        node reads in a real B-tree."""
        return max(1, len(self._keys).bit_length())

    # -- probes -------------------------------------------------------------

    def lookup_eq(self, key, stats=None):
        """Row ids with exactly this key, in insertion order of the range."""
        if stats is not None:
            stats.index_probes += 1
            stats.btree_node_visits += self.node_visits_per_probe()
        if key != key:
            return []  # a NaN probe equals nothing
        low = bisect.bisect_left(self._keys, key)
        high = bisect.bisect_right(self._keys, key)
        if stats is not None:
            stats.index_entries += high - low
        return self._row_ids[low:high]

    def lookup_range(self, low=None, high=None, low_inclusive=True,
                     high_inclusive=True, stats=None):
        """Row ids with keys in [low, high] (open ends with None)."""
        start, stop = self._range_bounds(
            low, high, low_inclusive, high_inclusive, stats)
        return self._row_ids[start:stop]

    def lookup_range_items(self, low=None, high=None, low_inclusive=True,
                           high_inclusive=True, stats=None):
        """(key, row_id) pairs in key order for keys in [low, high]."""
        start, stop = self._range_bounds(
            low, high, low_inclusive, high_inclusive, stats)
        return list(zip(self._keys[start:stop], self._row_ids[start:stop]))

    def _range_bounds(self, low, high, low_inclusive, high_inclusive, stats):
        if stats is not None:
            stats.index_probes += 1
            stats.btree_node_visits += self.node_visits_per_probe()
        if low != low or high != high:
            return 0, 0  # a NaN bound admits no key
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif high_inclusive:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        if stop < start:
            stop = start
        if stats is not None:
            stats.index_entries += stop - start
        return start, stop

    def lookup_op(self, op, value, stats=None):
        """Probe by comparison operator ('=', '<', '<=', '>', '>=')."""
        if op == "=":
            return self.lookup_eq(value, stats=stats)
        if op == "<":
            return self.lookup_range(high=value, high_inclusive=False,
                                     stats=stats)
        if op == "<=":
            return self.lookup_range(high=value, stats=stats)
        if op == ">":
            return self.lookup_range(low=value, low_inclusive=False,
                                     stats=stats)
        if op == ">=":
            return self.lookup_range(low=value, stats=stats)
        raise DatabaseError("index cannot serve operator %r" % op)
