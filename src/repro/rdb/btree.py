"""B-tree index emulation.

Implemented as a sorted array with binary search (``bisect``): the same
O(log n) point/range probe behaviour as a B-tree, which is the property the
paper's Figure 2 depends on ("uses B-tree index to compute the predicate").
Probe and entry counts are reported so tests and benchmarks can assert plan
shape, not just wall-clock time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import islice
from operator import itemgetter, le

from repro.errors import DatabaseError
from repro.rdb.values import all_orderable, orderable


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
        if not orderable(key):
            return
        position = bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._row_ids.insert(position, row_id)

    def extend(self, keys, row_ids):
        """Enter parallel sequences of keys and row ids, leaving the index
        as one :meth:`insert` per pair, in order, would.  A batch in key
        order that starts at or after the last key — what ingest hands
        over — is appended whole; any other is merged in one pass."""
        if not all_orderable(keys):
            row_ids = [row_id for key, row_id in zip(keys, row_ids)
                       if orderable(key)]
            keys = [key for key in keys if orderable(key)]
        mine, my_row_ids = self._keys, self._row_ids
        if all(map(le, keys, islice(keys, 1, None))) and (
                not mine or not keys or keys[0] >= mine[-1]):
            mine.extend(keys)
            my_row_ids.extend(row_ids)
            return
        # the stretch the batch overlaps, re-sorted with the batch behind
        # it: stable, so equal keys land after those present, in batch order
        start = bisect_right(mine, min(keys))
        stop = bisect_right(mine, max(keys), start)
        entries = sorted(zip(mine[start:stop] + list(keys),
                             my_row_ids[start:stop] + list(row_ids)),
                         key=itemgetter(0))
        mine[start:stop], my_row_ids[start:stop] = zip(*entries)

    def build(self, pairs):
        """Bulk-load (key, row_id) pairs."""
        entries = sorted(
            (key, row_id) for key, row_id in pairs if orderable(key)
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
        low = bisect_left(self._keys, key)
        high = bisect_right(self._keys, key)
        if stats is not None:
            stats.index_probes += 1
            stats.btree_node_visits += self.node_visits_per_probe()
            stats.index_entries += high - low
        return self._row_ids[low:high]

    def lookup_range(self, low=None, high=None, low_inclusive=True,
                     high_inclusive=True, stats=None):
        """Row ids with keys in [low, high] (open ends with None)."""
        keys = self._keys
        start = 0 if low is None else (
            bisect_left if low_inclusive else bisect_right)(keys, low)
        stop = len(keys) if high is None else (
            bisect_right if high_inclusive else bisect_left)(keys, high)
        stop = max(start, stop)
        if stats is not None:
            stats.index_probes += 1
            stats.btree_node_visits += self.node_visits_per_probe()
            stats.index_entries += stop - start
        return self._row_ids[start:stop]

    def lookup_op(self, op, key, stats=None):
        """Row ids of the keys ``op key`` holds of ('=', '<', '<=', '>',
        '>='), in key order; ``key`` is :func:`orderable`."""
        if op == "=":
            return self.lookup_eq(key, stats=stats)
        if op not in ("<", "<=", ">", ">="):
            raise DatabaseError("index cannot serve operator %r" % op)
        if op[0] == "<":
            return self.lookup_range(high=key, high_inclusive=op == "<=",
                                     stats=stats)
        return self.lookup_range(low=key, low_inclusive=op == ">=",
                                 stats=stats)
