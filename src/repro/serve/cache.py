"""Thread-safe compiled-plan cache: LRU + stampede suppression.

The paper's ``XMLTransform()`` lives inside a database serving many
concurrent SQL sessions; recompiling the stylesheet through the full
partial-evaluation pipeline on every call would throw away exactly the
work the paper amortizes.  :class:`PlanCache` keys a compiled artifact
(a :class:`~repro.core.transform.CompiledTransform`) by the **content
hash of the stylesheet text** plus the **structural fingerprint of the
source** (see ``fingerprint()`` on
:class:`~repro.rdb.storage.ObjectRelationalStorage` /
:class:`~repro.rdb.database.View` / :class:`~repro.rdb.plan.Query`), so

* the same stylesheet text served against the same schema/view hits,
  no matter which session submits it;
* any DDL that changes what the optimizer would pick (a new value
  index, a different view definition) changes the fingerprint and
  misses — stale plans are never executed;
* explicit invalidation (:meth:`PlanCache.invalidate`) evicts by key,
  fingerprint or source when the caller knows the schema changed.

Concurrency: one global lock guards the map (operations are dict moves,
never compiles), and **per-key compile locks** serialize misses so N
concurrent requests for the same cold key compile exactly once — the
others block on the leader's slot and reuse its artifact ("stampede
suppression").  Hits, misses, evictions (by reason), suppressed
stampedes and compile latency land in ``repro.obs`` metrics under
``serve.cache.*``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.obs import global_metrics

EVICT_LRU = "lru"
EVICT_INVALIDATED = "invalidated"


class _Entry:
    __slots__ = ("value", "fingerprint")

    def __init__(self, value, fingerprint):
        self.value = value
        self.fingerprint = fingerprint


class _CompileSlot:
    """One in-flight compile: the leader resolves it, followers wait."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value = None
        self.error = None

    def resolve(self, value):
        self.value = value
        self.event.set()

    def fail(self, error):
        self.error = error
        self.event.set()

    def wait(self, timeout=None):
        if not self.event.wait(timeout):
            raise TimeoutError("timed out waiting for in-flight compile")
        if self.error is not None:
            raise self.error
        return self.value


class CacheStats:
    """Point-in-time cache statistics (also mirrored into metrics)."""

    __slots__ = ("hits", "misses", "stampede_suppressed", "evictions",
                 "compiles", "size", "capacity")

    def __init__(self, hits, misses, stampede_suppressed, evictions,
                 compiles, size, capacity):
        self.hits = hits
        self.misses = misses
        self.stampede_suppressed = stampede_suppressed
        self.evictions = dict(evictions)
        self.compiles = compiles
        self.size = size
        self.capacity = capacity

    @property
    def hit_ratio(self):
        total = self.hits + self.misses
        return (self.hits / total) if total else 0.0

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "stampede_suppressed": self.stampede_suppressed,
            "evictions": dict(self.evictions),
            "compiles": self.compiles,
            "size": self.size,
            "capacity": self.capacity,
        }


class PlanCache:
    """Bounded, thread-safe LRU cache of compiled transforms.

    An entry never expires by age: a plan goes stale only when its key
    changes (the source fingerprint and statistics version are part of
    it) or an invalidation sweep evicts it.

    :param capacity: maximum live entries; the least recently *used*
        entry is evicted beyond it.
    :param metrics: a :class:`~repro.obs.metrics.MetricsRegistry`
        (defaults to the process-wide one).
    """

    def __init__(self, capacity=128, metrics=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics or global_metrics()
        self._lock = threading.Lock()
        self._entries = OrderedDict()
        self._compiling = {}
        self._hits = 0
        self._misses = 0
        self._suppressed = 0
        self._compiles = 0
        self._evictions = {}

    # -- lookup / compile -------------------------------------------------------

    def get(self, key):
        """The cached value, or None — counts as a hit/miss."""
        with self._lock:
            value = self._lookup(key)
        return value

    def get_or_compile(self, key, compile_fn, fingerprint=None,
                       wait_timeout=None):
        """The cached value for ``key``, compiling it at most once.

        Returns ``(value, hit)``.  On a cold key the first caller (the
        *leader*) runs ``compile_fn()`` outside the cache lock and
        publishes the artifact; concurrent callers for the same key wait
        on the leader's slot instead of compiling again, and count into
        ``serve.cache.stampede_suppressed``.  A failing compile
        propagates the leader's exception to every waiter and caches
        nothing.
        """
        while True:
            with self._lock:
                value = self._lookup(key)
                if value is not None:
                    return value, True
                slot = self._compiling.get(key)
                leader = slot is None
                if leader:
                    slot = self._compiling[key] = _CompileSlot()
                else:
                    self._suppressed += 1
            if leader:
                return self._compile(key, slot, compile_fn,
                                     fingerprint), False
            self.metrics.counter("serve.cache.stampede_suppressed").inc()
            slot.wait(wait_timeout)
            # Re-check the map rather than trusting the slot value: the
            # entry may have been invalidated between resolve and here,
            # in which case we loop and compete to recompile.
            with self._lock:
                value = self._lookup(key, count=False)
            if value is not None:
                return value, True
            if slot.value is not None:
                return slot.value, True

    def _compile(self, key, slot, compile_fn, fingerprint):
        start = time.perf_counter()
        try:
            value = compile_fn()
        except BaseException as exc:
            with self._lock:
                self._compiling.pop(key, None)
            slot.fail(exc)
            raise
        self.metrics.histogram("serve.cache.compile_seconds").record(
            time.perf_counter() - start
        )
        self.put(key, value, fingerprint=fingerprint)
        with self._lock:
            self._compiles += 1
            self._compiling.pop(key, None)
        slot.resolve(value)
        return value

    def _lookup(self, key, count=True):
        """Hit test under the lock: LRU-promotes, counts."""
        entry = self._entries.get(key)
        if entry is None:
            if count:
                self._misses += 1
                self.metrics.counter("serve.cache.misses").inc()
            return None
        self._entries.move_to_end(key)
        if count:
            self._hits += 1
            self.metrics.counter("serve.cache.hits").inc()
        return entry.value

    # -- mutation ----------------------------------------------------------------

    def put(self, key, value, fingerprint=None):
        """Insert (or replace) an entry, evicting LRU beyond capacity."""
        entry = _Entry(value, fingerprint)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._count_eviction(EVICT_LRU)

    def invalidate(self, key=None, fingerprint=None):
        """Explicit eviction: by exact key or by source fingerprint
        (every plan compiled against that schema/view shape).  Returns
        the number of entries removed."""
        removed = 0
        with self._lock:
            for existing in list(self._entries):
                entry = self._entries[existing]
                if (
                    (key is not None and existing == key)
                    or (fingerprint is not None
                        and entry.fingerprint == fingerprint)
                ):
                    del self._entries[existing]
                    self._count_eviction(EVICT_INVALIDATED)
                    removed += 1
        return removed

    def invalidate_where(self, predicate, reason=EVICT_INVALIDATED):
        """Evict every entry whose cached *value* satisfies ``predicate``.

        The cross-process invalidation sweep uses this to drop plans
        compiled under another statistics version or an older epoch —
        entries known only by inspection, not by key.  ``predicate`` runs
        under the cache lock and must not call back into the cache.
        Returns the number of entries removed.
        """
        removed = 0
        with self._lock:
            for existing in list(self._entries):
                if predicate(self._entries[existing].value):
                    del self._entries[existing]
                    self._count_eviction(reason)
                    removed += 1
        return removed

    def clear(self):
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            for _ in range(removed):
                self._count_eviction(EVICT_INVALIDATED)
        return removed

    def _count_eviction(self, reason):
        self._evictions[reason] = self._evictions.get(reason, 0) + 1
        self.metrics.counter("serve.cache.evictions", reason=reason).inc()

    # -- introspection ------------------------------------------------------------

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def keys(self):
        with self._lock:
            return list(self._entries)

    def stats(self):
        with self._lock:
            return CacheStats(self._hits, self._misses, self._suppressed,
                              self._evictions, self._compiles,
                              len(self._entries), self.capacity)
