"""The plan runtime: what one serving worker does with a claimed request.

A :class:`PlanRuntime` owns a database, the sources it serves and the
**two-tier compiled-plan cache** — tier 1 an in-memory
:class:`~repro.serve.cache.PlanCache`, tier 2 an optional disk-backed
:class:`~repro.serve.artifact.ArtifactStore` shared with every process
pointing at the same directory.  It is a *plan source*: "plan or
compile, then open the run" is :meth:`repro.api.Engine._open`'s for
every door, and :meth:`PlanRuntime.compiled_for` the lookup handed to
it.  :meth:`PlanRuntime.run` is one materialised request — thread
workers call it in-process, process workers inside the child — and
:meth:`PlanRuntime.open` the step it shares with the streaming door.

* the tier-1 key is stylesheet content hash + source structural
  fingerprint + compile-relevant options + ``stats:``/``epoch:``
  versions, so a plan chosen under stale statistics is never looked up
  again; a failed rewrite is cached too (negative caching: every
  execution replays the categorized functional fallback);
* **cross-process invalidation** (:meth:`PlanRuntime.sync_versions`)
  evicts under ``serve.cache.evictions{reason="stale-stats"}``.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time

from repro.api import Engine
from repro.core.transform import (
    TransformResult,
    execute_compiled,
    source_fingerprint,
)
from repro.errors import ReproError
from repro.obs import global_metrics
from repro.rdb.sqlxml import Markup
from repro.serve.artifact import ArtifactStore, artifact_key
from repro.serve.cache import PlanCache
from repro.xslt.stylesheet import Stylesheet

#: tier-1 eviction reason for plans invalidated by a sibling process
EVICT_STALE_STATS = "stale-stats"


class ServeError(ReproError):
    """Base class for serving-layer failures."""


def stylesheet_key(stylesheet):
    """Content hash for text; identity for pre-compiled objects (the
    cached artifact keeps the object alive, so its id cannot be
    reused while the entry is live).  Only content-hash keys
    (``ss-text:``) are stable across processes — process workers and
    the persistent artifact store require them."""
    if isinstance(stylesheet, Stylesheet):
        return "ss-obj:%x" % id(stylesheet)
    return "ss-text:%s" % hashlib.sha256(
        stylesheet.encode("utf-8")
    ).hexdigest()


class ServeResult(TransformResult):
    """One served request, whichever worker backend ran it: the view of
    its run a service future resolves to.  Every fact — ``cache_tier``,
    ``execute_seconds``, ``queue_wait_seconds`` / ``total_seconds`` /
    ``worker`` as stamped by the front door — reads through to ``run``,
    the one :class:`~repro.core.transform.Execution` record.

    Where the plan ran the record is whole (ledger, plan, profile, span
    tree).  Pickling *is* the wire form of a process worker's reply:
    each row rendered to one markup item (markup text is the transport
    format) over the record's own wire form, so ``explain()`` /
    ``report()`` on the far side render what crossed."""

    __slots__ = ()

    def __getstate__(self):
        return self.serialized_rows(), self.run

    def __setstate__(self, state):
        rows, self.run = state
        self.rows = [[Markup(text)] for text in rows]


class _CachedPlan:
    """Tier-1 envelope: the compiled plan plus the versions it was
    compiled under — what the cross-process invalidation sweep compares
    against current state."""

    __slots__ = ("compiled", "stats_version", "epoch")

    def __init__(self, compiled, stats_version, epoch):
        self.compiled = compiled
        self.stats_version = stats_version
        self.epoch = epoch


class PlanRuntime:
    """Database + sources + two-tier plan cache for one worker process
    or one pool of worker threads, reporting through one
    :class:`~repro.api.Engine` (``self.engine``: the tracer and metrics
    every request it runs uses).  The parameters are
    :class:`~repro.serve.service.TransformService`'s, which documents
    them; ``worker_id`` labels a process worker's replies and spans."""

    def __init__(self, db, sources=None, cache=None, cache_capacity=128,
                 artifact_dir=None, metrics=None, worker_id=None,
                 tracer=None):
        self.db = db
        self.sources = dict(sources or {})
        self.metrics = metrics or global_metrics()
        self.engine = Engine(db, tracer=tracer, metrics=self.metrics)
        self.worker_id = worker_id
        # explicit None test: an empty PlanCache is falsy (len() == 0)
        self.cache = cache if cache is not None else PlanCache(
            capacity=cache_capacity, metrics=self.metrics,
        )
        self.store = None
        self.seen_epoch = 0
        if artifact_dir is not None:
            self.store = ArtifactStore(artifact_dir, metrics=self.metrics)
            self.seen_epoch = self.store.epoch()
        self.seen_stats_version = db.stats_version()
        self._sync_lock = threading.Lock()

    def resolve(self, source):
        """A request's source: a name from ``sources``, or the live
        object itself."""
        if not isinstance(source, str):
            return source
        try:
            return self.sources[source]
        except KeyError:
            raise ServeError(
                "no source %r (known: %s)"
                % (source, ", ".join(sorted(self.sources)) or "none")
            ) from None

    # -- invalidation --------------------------------------------------------------

    def sync_versions(self):
        """Publish local invalidations, absorb remote ones.

        A local ``stats_version`` bump (ANALYZE / DDL) bumps
        the store's shared epoch so *siblings* evict; a remote epoch
        bump evicts *this* runtime's tier-1 entries recorded under older
        epochs or a different stats version.  Without a disk tier there
        are no siblings, and the ``stats:`` key component alone retires
        stale plans.  Returns evicted count."""
        if self.store is None:
            return 0
        with self._sync_lock:  # worker threads share one runtime
            stats_version = self.db.stats_version()
            changed = False
            if stats_version != self.seen_stats_version:
                self.seen_stats_version = stats_version
                self.seen_epoch = self.store.bump_epoch(
                    reason="stats:%d" % stats_version
                )
                changed = True
            epoch = self.store.epoch()
            if epoch != self.seen_epoch:
                self.seen_epoch = epoch
                changed = True
        if not changed:
            return 0
        return self.cache.invalidate_where(
            lambda entry: (entry.stats_version != stats_version
                           or entry.epoch < self.seen_epoch),
            reason=EVICT_STALE_STATS,
        )

    # -- two-tier plan lookup ------------------------------------------------------

    def compiled_for(self, source, stylesheet, opts, build):
        """This runtime as :meth:`repro.api.Engine._open`'s plan source:
        absorb (and publish) invalidations, then ``(compiled, tier)``
        through tier 1, then the disk tier, then ``build()``
        (persisted for every sibling).

        ``compile`` (leader-only, stampede-suppressed) runs inside *this*
        request's root span, so compile spans appear exactly once — in
        the leader's trace — and cache-hit traces contain none."""
        self.sync_versions()
        fingerprint = source_fingerprint(source)
        ss_key = stylesheet_key(stylesheet)
        options_key = opts.cache_key()
        stats_version = self.db.stats_version()
        epoch = self.seen_epoch
        key = (ss_key, fingerprint, options_key,
               "stats:%d" % stats_version, "epoch:%d" % epoch)
        # identity-keyed (pre-compiled Stylesheet) entries are not
        # stable across processes — keep them out of the disk tier
        store = self.store if ss_key.startswith("ss-text:") else None
        tier = "miss"

        def compile_fn():
            nonlocal tier
            if store is not None:
                catalog = self.db.fingerprint()
                disk_key = artifact_key(ss_key, fingerprint, catalog,
                                        options_key,
                                        "stats:%d" % stats_version)
                with self.engine.tracer.span(
                        "serve.cache.disk_lookup") as span:
                    compiled, _header = store.get(
                        disk_key, fingerprint=fingerprint, catalog=catalog,
                        stats_version=stats_version,
                    )
                    span.set_attr(hit=compiled is not None)
                if compiled is not None:
                    tier = "l2"
                    return _CachedPlan(compiled, stats_version, epoch)
            compiled = build()
            if store is not None:
                store.put(disk_key, compiled, fingerprint=fingerprint,
                          catalog=catalog, stats_version=stats_version,
                          epoch=epoch)
            return _CachedPlan(compiled, stats_version, epoch)

        entry, hit = self.cache.get_or_compile(key, compile_fn,
                                               fingerprint=fingerprint)
        return entry.compiled, ("l1" if hit else tier)

    # -- request handling ----------------------------------------------------------

    def open(self, door, source, stylesheet, opts, params, root=None,
             deadline=None):
        """Open ``door`` over one request, the way every door does
        (:meth:`repro.api.Engine._open`) with this runtime's plans."""
        view = self.engine._open(
            door, root, self.db, self.resolve(source), stylesheet, opts,
            params, self.compiled_for, deadline)
        view.run.stats_version = self.db.stats_version()
        return view

    def run(self, source, stylesheet, opts, params, root):
        """Execute one claimed request inside ``root``, the request's
        root span its door opened, recording the cache outcome and
        strategy on it; a :class:`ServeResult`.  ``opts.deadline`` is
        what is left of the request's life on arrival here (past it,
        plan execution raises
        :class:`~repro.errors.DeadlineExceededError`)."""
        deadline = None if opts.deadline is None \
            else time.perf_counter() + opts.deadline
        tracer = self.engine.tracer

        def door(*args):
            with tracer.span("serve.execute"):
                return execute_compiled(*args)

        view = self.open(door, source, stylesheet, opts, params, root,
                         deadline)
        self.metrics.histogram("serve.execute_seconds").record(
            view.execute_seconds)
        root.set_attr(cache_tier=view.cache_tier, cache_hit=view.cache_hit,
                      strategy=view.strategy)
        return ServeResult(view.rows, run=view.run)

    # -- control plane -------------------------------------------------------------

    def control(self, op, payload=None):
        """One control-plane operation — what a process worker answers
        over its pipe and a thread pool answers in-process."""
        if op == "ping":
            return {"worker": self.worker_id, "pid": os.getpid()}
        if op == "stats":
            return self.stats_payload()
        if op == "analyze":
            return self.analyze(payload)
        if op == "invalidate":
            return self.invalidate(payload)
        raise ServeError("unknown serve op %r" % (op,))

    def analyze(self, table=None):
        before = self.db.stats_version()
        self.db.analyze(table)
        evicted = self.sync_versions()
        return {
            "worker": self.worker_id,
            "stats_version": {"before": before,
                              "after": self.db.stats_version()},
            "epoch": self.seen_epoch,
            "evicted": evicted,
        }

    def invalidate(self, source):
        """Evict every plan compiled against ``source``'s current
        fingerprint, from tier 1 and the disk tier.  Call after DDL that
        changes a source's schema, view definition or indexes."""
        removed = 0
        if not isinstance(source, str) or source in self.sources:
            fingerprint = source_fingerprint(self.resolve(source))
            removed += self.cache.invalidate(fingerprint=fingerprint)
            if self.store is not None:
                removed += self.store.invalidate(fingerprint=fingerprint)
        return {"worker": self.worker_id, "removed": removed}

    def stats_payload(self):
        return {
            "worker": self.worker_id,
            "pid": os.getpid(),
            "stats_version": self.db.stats_version(),
            "epoch": self.seen_epoch,
            "cache": self.cache.stats().as_dict(),
            "disk": (self.store.stats().as_dict()
                     if self.store is not None else None),
            "metrics": self.metrics.snapshot(),
        }
