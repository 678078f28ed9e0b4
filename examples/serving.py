#!/usr/bin/env python
"""Serving: concurrent ``XMLTransform()`` with the compiled-plan cache.

Starts a :class:`repro.serve.TransformService` over the quickstart
database (Tables 1–3), drives it with concurrent clients, and shows the
serving story end to end:

* the first request *compiles* — partial evaluation → XQuery → SQL/XML
  merge → optimize — and the plan lands in the cache;
* every later request for the same (stylesheet, source) *hits*: its
  trace contains no compile span at all, yet EXPLAIN REWRITE still
  renders the full decision ledger preserved from the one compile;
* a closed loop of client threads reports throughput and the
  service's own p50/p95 request latency;
* after schema-affecting DDL, ``invalidate(source=...)`` evicts every
  plan compiled against that source, so the next request recompiles
  against the new physical design.  (Object-relational storage sources
  need no explicit call: index DDL changes their structural
  fingerprint, so stale plans miss automatically.)
* the same front door over worker *processes*
  (``Engine(db, workers=2).serve(sources=...)``): requests name their
  source, a plan compiled by one worker is a disk-tier hit in the other.

Run:  python examples/serving.py
"""

import threading
import time

from quickstart import STYLESHEET, build_database, dept_emp_view

from repro.api import Engine


def main():
    db = build_database()
    view_query = dept_emp_view(db)

    with Engine(db).serve(workers=4, queue_size=64) as service:
        # -- cold request: compiles, caches ---------------------------------
        cold = service.transform(view_query, STYLESHEET)
        print("cold request: strategy=%s cache_hit=%s"
              % (cold.strategy, cold.cache_hit))

        # -- concurrent warm requests: all hit ------------------------------
        results = []
        lock = threading.Lock()

        def client():
            result = service.transform(view_query, STYLESHEET)
            with lock:
                results.append(result)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        hits = sum(1 for result in results if result.cache_hit)
        print("8 concurrent requests: %d cache hits, %d compile(s) total"
              % (hits, service.cache.stats().compiles))

        # -- a cache hit skips compilation but keeps its provenance ---------
        warm = results[0]
        print()
        print("cache-hit report (no compile stages in the trace):")
        print(warm.report())
        print()
        print("cache-hit EXPLAIN REWRITE (ledger preserved from compile):")
        print(warm.explain().render())

        # -- closed loop: 4 clients x 25 requests ----------------------------
        def loop():
            for _ in range(25):
                service.transform(view_query, STYLESHEET)

        threads = [threading.Thread(target=loop) for _ in range(4)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        latency = service.metrics.histogram("serve.request.latency",
                                            cache="hit")
        print()
        print("closed loop: 100 requests, %.0f req/s" % (100 / elapsed))
        print("hit latency ms: p50=%.3f p95=%.3f"
              % (latency.p50 * 1000.0, latency.p95 * 1000.0))

        # -- schema change invalidates --------------------------------------
        print()
        print("cache entries before DDL: %d" % len(service.cache))
        db.sql("CREATE INDEX ON emp (empno)")
        evicted = service.invalidate(source=view_query)
        print("after CREATE INDEX, invalidate(source) evicted %d plan(s)"
              % evicted)
        fresh = service.transform(view_query, STYLESHEET)
        print("next request recompiles: cache_hit=%s" % fresh.cache_hit)

    # -- the same front door over worker processes --------------------------
    print()
    with Engine(db, workers=2).serve(
            sources={"dept_emp": view_query}) as service:
        pids = sorted(reply["pid"] for reply in service.ping())
        print("process workers %s behind the same TransformService" % pids)
        for worker in (0, 0, 1):
            result = service.transform_on(worker, "dept_emp", STYLESHEET)
            print("worker %d: cache_tier=%s rows=%d"
                  % (result.worker, result.cache_tier,
                     len(result.serialized_rows())))
        print("health: %s" % service.health()["status"])


if __name__ == "__main__":
    main()
