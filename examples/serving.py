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
* a closed-loop load run reports throughput, p50/p95/p99 latency and
  the cache hit ratio;
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

from quickstart import STYLESHEET, build_database, dept_emp_view

from repro.api import Engine
from repro.serve import WorkItem, run_load


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

        # -- closed-loop load -----------------------------------------------
        report = run_load(
            service,
            [WorkItem(view_query, STYLESHEET, name="dept_emp")],
            clients=4, requests_per_client=25,
        )
        print()
        print("load: %d requests, %.0f req/s, hit ratio %.2f"
              % (report.requests, report.throughput_rps, report.hit_ratio))
        print("latency ms: p50=%.3f p95=%.3f p99=%.3f"
              % (report.latency_ms(50), report.latency_ms(95),
                 report.latency_ms(99)))

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
