#!/usr/bin/env python
"""Ops plane: trace a served request end to end over HTTP.

Starts a :class:`repro.serve.TransformService` with its HTTP ops plane
(``ops_port=0`` binds an ephemeral port), serves a cold-miss, a
cached-hit and a streamed request — each carrying W3C ``traceparent``
context or minting its own — then walks the four endpoints:

* ``GET /metrics`` — the service's counters, gauges (admission-queue
  depth/capacity/saturation) and latency histograms in Prometheus text
  exposition format;
* ``GET /healthz`` / ``GET /readyz`` — liveness vs. readiness (readiness
  drops at queue saturation, liveness does not);
* ``GET /debug/requests`` — the flight recorder's ring, newest first;
* ``GET /debug/trace/<id>`` — one request's full record: every span of
  its trace (admission -> compile -> plan execution -> stream drain,
  all sharing the request's trace id), per-stage timings, and — for
  slow or tail-sampled requests — the retained EXPLAIN ANALYZE +
  decision-ledger detail.

Run:  python examples/ops.py [--port N] [--hold SECONDS] [--processes N]

``--port`` fixes the ops port (default: ephemeral).  ``--hold`` keeps
the service and ops plane up for that many seconds after the tour so an
external client (curl, a CI step, a browser) can probe the same URLs.
``--processes N`` serves from N worker *processes* instead of threads:
the same front door and the same endpoints, requests naming their
source, and the trace stitched across the pipe (``cluster.request`` ->
``cluster.worker``); chunk streaming needs thread workers and is
skipped.
"""

import argparse
import json
import time
import urllib.request

from quickstart import STYLESHEET, build_database, dept_emp_view

from repro.api import Engine
from repro.obs import FlightRecorder, new_span_id, new_trace_id
from repro.obs.trace import TraceContext


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.read().decode("utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0,
                        help="ops-plane port (default: ephemeral)")
    parser.add_argument("--hold", type=float, default=0.0,
                        help="keep serving this many seconds after the tour")
    parser.add_argument("--processes", type=int, default=0,
                        help="serve from N worker processes (default: "
                             "4 worker threads)")
    args = parser.parse_args()

    db = build_database()
    view_query = dept_emp_view(db)

    # retain full detail for every request so the demo always has an
    # EXPLAIN to show; production keeps the default slow-only policy
    recorder = FlightRecorder(slow_threshold_seconds=0.0)
    if args.processes:
        # process workers hold the sources; requests name them
        service = Engine(db, workers=args.processes).serve(
            sources={"dept_emp": view_query}, recorder=recorder,
            ops_port=args.port)
        view_query = "dept_emp"
    else:
        service = Engine(db).serve(workers=4, recorder=recorder,
                                   ops_port=args.port)
    with service:
        base = service.ops.url
        print("ops plane listening on %s" % base)

        # -- one upstream-correlated miss, one hit, one stream --------------
        upstream = TraceContext(new_trace_id(), new_span_id())
        cold = service.transform(view_query, STYLESHEET,
                                 traceparent=upstream.to_traceparent())
        warm = service.transform(view_query, STYLESHEET)
        print("cold miss joined upstream trace: %s (traceparent in, %s)"
              % (cold.trace_id, cold.trace_id == upstream.trace_id))
        print("cached hit minted its own trace: %s (cache_hit=%s)"
              % (warm.trace_id, warm.cache_hit))
        if not args.processes:
            stream = service.transform_stream(view_query, STYLESHEET)
            stream.text()
            print("stream drained under trace:      %s" % stream.trace_id)

        # -- /metrics -------------------------------------------------------
        print()
        print("GET /metrics (serve_* families):")
        for line in fetch(base + "/metrics").splitlines():
            if line.startswith("serve_queue") \
                    or line.startswith("serve_completed"):
                print("  " + line)

        # -- probes ---------------------------------------------------------
        health = json.loads(fetch(base + "/healthz"))
        print()
        print("GET /healthz: status=%s queue=%s rejected=%d"
              % (health["status"], health["queue"], health["rejected"]))
        print("GET /readyz:  %s" % fetch(base + "/readyz").strip())

        # -- the flight recorder over HTTP ----------------------------------
        ring = json.loads(fetch(base + "/debug/requests?limit=5"))
        print()
        print("GET /debug/requests: %d record(s), newest first:" %
              ring["count"])
        for record in ring["records"]:
            print("  %(trace_id)s %(status)-4s cache_hit=%(cache_hit)s "
                  "total=%(total_seconds).4fs" % record)

        # -- one full trace -------------------------------------------------
        trace = json.loads(fetch(base + "/debug/trace/" + cold.trace_id))
        print()
        print("GET /debug/trace/%s:" % cold.trace_id)
        print("  stages: %s" % {
            name: round(seconds, 6)
            for name, seconds in sorted(trace["stages"].items())})
        for span in trace["spans"]:
            print("  span %-22s trace=%s parent=%s"
                  % (span["name"], span["trace_id"],
                     span["parent_id"] or "-"))
        detail = trace.get("detail") or ""
        print("  retained detail (%s): %d chars, starts %r"
              % (trace["detail_reason"], len(detail),
                 detail.splitlines()[0] if detail else ""))

        if args.hold:
            print()
            print("holding for %.1fs — probe %s/healthz yourself"
                  % (args.hold, base))
            time.sleep(args.hold)


if __name__ == "__main__":
    main()
