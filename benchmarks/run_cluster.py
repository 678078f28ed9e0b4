#!/usr/bin/env python
"""Cluster benchmark: process-parallel serving vs a single worker.

Usage::

    python benchmarks/run_cluster.py [--cases dbonerow,total] [--sizes 500]
                                     [--workers 4] [--clients 8]
                                     [--duration 3.0] [--cold-variants 3]
                                     [--min-scaling 2.5]
                                     [--out BENCH_cluster.json] [--smoke]

For each xsltmark case the harness soaks a
:class:`repro.serve.TransformService` over **process workers**
(``backend="process"``; sustained closed-loop load, mixed
hit/miss workload — the hot stylesheet plus ``--cold-variants`` distinct
variants that each force a cold compile) at **1 worker** and at
**--workers workers**, and reports the throughput scaling ratio.  That
ratio is the tentpole claim: worker *processes* escape the GIL, so a
CPU-bound workload on a multi-core host scales with workers where the
thread tier cannot.

The scaling gate is **core- and cost-aware**: the full ``--min-scaling``
bar (default 2.5x at 4 workers) applies only when the host actually has
at least ``--workers`` CPUs *and* the case's single-worker service time
is at least ``--cpu-bound-ms`` (dispatch IPC runs in the parent and is
GIL-bound by construction, so sub-millisecond cases measure the pipe,
not the workers).  Core-starved hosts (e.g. a 1-CPU container, where N
processes time-share one core) and IPC-bound cases degrade to
``--min-scaling-starved`` (default 0.5x — "adding workers must not
collapse throughput").  The artifact records ``cpu_count``,
``service_ms``, and both the requested and effective bars so CI on a
real multi-core runner asserts the real ratio on the CPU-bound cases.

Each case also runs three functional checks recorded in the artifact:

* **two_tier_hit** — a plan compiled by worker 0 is a tier-2 (shared
  disk) hit in worker 1;
* **warm_restart** — a brand-new cluster pointed at the same artifact
  directory serves its first repeat request from disk with **zero**
  rewrite attempts in any worker;
* **rows_match** — cluster output is byte-identical to the
  single-process front door.

The ``--out`` artifact (default ``BENCH_cluster.json``) carries a
``seconds`` block per case (``rewrite`` = multi-worker soak latency,
``no-rewrite`` = functional single-thread latency) gated by
``check_regression.py`` against ``benchmarks/baseline.json``, plus a
``cluster`` block with both soak reports and the scaling verdict.
``--smoke`` shrinks everything for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _ROOT)
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.api import TransformOptions
from repro.core.transform import xml_transform
from repro.obs import MetricsRegistry, Tracer
from repro.serve import TransformService, WorkItem, run_soak
from repro.xsltmark.cases import get_case
from repro.xsltmark.runner import prepare_case

DEFAULT_CASES = ("dbonerow", "total")


def summarize(latencies):
    """A histogram-summary-shaped dict (seconds) from raw samples."""
    if not latencies:
        return {"count": 0, "sum": 0.0, "min": None, "max": None,
                "p50": None, "p95": None}
    ordered = sorted(latencies)

    def pct(p):
        rank = max(0, min(len(ordered) - 1,
                          int(round(p / 100.0 * len(ordered))) - 1))
        return ordered[rank]

    return {
        "count": len(ordered),
        "sum": sum(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": pct(50),
        "p95": pct(95),
    }


def cold_variant(stylesheet, index):
    """A semantically identical stylesheet with a distinct content hash
    (trailing whitespace is legal after the document element) — each
    variant is a guaranteed cold compile."""
    return stylesheet + "\n" * (index + 1)


def workload_for(stylesheet, cold_variants):
    """Mixed hit/miss workload: the hot item plus N cold variants,
    hot-weighted so steady state exercises both cache paths."""
    items = [WorkItem("doc", stylesheet, name="hot"),
             WorkItem("doc", stylesheet, name="hot")]
    for index in range(cold_variants):
        items.append(WorkItem("doc", cold_variant(stylesheet, index),
                              name="cold-%d" % index))
    return items


def process_service(db, storage, workers, artifact_dir, **kwargs):
    """A quiet (untraced, unrecorded) service over ``workers`` worker
    processes serving ``storage`` as ``"doc"``."""
    return TransformService(
        db, backend="process", sources={"doc": storage}, workers=workers,
        artifact_dir=artifact_dir, metrics=MetricsRegistry(),
        trace_requests=False, recorder=False, **kwargs
    )


def soak_cluster(db, storage, workload, workers, args, artifact_dir):
    """One sustained soak at ``workers`` processes; returns the report
    and the cluster's merged stats."""
    cluster = process_service(db, storage, workers, artifact_dir,
                              queue_size=max(64, args.clients * 4))
    try:
        report = run_soak(cluster, workload, clients=args.clients,
                          duration_seconds=args.duration)
        stats = cluster.stats()
    finally:
        cluster.close()
    return report, stats


def check_two_tier(db, storage, stylesheet, tmp_dir):
    """worker 0 compiles; worker 1 must hit the shared disk tier."""
    cluster = process_service(db, storage, 2,
                              os.path.join(tmp_dir, "two-tier"))
    try:
        first = cluster.transform_on(0, "doc", stylesheet)
        second = cluster.transform_on(1, "doc", stylesheet)
        return {
            "first_tier": first.cache_tier,
            "second_tier": second.cache_tier,
            "ok": first.cache_tier == "miss" and second.cache_tier == "l2",
        }
    finally:
        cluster.close()


def check_warm_restart(db, storage, stylesheet, tmp_dir):
    """A fresh cluster on a warmed directory must serve from disk with
    zero rewrite attempts in every worker."""
    warm_dir = os.path.join(tmp_dir, "warm")

    def build():
        return process_service(db, storage, 2, warm_dir)

    cluster = build()
    try:
        cold = cluster.transform("doc", stylesheet)
    finally:
        cluster.close()

    restarted = build()
    try:
        warm = restarted.transform("doc", stylesheet)
        merged = restarted.stats()["metrics"]["counters"]
        rows_stable = warm.serialized_rows() == cold.serialized_rows()
        return {
            "warm_tier": warm.cache_tier,
            "disk_hits": merged.get("serve.cache.disk.hits", 0),
            "rewrite_attempts": merged.get("transform.rewrite_attempts", 0),
            "rows_stable": rows_stable,
            "ok": (warm.cache_tier == "l2"
                   and merged.get("serve.cache.disk.hits", 0) >= 1
                   and merged.get("transform.rewrite_attempts", 0) == 0
                   and rows_stable),
        }
    finally:
        restarted.close()


def run_cluster_case(name, size, args, cases_out, core_starved):
    prepared = prepare_case(get_case(name), size)
    db, storage = prepared.db, prepared.storage
    # the cluster protocol ships stylesheet *text* (content-hash keyed)
    stylesheet = prepared.case.stylesheet
    quiet = Tracer(enabled=False)
    scratch = MetricsRegistry()

    expected_rows = xml_transform(
        db, storage, stylesheet, tracer=quiet, metrics=scratch
    ).serialized_rows()

    # functional baseline — the regression gate's calibration clock
    functional = []
    for _ in range(args.functional_repeat):
        start = time.perf_counter()
        xml_transform(db, storage, stylesheet,
                      options=TransformOptions(rewrite=False),
                      tracer=quiet, metrics=scratch)
        functional.append(time.perf_counter() - start)

    workload = workload_for(stylesheet, args.cold_variants)
    tmp_dir = tempfile.mkdtemp(prefix="repro-bench-cluster-")
    try:
        single, _ = soak_cluster(
            db, storage, workload, 1, args,
            os.path.join(tmp_dir, "w1"),
        )
        # The full --min-scaling bar asserts the tentpole claim —
        # worker *processes* escape the GIL — and therefore only
        # applies where worker compute dominates: enough CPUs to host
        # the workers, and per-request service time heavy enough that
        # dispatch IPC (parent-side, GIL-bound by construction) is not
        # the bottleneck.  Everything else gets the no-collapse floor.
        service_ms = (1000.0 / single.throughput_rps
                      if single.throughput_rps else 0.0)
        cpu_bound = service_ms >= args.cpu_bound_ms
        effective_min_scaling = (
            args.min_scaling if cpu_bound and not core_starved
            else args.min_scaling_starved
        )
        # Re-soak once if the ratio misses the bar: a shared host can
        # stall all N workers at once (CPU quota throttling, noisy
        # neighbours), and a transient stall is indistinguishable from
        # a true collapse in a single sample.  A genuine regression
        # fails both attempts.
        retries = 0
        while True:
            multi, multi_stats = soak_cluster(
                db, storage, workload, args.workers, args,
                os.path.join(tmp_dir, "wN-%d" % retries),
            )
            scaling = (multi.throughput_rps / single.throughput_rps
                       if single.throughput_rps else None)
            if (scaling is not None
                    and scaling >= effective_min_scaling) or retries >= 1:
                break
            retries += 1
        two_tier = check_two_tier(db, storage, stylesheet, tmp_dir)
        warm = check_warm_restart(db, storage, stylesheet, tmp_dir)

        sample = process_service(db, storage, 1,
                                 os.path.join(tmp_dir, "verify"))
        try:
            rows_match = sample.transform(
                "doc", stylesheet).serialized_rows() == expected_rows
        finally:
            sample.close()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    checks = {
        "scaling_ok": (scaling is not None
                       and scaling >= effective_min_scaling),
        "two_tier_hit": two_tier["ok"],
        "warm_restart": warm["ok"],
        "rows_match": rows_match,
        "no_errors": single.errors == 0 and multi.errors == 0,
    }
    entry = {
        "seconds": {
            "rewrite": summarize(multi.latencies_seconds),
            "no-rewrite": summarize(functional),
        },
        "cluster": {
            "workers": args.workers,
            "clients": args.clients,
            "duration_seconds": args.duration,
            "cold_variants": args.cold_variants,
            "single_worker": single.as_dict(),
            "multi_worker": multi.as_dict(),
            "scaling": scaling,
            "soak_retries": retries,
            "service_ms": service_ms,
            "cpu_bound": cpu_bound,
            "min_scaling_requested": args.min_scaling,
            "min_scaling_effective": effective_min_scaling,
            "tier1": multi_stats["tier1"],
            "tier2": multi_stats["tier2"],
            "two_tier": two_tier,
            "warm_restart": warm,
        },
        "checks": checks,
    }
    cases_out["cluster/%s/%d" % (name, size)] = entry
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", default=",".join(DEFAULT_CASES))
    parser.add_argument("--sizes", default="500")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duration", type=float, default=3.0,
                        help="soak duration per configuration, seconds")
    parser.add_argument("--cold-variants", type=int, default=3,
                        help="distinct cold stylesheets mixed into the "
                             "workload")
    parser.add_argument("--functional-repeat", type=int, default=5)
    parser.add_argument("--min-scaling", type=float, default=2.5,
                        help="required multi/single throughput ratio on "
                             "hosts with >= --workers CPUs")
    parser.add_argument("--min-scaling-starved", type=float, default=0.5,
                        help="degraded bar when the host has fewer CPUs "
                             "than workers (no-collapse check)")
    parser.add_argument("--cpu-bound-ms", type=float, default=1.5,
                        help="single-worker service time (ms/request) "
                             "above which a case counts as CPU-bound "
                             "and must meet the full --min-scaling bar")
    parser.add_argument("--out", default="BENCH_cluster.json")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal parameters for CI")
    args = parser.parse_args(argv)
    if args.smoke:
        args.cases = "dbonerow"
        args.sizes = "300"
        args.workers = min(args.workers, 2)
        args.clients = min(args.clients, 4)
        args.duration = min(args.duration, 1.0)
        args.cold_variants = min(args.cold_variants, 2)
        args.functional_repeat = min(args.functional_repeat, 3)

    cpu_count = os.cpu_count() or 1
    core_starved = cpu_count < args.workers
    names = [name for name in args.cases.split(",") if name]
    sizes = [int(size) for size in args.sizes.split(",") if size]
    cases = {}
    print("Cluster benchmark: %d workers vs 1, %d client(s), %.1fs soak, "
          "%d CPU(s)%s"
          % (args.workers, args.clients, args.duration, cpu_count,
             " [core-starved: scaling bar degraded to %.2fx]"
             % args.min_scaling_starved if core_starved else ""))
    print("%-20s %-10s %-10s %-9s %-8s %-8s"
          % ("case", "1w-rps", "%dw-rps" % args.workers, "scaling",
             "p99-ms", "checks"))
    failures = []
    for name in names:
        for size in sizes:
            entry = run_cluster_case(name, size, args, cases, core_starved)
            cluster = entry["cluster"]
            checks = entry["checks"]
            ok = all(checks.values())
            if not ok:
                failed = {key: value for key, value in checks.items()
                          if not value}
                failures.append("cluster/%s/%d: %s" % (name, size, failed))
            print("%-20s %-10.1f %-10.1f %-9.2f %-8.2f %-8s" % (
                "%s/%d" % (name, size),
                cluster["single_worker"]["throughput_rps"],
                cluster["multi_worker"]["throughput_rps"],
                cluster["scaling"] or 0.0,
                cluster["multi_worker"]["latency_ms"]["p99"] or 0.0,
                "ok" if ok else "FAIL",
            ))

    artifact = {
        "benchmark": "run_cluster",
        "config": {
            "workers": args.workers,
            "clients": args.clients,
            "duration_seconds": args.duration,
            "cold_variants": args.cold_variants,
            "functional_repeat": args.functional_repeat,
            "min_scaling": args.min_scaling,
            "min_scaling_starved": args.min_scaling_starved,
            "cpu_bound_ms": args.cpu_bound_ms,
            "cpu_count": cpu_count,
            "core_starved": core_starved,
        },
        "cases": cases,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s (%d case(s))" % (args.out, len(cases)))
    if failures:
        print("verification FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
