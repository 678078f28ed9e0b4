#!/usr/bin/env python
"""Streaming benchmark: batched execution + incremental emission vs the
materialized front door, plus ``transform_many`` plan amortization.

Usage::

    python benchmarks/run_stream.py [--cases dbonerow,chart,total]
                                    [--sizes 500] [--repeat 5]
                                    [--many-docs 100] [--many-size 30]
                                    [--out BENCH_stream.json] [--smoke]

For each xsltmark case the harness measures:

* **stream** — ``Engine.transform_stream`` drained to exhaustion: the
  plan's result column goes through the incremental SQL/XML emitter,
  so no result DOM is built;
* **materialized** — ``Engine.transform``, the same plan on the same
  executor, collected into a result set;
* **functional** — ``rewrite=False``, the calibration clock
  ``benchmarks/check_regression.py`` uses.

Each case also verifies (and records in the artifact) that chunk
concatenation is byte-identical to the materialized output, that the
SQL strategy materialized no documents, and that peak chunk buffering
stayed under a quarter of the serialized output.

A separate ``stream/many/<docs>`` entry times ``transform_many`` over
``--many-docs`` same-shaped single-document databases against the same
count of independent ``xml_transform`` calls — the compiled plan is
amortized across the batch, which must come out >= 2x faster.

The ``--out`` artifact (default ``BENCH_stream.json``) carries a
``seconds`` block per entry (``rewrite`` = streaming / batched times,
``no-rewrite`` = the calibration clock) shaped for
``check_regression.py`` gating against ``benchmarks/baseline.json``.
``--smoke`` shrinks everything for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _ROOT)
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.api import Engine, TransformOptions
from repro.core import STRATEGY_SQL
from repro.obs import MetricsRegistry, Tracer
from repro.xsltmark.cases import get_case
from repro.xsltmark.runner import prepare_case

from benchmarks.run_serve import summarize, timed_loop

DEFAULT_CASES = ("dbonerow", "chart", "total")
FUNCTIONAL_OPTS = TransformOptions(rewrite=False, profile_plan=False)


def quiet_engine(db):
    return Engine(db, tracer=Tracer(enabled=False),
                  metrics=MetricsRegistry())


def run_stream_case(name, size, args, cases_out):
    prepared = prepare_case(get_case(name), size)
    engine = quiet_engine(prepared.db)
    storage, stylesheet = prepared.storage, prepared.stylesheet
    compiled = engine.compile(storage, stylesheet)

    materialized = engine.transform(storage, stylesheet)
    expected = "".join(materialized.serialized_rows())

    # coalesce at ~1/8 of the output (clamped) so the buffering bound
    # below stays meaningful even on small cases
    chunk_chars = max(512, min(2048, len(expected) // 8 or 512))
    stream_opts = TransformOptions(chunk_chars=chunk_chars)

    stream_samples = timed_loop(
        lambda: engine.transform_stream(storage, stylesheet,
                                        options=stream_opts).text(),
        args.repeat,
    )
    materialized_samples = timed_loop(
        lambda: engine.transform(storage, stylesheet),
        args.repeat,
    )
    functional_samples = timed_loop(
        lambda: engine.transform(storage, stylesheet,
                                 options=FUNCTIONAL_OPTS),
        args.repeat,
    )

    # one verified pass collecting the streaming counters
    stream = engine.transform_stream(storage, stylesheet,
                                     options=stream_opts)
    text = stream.text()
    stats = stream.stats
    is_sql = stream.strategy == STRATEGY_SQL
    checks = {
        "byte_identical": text == expected,
        "no_docs_materialized": (not is_sql)
        or stats.docs_materialized == 0,
        "bounded_buffering": (not is_sql) or len(expected) < 4096
        or stats.peak_buffered_bytes < len(expected) / 4.0,
    }
    stream_summary = summarize(stream_samples)
    best = stream_summary["min"] or 0.0
    entry = {
        "seconds": {
            "rewrite": stream_summary,
            "no-rewrite": summarize(functional_samples),
        },
        "stream": {
            "strategy": stream.strategy,
            "compiled_strategy": compiled.strategy,
            "chunk_chars": chunk_chars,
            "output_chars": len(text),
            "throughput_chars_per_s": (len(text) / best) if best else None,
            "peak_buffered_bytes": stats.peak_buffered_bytes,
            "batches": stats.batches,
            "output_rows": stats.output_rows,
            "docs_materialized": stats.docs_materialized,
            "materialized_seconds": summarize(materialized_samples),
        },
        "checks": checks,
    }
    cases_out["stream/%s/%d" % (name, size)] = entry
    return entry


def run_many(args, cases_out):
    """transform_many over N same-shaped databases vs N independent
    xml_transform calls (each paying its own compile)."""
    case = get_case(args.many_case)
    prepared_docs = [prepare_case(case, args.many_size)
                     for _ in range(args.many_docs)]
    pairs = [(prepared.db, prepared.storage) for prepared in prepared_docs]
    engine = quiet_engine(pairs[0][0])

    start = time.perf_counter()
    batched = engine.transform_many(pairs, prepared_docs[0].stylesheet)
    many_seconds = time.perf_counter() - start

    independent_samples = []
    independent_outputs = []
    for prepared in prepared_docs:
        doc_engine = quiet_engine(prepared.db)
        start = time.perf_counter()
        result = doc_engine.transform(prepared.storage, prepared.stylesheet)
        independent_samples.append(time.perf_counter() - start)
        independent_outputs.append(result.serialized_rows())

    independent_seconds = sum(independent_samples)
    speedup = (independent_seconds / many_seconds) if many_seconds else 0.0
    checks = {
        "outputs_identical": [r.serialized_rows() for r in batched]
        == independent_outputs,
        "amortization_2x": speedup >= 2.0,
    }
    per_doc_many = many_seconds / len(pairs)
    entry = {
        "seconds": {
            # per-document latency so the regression gate compares
            # like-for-like with the calibration clock
            "rewrite": {"count": len(pairs), "sum": many_seconds,
                        "min": per_doc_many, "max": per_doc_many,
                        "p50": per_doc_many, "p95": per_doc_many},
            "no-rewrite": summarize(independent_samples),
        },
        "many": {
            "case": args.many_case,
            "docs": args.many_docs,
            "doc_rows": args.many_size,
            "transform_many_seconds": many_seconds,
            "independent_seconds": independent_seconds,
            "speedup": speedup,
        },
        "checks": checks,
    }
    cases_out["stream/many/%d" % args.many_docs] = entry
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", default=",".join(DEFAULT_CASES))
    parser.add_argument("--sizes", default="500")
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--many-case", default="total")
    parser.add_argument("--many-docs", type=int, default=100)
    parser.add_argument("--many-size", type=int, default=30)
    parser.add_argument("--out", default="BENCH_stream.json")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal parameters for CI")
    args = parser.parse_args(argv)
    if args.smoke:
        args.cases = "chart"
        args.sizes = "300"
        args.repeat = min(args.repeat, 3)
        args.many_docs = min(args.many_docs, 25)
        args.many_size = min(args.many_size, 30)

    names = [name for name in args.cases.split(",") if name]
    sizes = [int(size) for size in args.sizes.split(",") if size]
    cases = {}
    failures = []
    print("Streaming benchmark: repeat=%d" % args.repeat)
    print("%-20s %-10s %-12s %-10s %-8s %-8s"
          % ("case", "stream-ms", "chars/s", "peak-buf", "batches",
             "checks"))
    for name in names:
        for size in sizes:
            entry = run_stream_case(name, size, args, cases)
            stream = entry["stream"]
            checks = entry["checks"]
            ok = all(checks.values())
            if not ok:
                failures.append("stream/%s/%d: %s" % (name, size, checks))
            print("%-20s %-10.3f %-12.0f %-10d %-8d %-8s" % (
                "%s/%d" % (name, size),
                (entry["seconds"]["rewrite"]["min"] or 0.0) * 1000.0,
                stream["throughput_chars_per_s"] or 0.0,
                stream["peak_buffered_bytes"],
                stream["batches"],
                "ok" if ok else "FAIL",
            ))

    entry = run_many(args, cases)
    many = entry["many"]
    ok = all(entry["checks"].values())
    if not ok:
        failures.append("stream/many/%d: %s"
                        % (args.many_docs, entry["checks"]))
    print("transform_many: %d docs in %.3fs vs %.3fs independent "
          "(%.1fx) %s" % (
              many["docs"], many["transform_many_seconds"],
              many["independent_seconds"], many["speedup"],
              "ok" if ok else "FAIL",
          ))

    artifact = {
        "benchmark": "run_stream",
        "config": {
            "repeat": args.repeat,
            "many_case": args.many_case,
            "many_docs": args.many_docs,
            "many_size": args.many_size,
            "cpu_count": os.cpu_count(),
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
