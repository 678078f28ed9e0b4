#!/usr/bin/env python
"""Adaptive-feedback benchmark: the Q-error loop, drift to recovery.

Usage::

    python benchmarks/run_feedback.py [--scales 40,160] [--repeat 3]
                                      [--out BENCH_feedback.json] [--smoke]

Two case families over a scaled version of the paper's dept/emp example
(each scale = number of ``dept`` documents, each with a skewed salary
distribution so the ``sal > 2000`` probe has a non-default
selectivity):

* **loop** — the acceptance scenario end to end, on the plan the engine
  serves by default.  Since decorrelation that is one grouped
  ``HashLeftJoin`` — the per-department correlated probe whose
  defaulted ``$parent`` selectivity used to drift by 10-40x is gone —
  so the statistic that drifts is the group count: without ANALYZE the
  planner takes "a tenth of the input" for ``GROUP BY $parent``, and
  with many small departments (four employees each, exactly one above
  the threshold) that is 7.5x too few at every scale; ANALYZE learns
  the key's distinct count and the estimate lands.  The *drifted* side
  (``no-rewrite``) times the transform against the plan the cost
  planner picks from default selectivities (no statistics); the
  *recovered* side (``rewrite``) times it after one pass of the
  feedback loop — the policy observed a Q-error above threshold,
  auto-ANALYZEd the offending tables and the serve tier evicted the
  distrusted compiled plan (``reason=recost``).  Checks: the drifted
  Q-error really exceeded the threshold, the recovered one really
  dropped below it, the eviction happened, and both plans return
  identical rows.
* **overhead** — what observation costs when nothing is wrong:
  the same transform on an analyzed database with feedback on
  (``rewrite``) vs. ``TransformOptions(feedback=False)``
  (``no-rewrite``).  Check: Q-error histograms were really recorded on
  the observed side.

The ``--out`` artifact (default ``BENCH_feedback.json``) follows the
``BENCH_obs.json`` shape — ``feedback/<case>/<scale>`` entries whose
``seconds`` blocks feed ``check_regression.py`` — plus a ``feedback``
block with the observed Q-errors and actions.  ``--smoke`` shrinks
everything for CI.
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
from repro.obs import FeedbackPolicy, MetricsRegistry
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve import TransformService
from repro.serve.cache import EVICT_RECOST
from repro.xmlmodel import parse_document

from tests.core.paper_example import DEPT_DTD, EXAMPLE1_STYLESHEET

DEFAULT_SCALES = (40, 160)
THRESHOLD = 4.0  # the policy both families are judged against


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


#: employees per department in the loop family: small groups, so the
#: unanalyzed group-count default is off by more than THRESHOLD
LOOP_EMPS_PER_DEPT = 4


def dept_doc(index, emps_per_dept):
    """One scaled dept document; exactly one employee per department —
    1 in ``emps_per_dept`` — beats sal > 2000."""
    emps = []
    for e in range(emps_per_dept):
        empno = index * 1000 + e
        sal = (2500 if (index + e) % emps_per_dept == 0
               else 900 + (e % 7) * 100)
        emps.append("<emp><empno>%d</empno><ename>E%d</ename>"
                    "<sal>%d</sal></emp>" % (empno, empno, sal))
    return ("<dept><dname>D%d</dname><loc>L%d</loc><employees>%s"
            "</employees></dept>" % (index, index % 5, "".join(emps)))


def make_storage(scale, emps_per_dept=8):
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    for index in range(scale):
        storage.load(parse_document(dept_doc(index, emps_per_dept)))
    return db, storage


def timed_transform(engine, storage, repeat, feedback):
    options = TransformOptions(feedback=feedback)
    samples, result = [], None
    for _ in range(repeat):
        start = time.perf_counter()
        result = engine.transform(storage, EXAMPLE1_STYLESHEET,
                                  options=options)
        samples.append(time.perf_counter() - start)
    return samples, result


def run_loop(scale, repeat):
    """Drift -> trigger -> recover; time both sides of the loop."""
    db, storage = make_storage(scale, LOOP_EMPS_PER_DEPT)
    engine = Engine(db, metrics=MetricsRegistry())

    # drifted: the default-statistics plan (observe-only, no actions)
    drift_seconds, drift_result = timed_transform(
        engine, storage, repeat, feedback=True)
    q_before = (drift_result.feedback.max_q_error
                if drift_result.feedback else None)

    # one pass of the loop through the serve tier
    metrics = MetricsRegistry()
    policy = FeedbackPolicy(node_threshold=THRESHOLD,
                            plan_threshold=THRESHOLD,
                            consecutive_misses=1)
    with TransformService(db, workers=1, metrics=metrics,
                          feedback_policy=policy) as service:
        triggered = service.transform(storage, EXAMPLE1_STYLESHEET)
        feedback = triggered.transform.feedback
        recost_evictions = service.cache.stats().evictions.get(
            EVICT_RECOST, 0)

    # recovered: statistics are in place, the replan is trusted
    recovered_seconds, recovered_result = timed_transform(
        engine, storage, repeat, feedback=True)
    q_after = (recovered_result.feedback.max_q_error
               if recovered_result.feedback else None)

    entry = {
        "seconds": {
            "rewrite": summarize(recovered_seconds),
            "no-rewrite": summarize(drift_seconds),
        },
        "feedback": {
            "q_before": q_before,
            "q_after": q_after,
            "actions": list(feedback.actions) if feedback else [],
            "recost_evictions": recost_evictions,
            "stats_version": db.stats_version(),
        },
        "checks": {
            "drift_detected": bool(q_before and q_before >= THRESHOLD),
            "loop_triggered": bool(feedback and feedback.triggered),
            "recost_evicted": recost_evictions >= 1,
            "recovered": bool(q_after and q_after < THRESHOLD),
            "rows_match": (drift_result.serialized_rows()
                           == recovered_result.serialized_rows()),
        },
    }
    return entry, q_before, q_after


def run_overhead(scale, repeat):
    """Observation cost on a healthy, analyzed database."""
    db, storage = make_storage(scale)
    db.analyze()
    metrics = MetricsRegistry()
    engine = Engine(db, metrics=metrics)
    off_seconds, off_result = timed_transform(
        engine, storage, repeat, feedback=False)
    on_seconds, on_result = timed_transform(
        engine, storage, repeat, feedback=True)
    qerror_samples = sum(
        histogram.count for histogram in metrics.histograms("planner.qerror")
    )
    entry = {
        "seconds": {
            "rewrite": summarize(on_seconds),
            "no-rewrite": summarize(off_seconds),
        },
        "feedback": {
            "qerror_samples": qerror_samples,
            "max_q_error": (on_result.feedback.max_q_error
                            if on_result.feedback else None),
        },
        "checks": {
            "qerror_recorded": qerror_samples > 0,
            "off_side_unobserved": off_result.feedback is None,
            "rows_match": (on_result.serialized_rows()
                           == off_result.serialized_rows()),
        },
    }
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", default=",".join(
        str(scale) for scale in DEFAULT_SCALES))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", default="BENCH_feedback.json")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal parameters for CI")
    args = parser.parse_args(argv)
    if args.smoke:
        args.scales = "20"
        args.repeat = 1

    scales = [int(scale) for scale in args.scales.split(",") if scale]
    cases = {}
    failures = []
    print("Feedback benchmark: scales %s, repeat %d, threshold %.1f"
          % (scales, args.repeat, THRESHOLD))
    print("%-24s %-12s %-12s %s"
          % ("case", "drift-p50", "recover-p50", "checks"))

    def report(key, entry, note=""):
        cases[key] = entry
        ok = all(entry["checks"].values())
        if not ok:
            failures.append("%s: %s" % (key, entry["checks"]))
        print("%-24s %-12.4f %-12.4f %s %s" % (
            key,
            entry["seconds"]["no-rewrite"]["p50"],
            entry["seconds"]["rewrite"]["p50"],
            "ok" if ok else "FAIL",
            note,
        ))

    for scale in scales:
        entry, q_before, q_after = run_loop(scale, args.repeat)
        report("feedback/loop/%d" % scale, entry,
               "q %.2f -> %.2f" % (q_before or 0.0, q_after or 0.0))
        entry = run_overhead(scale, args.repeat)
        report("feedback/overhead/%d" % scale, entry)

    artifact = {
        "benchmark": "run_feedback",
        "config": {
            "scales": scales,
            "repeat": args.repeat,
            "threshold": THRESHOLD,
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
