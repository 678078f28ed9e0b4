#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is what ``bench/run.py --out FILE`` wrote.  A is the base (the
parent commit, or the first set of the same commit), B the candidate; the
i-th file of each side forms a pair.  One row is printed per (workload,
end-to-end metric): both medians with their quartiles, the ratio B/A with
its base, the spread of each side (inter-quartile distance over the
median), and a verdict:

``improved``    there are at least ten pairs, B wins at least nine tenths of
                them (ties count for neither) and the medians lie further
                apart than A's own inter-quartile distance;
``regressed``   B's median is worse than A's by more than the metric's
                bound in ``BENCHMARK.json``;
``unresolved``  neither, but a side's spread exceeds the bound, so
                "unchanged" cannot be told from "changed";
``within``      neither, and the spread is inside the bound.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: fewer pairs than this cannot carry a claim of a gain
MIN_PAIRS = 10


def quartiles(values):
    """(first quartile, median, third quartile); a single run has no
    spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, middle, third = statistics.quantiles(values, n=4)
    return first, middle, third


def readings(paths):
    """``{(workload, metric): [value per file]}`` of the end-to-end
    metrics."""
    series = {}
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        for workload, entry in report["workloads"].items():
            for metric, reading in entry["end_to_end"]["metrics"].items():
                series.setdefault((workload, metric), []).append(
                    reading["value"])
    return series


def verdict(base, candidate, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    cand_q1, cand_median, cand_q3 = quartiles(candidate)
    pairs = list(zip(base, candidate))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gain = sign * (cand_median - base_median)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and gain > base_q3 - base_q1):
        return "improved"
    if -gain > bound * base_median:
        return "regressed"
    if max((base_q3 - base_q1) / base_median,
           (cand_q3 - cand_q1) / cand_median) > bound:
        return "unresolved"
    return "within"


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    base, candidate = readings(argv[:split]), readings(argv[split + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        definitions = {metric["name"]: metric
                       for metric in json.load(handle)["end_to_end"]}
    print("%-15s %-17s %32s %32s %16s %7s %7s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "B/A (A =)", "A iqr", "B iqr", "verdict"))
    regressed = False
    for key in sorted(base):
        if key not in candidate:
            continue
        workload, metric = key
        definition = definitions[metric]
        a_q1, a_median, a_q3 = quartiles(base[key])
        b_q1, b_median, b_q3 = quartiles(candidate[key])
        outcome = verdict(base[key], candidate[key], definition["better"],
                          definition["bound"])
        regressed = regressed or outcome == "regressed"
        print("%-15s %-17s %10.5g [%8.5g, %8.5g] %10.5g [%8.5g, %8.5g] "
              "%6.3f (%7.5g) %6.1f%% %6.1f%%  %s" % (
                  workload, metric, a_median, a_q1, a_q3, b_median, b_q1,
                  b_q3, b_median / a_median, a_median,
                  100.0 * (a_q3 - a_q1) / a_median,
                  100.0 * (b_q3 - b_q1) / b_median, outcome))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
