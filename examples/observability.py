#!/usr/bin/env python
"""Observability tour: trace a transform end to end.

Runs the paper's example 1 with a live ``Tracer`` and ``MetricsRegistry``
and prints ``result.report()`` — the span tree over the three compile
stages (partial evaluation -> XQuery generation -> SQL merge) plus plan
execution, with per-stage wall times and paper-relevant attributes
(templates pruned per §3.7/§4.3, backward steps removed per §3.5), and
the EXPLAIN ANALYZE rendering of the executed plan.

Then prints **EXPLAIN REWRITE** — the rewrite-decision ledger with
XSLT -> XQuery -> SQL-plan-node provenance interleaved into the plan —
and a snapshot of the metrics registry.

Then runs a stylesheet the rewrite cannot handle (``xsl:number``) to show
the non-silent fallback: a categorized reason on the result, a warning on
the ``repro.obs`` logger, and a labelled fallback counter.

Finally shows the **Q-error record** every profiled execution produces
(the planner's estimate vs. the actual row count per plan node) and the
fix for estimates made without statistics: a manual ``db.analyze()``,
after which the next compile plans with real numbers.

Run:  python examples/observability.py
"""

import logging
import os
import tempfile

from repro.core import xml_transform
from repro.obs import (
    JsonLinesSink,
    MetricsRegistry,
    Tracer,
    format_qerror,
)

from examples.quickstart import STYLESHEET, build_database, dept_emp_view

UNSUPPORTED_STYLESHEET = """<?xml version="1.0"?><xsl:stylesheet
 version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="emp">
<item><xsl:number value="position()"/></item>
</xsl:template>
</xsl:stylesheet>"""


def main():
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    db = build_database()
    view = dept_emp_view(db)
    tracer = Tracer()
    metrics = MetricsRegistry()

    print("=" * 72)
    print("Traced rewrite: span tree + EXPLAIN ANALYZE")
    print("=" * 72)
    result = xml_transform(db, view, STYLESHEET,
                           tracer=tracer, metrics=metrics)
    print(result.report())

    print()
    print("=" * 72)
    print("EXPLAIN REWRITE: the decision ledger, anchored to plan nodes")
    print("=" * 72)
    print(result.explain().render())
    ledger = result.ledger
    print()
    print("ledger counts: %s" % ledger.counts())
    print("JSON export round-trips: %d decisions, %d bytes"
          % (len(ledger), len(ledger.to_json())))

    print()
    print("=" * 72)
    print("Unsupported stylesheet: categorized, counted fallback")
    print("=" * 72)
    fallback = xml_transform(db, view, UNSUPPORTED_STYLESHEET,
                             tracer=tracer, metrics=metrics)
    print(fallback.report())


    print()
    print("=" * 72)
    print("Metrics snapshot across both transforms")
    print("=" * 72)
    snapshot = metrics.snapshot()
    for key, value in sorted(snapshot["counters"].items()):
        print("  %-60s %s" % (key, value))
    for key, summary in sorted(snapshot["histograms"].items()):
        print("  %-60s count=%d p50=%.6fs max=%.6fs"
              % (key, summary["count"], summary["p50"], summary["max"]))


    print()
    print("Spans can also stream to a sink, e.g. JSON lines:")
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.jsonl")
        sink = JsonLinesSink(path)
        sink_tracer = Tracer(sinks=[sink])
        xml_transform(db, view, STYLESHEET,
                      tracer=sink_tracer, metrics=metrics)
        sink.close()
        with open(path, "r", encoding="utf-8") as handle:
            line_count = sum(1 for _ in handle)
    print("  wrote %d span records to a trace.jsonl" % line_count)

    print()
    print("=" * 72)
    print("Q-error: estimates vs. actuals, and the fix")
    print("=" * 72)
    print("record from the first transform (no statistics yet):")
    for line in result.feedback.render():
        print("  " + line)
    db.analyze()
    analyzed = xml_transform(db, view, STYLESHEET,
                             tracer=tracer, metrics=metrics)
    print("after db.analyze() (stats_version %d), the next compile:"
          % db.stats_version())
    for line in analyzed.feedback.render():
        print("  " + line)
    print("max q %s -> %s, same output: %s" % (
        format_qerror(result.feedback.max_q_error),
        format_qerror(analyzed.feedback.max_q_error),
        analyzed.serialized_rows() == result.serialized_rows()))


if __name__ == "__main__":
    main()
