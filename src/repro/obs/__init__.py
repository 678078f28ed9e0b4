"""Observability for the XSLT→XQuery→SQL pipeline.

Six facilities, threaded through every layer (see README
"Observability" and DESIGN §6, §11, §12):

* **tracing** (:mod:`repro.obs.trace`) — nested spans over the compile
  stages (partial evaluation, XQuery generation, SQL/XML merge), plan
  execution and the functional path, with pluggable sinks;
* **metrics** (:mod:`repro.obs.metrics`) — counters (rewrite attempts,
  categorized fallbacks) and histograms (stage / execution timings);
* **EXPLAIN** (:mod:`repro.obs.explain`) — every ``explain`` method
  (``Engine``, ``Database``, ``Query``, ``TransformResult``,
  ``ServeResult``) returns one :class:`~repro.obs.explain.ExplainReport`:
  the plan tree with estimates and, with ``analyze=True``, per-node row
  counts and self/total times;
* **EXPLAIN REWRITE** (:mod:`repro.obs.decisions`) — a
  :class:`DecisionLedger` recording every rewrite decision (§3.3–3.7,
  §4.3/4.4) with XSLT → XQuery → SQL-plan-node provenance, surfaced by
  the report's rewrite-decisions section and by
  ``XsltRewriter.rewrite_view(...).ledger``;
* **the Q-error record** (:mod:`repro.obs.feedback`) — after every
  profiled execution, per-node/per-plan Q-error (estimate vs. actual
  cardinality) is computed, exported and kept on the result; nothing
  acts on it (``db.analyze()`` is the fix for bad estimates);
* **the flight recorder** (:mod:`repro.obs.recorder`) — a bounded
  ring of recent requests, one :class:`RequestRecord` each, looked up
  by trace id (``TransformService.recorder``).

``repro.core.transform.TransformResult.report()`` assembles tracing,
EXPLAIN and the Q-error record for one ``xml_transform`` call.
"""

from repro.obs.decisions import (
    Decision,
    DecisionLedger,
    Provenance,
)
from repro.obs.feedback import (
    NodeFeedback,
    PlanFeedback,
    format_qerror,
    observe_profile,
    q_error,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_metrics,
    set_metrics,
)
from repro.obs.recorder import (
    DETAIL_SLOW,
    DETAIL_TAIL_SAMPLE,
    FlightRecorder,
    RequestRecord,
    stage_seconds,
)
from repro.obs.trace import (
    NULL_SPAN,
    InMemorySink,
    JsonLinesSink,
    Span,
    TextSink,
    TraceContext,
    Tracer,
    current_trace_context,
    current_trace_id,
    get_tracer,
    new_span_id,
    new_trace_id,
    render_tree,
    set_tracer,
    use_trace_context,
)

__all__ = [
    "Counter",
    "DETAIL_SLOW",
    "DETAIL_TAIL_SAMPLE",
    "Decision",
    "DecisionLedger",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonLinesSink",
    "MetricsRegistry",
    "NULL_SPAN",
    "NodeFeedback",
    "PlanFeedback",
    "Provenance",
    "RequestRecord",
    "Span",
    "TextSink",
    "TraceContext",
    "Tracer",
    "current_trace_context",
    "current_trace_id",
    "format_qerror",
    "get_tracer",
    "global_metrics",
    "new_span_id",
    "new_trace_id",
    "observe_profile",
    "q_error",
    "render_tree",
    "set_metrics",
    "set_tracer",
    "stage_seconds",
    "use_trace_context",
]
