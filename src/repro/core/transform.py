"""The run-time front door: the paper's ``XMLTransform()``.

``xml_transform(db, source, stylesheet, options=...)`` applies a stylesheet
to every XMLType instance a source produces and reports *how* it did it.

**Compile** (:func:`compile_transform`, once per stylesheet × source
shape) runs the rewrite — partial evaluation → XQuery → SQL/XML merge →
plan optimisation — into a :class:`CompiledTransform`.  A stage raising
:class:`RewriteError` yields a functional-strategy artifact carrying the
categorized error, exactly like the shipping implementation the paper
describes (unsupported constructs keep working, they just don't get the
speedup).

**Execute** is one run behind two doors.  The run is a generator of rows
— one list of :class:`~repro.rdb.sqlxml.Markup` pieces per XMLType
instance, whichever strategy answers — pulled from the optimized plan
(``_plan_rows``, under a ``plan.execute`` span) or from the XSLT VM over
materialised documents (``_vm_rows``, ``functional.execute``), with one
loud functional retry (``_fallback_rows``: failure phase, stage and
categorized reason land on the record, in the ``transform.fallback``
counter and in a ``repro.obs`` warning — never a silent fallback).
:func:`execute_compiled` is ``list(rows)`` behind a
:class:`TransformResult`; :func:`execute_compiled_stream` coalesces the
same rows into the chunks of a :class:`TransformStream`.  All a door
owns is its answer to "has the consumer seen output yet?" when the plan
fails mid-run.  Every view reads through to one :class:`Execution`
record, so ``explain()``, ``report()`` and the flight recorder see the
same thing whichever of the seven doors ran (:class:`repro.api.Engine`'s
four and the serving tier's three all open the run through
``Engine._open``).

Sources may be an XMLType view :class:`~repro.rdb.plan.Query` /
:class:`~repro.rdb.database.View`, an
:class:`~repro.rdb.storage.ObjectRelationalStorage`, or a
:class:`~repro.rdb.storage.ClobStorage` (never rewritable — no structure).
"""

from __future__ import annotations

import logging
import operator
import time

from repro.errors import RewriteError
from repro.obs import NULL_SPAN, get_tracer, global_metrics, render_tree
from repro.obs.decisions import PROJECTION, DecisionLedger
from repro.obs.feedback import PlanFeedback, plan_feedback
from repro.obs.trace import current_trace_id
from repro.rdb.database import View
from repro.rdb.plan import ExecutionStats, PlanProfiler
from repro.rdb.sqlxml import Markup, content_markup, row_items
from repro.rdb.storage import ObjectRelationalStorage
from repro.xmlmodel.builder import MarkupWriter
from repro.xmlmodel.parser import parse_fragment
from repro.xmlmodel.serializer import serialize
from repro.xslt.stylesheet import Stylesheet, compile_stylesheet
from repro.xslt.vm import XsltVM
from repro.core.pipeline import XsltRewriter, _is_document_store
from repro.core.projection import functional_projection, projection_summary

STRATEGY_SQL = "sql-rewrite"
STRATEGY_FUNCTIONAL = "functional"

#: coalescing target for streamed output chunks, in characters (ASCII
#: output makes characters == bytes, which is what the corpus produces)
DEFAULT_CHUNK_CHARS = 8192

FALLBACK_PHASE_COMPILE = "compile"
FALLBACK_PHASE_EXECUTE = "execute"

_LOG = logging.getLogger("repro.obs")


class Execution:
    """The record of one execution — what every view of a run
    (:class:`TransformResult`, :class:`TransformStream`, the serving
    ``ServeResult``) reads through to, and what EXPLAIN, ``report()``
    and the flight recorder are defined over.  On a streamed run it is
    *live*: ``stats`` counters grow while chunks are consumed and — like
    ``strategy`` and the fallback fields, which an execute-phase fallback
    may still change before the first chunk — are final when it ends."""

    __slots__ = ("strategy", "stats", "outcome", "ledger", "fallback_reason",
                 "fallback_phase", "fallback_category", "executed_query",
                 "plan_profile", "vm_stats", "trace", "trace_id", "cache_tier",
                 "queue_wait_seconds", "execute_seconds", "total_seconds",
                 "worker", "stats_version", "_observed", "_feedback")

    def __init__(self, strategy, stats=None, outcome=None, ledger=None):
        #: STRATEGY_SQL or STRATEGY_FUNCTIONAL
        self.strategy = strategy
        #: ExecutionStats of the run (view/plan execution + materialisation)
        self.stats = stats
        #: RewriteOutcome when the rewrite succeeded (even if not used)
        self.outcome = outcome
        #: DecisionLedger of the rewrite attempt (also set on fallback,
        #: holding the decisions made before the failing stage)
        self.ledger = ledger
        #: why the rewrite fell back ("<phase>: <message>"), when it did
        self.fallback_reason = None
        #: "compile" or "execute" — where the rewrite failed, when it did
        self.fallback_phase = None
        #: coarse category of the failure (the fallback counter key)
        self.fallback_category = None
        #: the optimized Query the rewrite executed (STRATEGY_SQL only)
        self.executed_query = None
        #: PlanProfiler with per-node rows (and, on an EXPLAIN ANALYZE,
        #: timings), when collected
        self.plan_profile = None
        #: functional-path VM counters (instructions, template dispatches)
        self.vm_stats = None
        #: ``(observation table, rows, opens)`` of a profiled plan run
        #: that ran to its end — what ``feedback`` is built from
        self._observed = None
        self._feedback = None
        #: root Span of the call (None when tracing is disabled or the
        #: door opens no root span)
        self.trace = None
        #: the trace this execution was opened under (None outside any)
        #: — the key ``FlightRecorder.get`` looks up
        self.trace_id = current_trace_id()
        #: where the plan came from: "l1" (an in-memory cache), "l2"
        #: (the shared disk tier), "miss" (compiled for this request) or
        #: None (the door asked no cache)
        self.cache_tier = None
        #: the door's time on the request, at every door: plan lookup or
        #: compile, then the run to its last row; no queue, no transport
        self.execute_seconds = None
        #: admission to response and the part of it spent queued (the
        #: serving tier's; a one-shot door's total is its root span's),
        #: the serving worker's index, the statistics version run under
        self.queue_wait_seconds = self.total_seconds = None
        self.worker = self.stats_version = None

    @property
    def feedback(self):
        """PlanFeedback (estimate-vs-actual Q-error) of this execution,
        when its plan was profiled and ran to its end (on a stream: once
        drained; a stream closed early has none) — built from the run's
        counts on first read."""
        if self._feedback is None and self._observed is not None:
            self._feedback = plan_feedback(*self._observed)
        return self._feedback

    def __getstate__(self):
        """The wire form a worker process ships back, as plain values:
        the facts and counters (``stats``, the Q-error verdict without
        its nodes), not the plan — ``outcome``, ``ledger`` and
        ``executed_query`` stay where it lives (~14 KB and ~0.9 ms a
        reply otherwise), live spans and the profiler are process-local."""
        stats, feedback = self.stats, self.feedback
        return _wire_values(self) + (
            None if stats is None else _stat_values(stats),
            None if feedback is None else feedback.verdict())

    def __setstate__(self, state):
        self.__init__(None)
        *facts, stats, feedback = state
        for name, value in zip(_WIRE, facts):
            setattr(self, name, value)
        if stats is not None:
            self.stats = ExecutionStats()
            for name, value in zip(ExecutionStats._FIELDS, stats):
                setattr(self.stats, name, value)
        if feedback is not None:
            self._feedback = PlanFeedback.from_verdict(feedback)


#: the plain facts of the wire form (``stats`` and ``feedback`` follow)
_WIRE = ("strategy", "fallback_reason", "fallback_phase", "fallback_category",
         "vm_stats", "trace_id", "cache_tier", "queue_wait_seconds",
         "execute_seconds", "total_seconds", "worker", "stats_version")
_wire_values = operator.attrgetter(*_WIRE)
_stat_values = operator.attrgetter(*ExecutionStats._FIELDS)


class _ExecutionView:
    """What the views of a run share: every :class:`Execution` field as
    a read-through attribute, plus the report and EXPLAIN built on them
    (over a record that crossed a pipe: on what crossed)."""

    __slots__ = ()

    @property
    def cache_hit(self):
        """A cache tier supplied the plan (None: no cache was asked)."""
        tier = self.cache_tier
        return None if tier is None else tier != "miss"

    def report(self):
        """Human-readable summary of how this one call ran: the sections
        of :meth:`explain` without the decision ledger, each rendered
        once, then what only the call knows: fallback category, VM
        counters, the span tree with timings."""
        lines = [self.explain(include_decisions=False).render()]
        if self.fallback_category:
            lines.append("fallback-category: %s" % self.fallback_category)
        if self.ledger is not None:
            lines.extend("projection: %s" % projection_summary(decision)
                         for decision in self.ledger.decisions_of(PROJECTION))
        if self.vm_stats:
            lines.append("vm: %s" % ", ".join(
                "%s=%d" % (name, value)
                for name, value in sorted(self.vm_stats.items())
            ))
        if self.trace is not None:
            lines.append("trace:")
            lines.extend("  " + line for line in render_tree(self.trace))
        return "\n".join(lines)

    def explain(self, include_decisions=True):
        """This call's :class:`~repro.obs.explain.ExplainReport`:
        strategy, rewrite-decision ledger (a tree, interleaved into the
        plan at the ``#n`` node each XQuery fragment landed in;
        ``include_decisions=False`` leaves it out), optimized plan with
        estimates (EXPLAIN ANALYZE actuals when profiled), execution
        stats and the Q-error record; ``.render()``/``str()`` for the
        text, ``.to_json()`` for the structured form."""
        from repro.obs.explain import ExplainReport

        return ExplainReport(
            query=self.executed_query, ledger=self.ledger,
            profile=self.plan_profile, stats=self.stats,
            feedback=self.feedback, strategy=self.strategy,
            fallback_reason=self.fallback_reason,
            include_decisions=include_decisions,
        )


for _field in Execution.__slots__ + ("feedback",):
    setattr(_ExecutionView, _field,
            property(operator.attrgetter("run." + _field)))


class TransformResult(_ExecutionView):
    """The materialised view of a run: its rows, plus the
    :class:`Execution` record (``run``) every metadata attribute —
    ``strategy``, ``stats``, ``ledger``, ``trace_id``, ... — reads from."""

    __slots__ = ("rows", "run")

    def __init__(self, rows, strategy=None, stats=None, run=None):
        #: list of rows; each row is a list of
        #: :class:`~repro.rdb.sqlxml.Markup` pieces on either strategy
        #: and at every door: the plan's constructors render them, the
        #: XSLT VM writes each document's result as markup
        self.rows = rows
        self.run = run if run is not None else Execution(strategy, stats)

    def serialized_rows(self, method="xml"):
        """Each row as one string: its markup for the xml output method;
        html and text need the tree, so the markup is parsed back and
        serialized with ``method``."""
        rows = [content_markup(row) for row in self.rows]
        if method == "xml":
            return rows
        return [serialize(parse_fragment(text), method) for text in rows]


class TransformStream(_ExecutionView):
    """The streamed view of a run: an iterator of serialized output
    chunks plus the live :class:`Execution` record (``run``).

    Produced by :func:`execute_compiled_stream`.  Yields non-empty
    ``str`` chunks whose concatenation is byte-identical to
    ``"".join(result.serialized_rows())`` of the equivalent materialized
    call.  ``text()`` drains the stream and returns the whole output.
    """

    __slots__ = ("run", "chunks")

    def __init__(self, run, chunks):
        self.run = run
        #: the chunk iterator; a door that wraps the drain (to trace or
        #: record it) replaces it
        self.chunks = chunks

    def __iter__(self):
        return self

    def __next__(self):
        return next(self.chunks)

    def text(self):
        """Drain the stream; the full serialized output."""
        return "".join(self)


def categorize_fallback(exc):
    """A coarse, stable category for one rewrite failure — the key the
    ``transform.fallback`` counter is labelled with."""
    message = str(exc).lower()
    stage = getattr(exc, "stage", None)
    if ("no structural information" in message
            or "unsupported source" in message):
        return "no-structure"
    if getattr(exc, "phase", None) == FALLBACK_PHASE_EXECUTE:
        return "execute"
    if stage == "partial-eval" or "partial evaluation" in message:
        return "partial-eval"
    if ("not supported" in message or "cannot" in message
            or "unsupported" in message):
        return "unsupported-construct"
    if stage in ("xquery-gen", "sql-merge", "infer-structure"):
        return stage
    return "other"


class CompiledTransform:
    """The reusable compile-time artifact for one (stylesheet, source).

    Produced by :func:`compile_transform` and executed — any number of
    times, from any thread — by :func:`execute_compiled`.  This is the
    unit the serving layer's plan cache (:mod:`repro.serve`) stores:

    * ``strategy`` — :data:`STRATEGY_SQL` when the rewrite compiled all
      the way to an optimized relational plan, else
      :data:`STRATEGY_FUNCTIONAL`;
    * ``query`` — the *optimized* merged SQL/XML plan (SQL strategy),
      bound to the database's catalog on first execution;
    * ``ledger`` — the :class:`~repro.obs.decisions.DecisionLedger` of
      the compile, preserved verbatim on every cache hit so EXPLAIN
      REWRITE still works for requests that never compiled anything;
    * ``error`` — the categorized :class:`RewriteError` when compilation
      fell back (kept so every execution of this artifact reports the
      same fallback reason the paper's implementation would);
    * ``mask`` — on a functional artifact, the projection mask its
      documents are built with (:mod:`repro.core.projection`; None: the
      whole document).
    """

    __slots__ = ("stylesheet", "strategy", "outcome", "query", "ledger",
                 "error", "mask")

    def __init__(self, stylesheet, strategy, outcome=None, query=None,
                 ledger=None, error=None, mask=None):
        self.stylesheet = stylesheet
        self.strategy = strategy
        self.outcome = outcome
        self.query = query
        self.ledger = ledger
        self.error = error
        self.mask = mask

    @property
    def is_rewritten(self):
        return self.strategy == STRATEGY_SQL

    # -- serialization ----------------------------------------------------------
    #
    # Nothing writes to an artifact once it is compiled, so it pickles
    # whole (repro.serve.artifact stores these bytes).  The plan's
    # binding (``query.runtime``: slot-resolved closures against one
    # catalog) is a runtime handle, and ``Query`` drops it on
    # serialization: every thread executing this artifact shares one
    # binding, and a loaded artifact binds on its first execution.

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name in self.__slots__:
            setattr(self, name, state.get(name))


def compile_transform(db, source, stylesheet, options=None, tracer=None,
                      metrics=None):
    """Run the compile half of ``xml_transform`` once, for reuse.

    Delegates to :meth:`repro.api.Engine.compile` — ``options`` is a
    :class:`repro.api.TransformOptions`, the dict of its fields, or None.
    Never raises :class:`RewriteError`: a failed rewrite returns a
    functional-strategy :class:`CompiledTransform` carrying the error, so
    the failure is categorized once and replayed per execution — negative
    caching for the serving layer.
    """
    from repro.api import Engine

    return Engine(db, tracer=tracer, metrics=metrics).compile(
        source, stylesheet, options=options
    )


def _stylesheet(stylesheet, tracer):
    """``stylesheet`` as a compiled :class:`Stylesheet`: markup compiles
    under a ``compile.stylesheet`` span, a compiled one passes through."""
    if isinstance(stylesheet, Stylesheet):
        return stylesheet
    with tracer.span("compile.stylesheet"):
        return compile_stylesheet(stylesheet)


def _compile_impl(db, source, stylesheet, options, tracer, metrics,
                  reused=True):
    """The compile worker behind :meth:`repro.api.Engine.compile`.

    Compiles the stylesheet (when given as markup) and — unless
    ``options`` (a :class:`repro.api.TransformOptions`, whole) ask for
    the functional strategy, which stops there — runs the three rewrite
    stages, optimizes the merged plan against ``db`` at
    ``options.optimizer_level`` (``decorrelate`` gates the unnesting
    pass ahead of the cost optimizer) and resolves the decision ledger's
    provenance into the optimized plan.  A functional artifact that is
    ``reused`` (not one request's own compile) carries a projection
    mask; a failed rewrite derives it from the partial evaluation it
    already made.
    """
    stylesheet = _stylesheet(stylesheet, tracer)
    # Created before compiling so that on a failed rewrite the artifact
    # still carries the decisions made before the failure point.
    ledger = DecisionLedger()
    if not options.effective_rewrite():
        return CompiledTransform(
            stylesheet, STRATEGY_FUNCTIONAL, ledger=ledger,
            mask=functional_projection(source, stylesheet, ledger, tracer,
                                       reused))
    rewriter = XsltRewriter(tracer=tracer, metrics=metrics, ledger=ledger)
    try:
        outcome = rewriter.rewrite_view(stylesheet, source)
        with tracer.span("compile.optimize"):
            query = db.optimize(outcome.sql_query,
                                level=options.optimizer_level, ledger=ledger,
                                decorrelate=options.decorrelate)
            # re-resolve decision provenance against the *optimized* plan
            # (the one explain() renders and execution profiles)
            ledger.attach_plan(query)
    except RewriteError as exc:
        mask = functional_projection(source, stylesheet, ledger, tracer,
                                     reused,
                                     partial=rewriter.partial_evaluation,
                                     error=exc)
        return CompiledTransform(stylesheet, STRATEGY_FUNCTIONAL,
                                 ledger=ledger, error=exc, mask=mask)
    return CompiledTransform(stylesheet, STRATEGY_SQL, outcome=outcome,
                             query=query, ledger=ledger)


def xml_transform(db, source, stylesheet, options=None, params=None,
                  tracer=None, metrics=None):
    """Apply ``stylesheet`` to every XMLType instance of ``source``.

    The function form of :meth:`repro.api.Engine.transform`, for callers
    with no engine to keep.  ``options`` is a
    :class:`repro.api.TransformOptions` (or the dict of its fields).

    Every call compiles from scratch.  A long-lived process serving many
    calls should go through :class:`repro.serve.TransformService`, which
    caches the :class:`CompiledTransform` produced by
    :func:`compile_transform` and only pays :func:`execute_compiled` per
    request; one stylesheet over many documents should go through
    :func:`transform_many`.
    """
    from repro.api import Engine

    return Engine(db, tracer=tracer, metrics=metrics).transform(
        source, stylesheet, options=options, params=params
    )


def transform_many(db, sources, stylesheet, options=None, params=None,
                   tracer=None, metrics=None):
    """Apply one stylesheet across many sources, compiling once per
    distinct source *shape*: the function form of
    :meth:`repro.api.Engine.transform_many`, which documents it."""
    from repro.api import Engine

    return Engine(db, tracer=tracer, metrics=metrics).transform_many(
        sources, stylesheet, options=options, params=params
    )


def source_fingerprint(source):
    """The plan-reuse key component describing a source's structural
    shape — what the serving tier's plan cache and ``transform_many``
    key compiled plans by.

    Uses the source's own ``fingerprint()`` (storages, views, queries)
    when it has one, so two same-shaped storages share a compiled plan;
    anything else gets a per-object token, which makes
    equal-but-distinct anonymous sources miss rather than alias."""
    fingerprint = getattr(source, "fingerprint", None)
    if callable(fingerprint):
        return fingerprint()
    return "anon:%x" % id(source)


# -- the run ----------------------------------------------------------------------


def _start(db, source, compiled, options, params, tracer, metrics, root,
           deadline, profiler=None):
    """Open one run over ``compiled``: ``(run, rows, retry)``.

    ``run`` is the :class:`Execution` record, ``rows`` the generator of
    markup piece lists — nothing executes until a door pulls it — and
    ``retry(exc)`` the functional row generator a door switches to when
    the plan raised :class:`RewriteError` before the door let any output
    go.  The optimized plan runs only without ``params`` (a plan cannot
    bind them); an artifact whose compile fell back replays its recorded
    error, loudly, on every execution.  A plan runs under ``profiler``
    when one is handed over (EXPLAIN ANALYZE's timed one).
    """
    if options is None:
        from repro.api import TransformOptions

        options = TransformOptions.coerce(None)
    tracer = tracer or get_tracer()
    metrics = metrics or global_metrics()
    run = Execution(compiled.strategy, outcome=compiled.outcome,
                    ledger=compiled.ledger)

    def retry(exc):
        return _fallback_rows(db, source, compiled, params, exc, run, tracer,
                              metrics, root)

    if compiled.is_rewritten and not params:
        rows = _plan_rows(db, compiled, run, tracer, metrics, options,
                          deadline, profiler)
    elif compiled.error is not None:
        rows = retry(compiled.error)
    else:
        rows = _vm_rows(db, source, compiled, params, run, tracer)
    return run, rows, retry


def _plan_rows(db, compiled, run, tracer, metrics, options, deadline,
               profiler=None):
    """One list of markup pieces per output row of the artifact's
    optimized plan, run the way ``options`` says (``batch_size``) and no
    later than the absolute ``deadline``, profiled under ``profiler`` or,
    when none is handed over, exactly when ``tracer`` is enabled.

    A profile costs no wrapper: the loops that already pull the batches
    count each operator's rows, batches and opens into the profiler's
    per-slot arrays; nothing times an operator unless the profiler is
    timed (EXPLAIN ANALYZE), and nothing walks the plan per request.
    The run then reports in one call,
    :meth:`~repro.obs.metrics.MetricsRegistry.plan_run`: the success,
    a ``plan.execute_seconds`` sample, and its counts, which the
    registry folds into ``plan.operator_rows{op}`` and the
    ``planner.qerror*`` instruments when it is read; ``run.feedback``
    is built from the same counts when it is first read.

    A consumer that stops early (a stream closed before it is drained)
    has paid for, and recorded, what it received: the success, the
    elapsed sample and the operator rows of what ran — but its actuals
    are truncated, so it stays out of the Q-error record (no
    ``planner.qerror*`` sample, ``run.feedback`` None).  A run that
    fails records nothing.
    """
    query = compiled.query
    stats = run.stats = ExecutionStats()
    stats.deadline = deadline
    if profiler is None and tracer.enabled:
        profiler = PlanProfiler()
    stats.profiler = run.plan_profile = profiler
    run.executed_query = query
    # a plan.execute span nobody can receive — no open span of this
    # tracer to hold it, no sink to take it — is not built
    span = tracer.span("plan.execute") if tracer.enabled and (
        tracer.sinks or tracer.current() is not None) else NULL_SPAN
    complete = None  # True: ran to its end; False: its consumer stopped
    try:
        with span:
            try:
                for batch in query.execute_batches(
                        db, stats=stats, batch_size=options.batch_size):
                    for row in batch:
                        yield row_items(row[0])
            except RewriteError as exc:
                # A RewriteError escaping *plan execution* is a run-time
                # failure, not a compile failure — tag it so the fallback
                # reason distinguishes the two.
                if getattr(exc, "phase", None) is None:
                    exc.phase = FALLBACK_PHASE_EXECUTE
                raise
            span.set_attr(
                output_rows=stats.output_rows,
                rows_scanned=stats.rows_scanned,
                index_probes=stats.index_probes,
                elapsed_ms=round(stats.elapsed_seconds * 1000.0, 3),
            )
        complete = True
    except GeneratorExit:
        complete = False
        raise
    finally:
        if complete is not None:
            observed = (None, None, None) if profiler is None else (
                profiler.table, tuple(profiler.rows_out),
                tuple(profiler.opens))
            if complete and profiler is not None:
                run._observed = observed
            metrics.plan_run(*observed, stats.elapsed_seconds, complete)


def _vm_rows(db, source, compiled, params, run, tracer):
    """One row per document from functional evaluation: each document
    is materialised as a DOM — only what the artifact's projection mask
    reaches — and transformed by the XSLT VM (that cost is inherent to
    the strategy), which writes the result through a ``MarkupWriter``:
    no result tree, and its text is the row's one ``Markup`` piece."""
    with tracer.span("functional.execute") as span:
        run.strategy = STRATEGY_FUNCTIONAL
        stats = run.stats = ExecutionStats()
        vm = XsltVM(compiled.stylesheet)
        start = time.perf_counter()
        documents = _materialize_documents(db, source, stats, compiled.mask)
        for count, document in enumerate(documents, 1):
            text = vm.transform_document(document, params=params,
                                         output=MarkupWriter())
            # assigned, not added: a view source's own query counted too
            stats.output_rows = count
            yield [Markup(text)] if text else []
        # total functional wall time (materialisation + VM); view-path
        # query time is a subset of this window, so assign, don't add
        stats.elapsed_seconds = time.perf_counter() - start
        run.vm_stats = {
            "instructions_executed": vm.instructions_executed,
            "templates_dispatched": vm.templates_dispatched,
        }
        span.set_attr(
            docs_materialized=stats.docs_materialized,
            elapsed_ms=round(stats.elapsed_seconds * 1000.0, 3),
            **run.vm_stats
        )


def _fallback_rows(db, source, compiled, params, exc, run, tracer, metrics,
                   root):
    """Functional rows after a failed rewrite — loudly, and the only
    place that is: categorize the failure, bump the fallback counter,
    warn through the obs logger, annotate ``root`` (default: the span
    current when the retry starts) and the record."""
    phase = getattr(exc, "phase", None) or FALLBACK_PHASE_COMPILE
    category = categorize_fallback(exc)
    metrics.counter("transform.fallback", phase=phase, reason=category).inc()
    _LOG.warning(
        "xml_transform falling back to functional evaluation"
        " (phase=%s, stage=%s, category=%s): %s",
        phase, getattr(exc, "stage", None), category, exc,
    )
    (root or tracer.current() or NULL_SPAN).set_attr(
        fallback_phase=phase, fallback_category=category,
        fallback_reason=str(exc))
    run.fallback_reason = "%s: %s" % (phase, exc)
    run.fallback_phase = phase
    run.fallback_category = category
    run.executed_query = run.plan_profile = None
    yield from _vm_rows(db, source, compiled, params, run, tracer)


def _materialize_documents(db, source, stats, mask):
    """Yield each XMLType instance as a DOM (the no-rewrite cost):
    object-relational storage builds what ``mask`` reaches, a document
    store the whole document, and a view's rows are parsed from the
    markup its constructors render."""
    if isinstance(source, ObjectRelationalStorage):
        yield from source.materialize_all(stats=stats, mask=mask)
        return
    if _is_document_store(source):
        for doc_id in source.document_ids():
            yield source.materialize(doc_id, stats=stats)
        return
    view_query = source.query if isinstance(source, View) else source
    rows, _ = view_query.execute(db, stats=stats)
    for row in rows:
        stats.docs_materialized += 1
        yield parse_fragment(content_markup(row[0]))


# -- the two doors ----------------------------------------------------------------


def execute_compiled(db, source, compiled, options=None, params=None,
                     tracer=None, metrics=None, root=None, deadline=None,
                     started=None):
    """Execute one request over a :class:`CompiledTransform`; returns a
    :class:`TransformResult`.

    The SQL strategy runs the cached optimized plan; an execute-phase
    :class:`RewriteError` retries functionally with the categorized
    fallback accounting of :func:`xml_transform`, and a compile-time
    fallback artifact replays its recorded error the same way.
    ``options`` is the request's coerced
    :class:`repro.api.TransformOptions` (None: the defaults), handed
    over whole — the run reads ``batch_size`` off it, so no door can
    drop one; the plan is profiled when ``tracer`` is enabled.  ``root`` is the span
    fallback attributes land on (default: the tracer's current span).
    ``deadline`` and ``started`` are absolute ``time.perf_counter()``
    instants: past the first, plan execution stops between batches with
    :class:`~repro.errors.DeadlineExceededError` (None: never);
    ``run.execute_seconds`` counts from the second, when the door's work
    on the request began (None: now).
    """
    started = started or time.perf_counter()
    return _collected(started, *_start(db, source, compiled, options, params,
                                       tracer, metrics, root, deadline))


def _collected(started, run, rows, retry):
    """The :class:`TransformResult` of the run :func:`_start` opened,
    its rows pulled to the last."""
    try:
        rows = list(rows)
    except RewriteError as exc:
        # no row has left this call: drop the plan's, answer functionally
        rows = list(retry(exc))
    run.execute_seconds = time.perf_counter() - started
    return TransformResult(rows, run=run)


def execute_compiled_stream(db, source, compiled, options=None, params=None,
                            tracer=None, metrics=None, root=None,
                            deadline=None, started=None):
    """The streaming door of the run :func:`execute_compiled`
    materialises — same parameters — returning a
    :class:`TransformStream` of serialized output chunks.

    On the SQL strategy the rows arrive a batch at a time from the plan
    already rendered as text — no result DOM (``stats.docs_materialized``
    stays 0) — and the coalescer holds at most ``options.chunk_chars``
    characters at once (``stats.peak_buffered_bytes``).  A
    :class:`RewriteError` before the first chunk falls back functionally
    with the categorized accounting of :func:`xml_transform`; after it,
    it propagates (output was already sent).  The functional strategy
    streams per transformed document, materializing each source DOM.
    """
    started = started or time.perf_counter()
    run, rows, retry = _start(db, source, compiled, options, params, tracer,
                              metrics, root, deadline)
    chunk_chars = getattr(options, "chunk_chars", None) or DEFAULT_CHUNK_CHARS

    def chunks():
        emitted = False
        try:
            for chunk in _coalesce(rows, run, chunk_chars):
                emitted = True
                yield chunk
        except RewriteError as exc:
            if emitted:
                # Output already reached the consumer; a silent strategy
                # switch would corrupt it.  Let the caller handle the error.
                raise
            yield from _coalesce(retry(exc), run, chunk_chars)
        run.execute_seconds = time.perf_counter() - started

    return TransformStream(run, chunks())


def _coalesce(rows, run, chunk_chars):
    """Coalesce the markup pieces of ``rows`` — a row holding an
    aggregated group streams piece by piece — into ~chunk_chars chunks,
    tracking the buffering high-water mark in the run's
    ``stats.peak_buffered_bytes`` (``run.stats`` exists once the first
    row has been pulled)."""
    buffer = []
    buffered = 0
    for row in rows:
        stats = run.stats
        for piece in row:
            if not piece:
                continue
            buffer.append(piece)
            buffered += len(piece)
            if buffered > stats.peak_buffered_bytes:
                stats.peak_buffered_bytes = buffered
            if buffered >= chunk_chars:
                yield "".join(buffer)
                buffer = []
                buffered = 0
    if buffer:
        yield "".join(buffer)
