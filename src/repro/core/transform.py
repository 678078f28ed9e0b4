"""The run-time front door: the paper's ``XMLTransform()``.

``xml_transform(db, source, stylesheet, options=...)`` applies a stylesheet
to every XMLType instance a source produces and reports *how* it did it:

* ``TransformOptions(rewrite=True)``, the default — try the full pipeline (partial evaluation → XQuery →
  SQL/XML merge).  When any stage raises :class:`RewriteError` the call
  falls back to functional evaluation, exactly like the shipping
  implementation the paper describes (unsupported constructs keep working,
  they just don't get the speedup).  The fallback is **not silent**: the
  failure phase (``compile`` vs ``execute``), stage and a categorized
  reason land on the result, in the ``transform.fallback`` counter and in
  a ``repro.obs`` warning.
* ``TransformOptions(rewrite=False)`` — functional evaluation: materialise
  each document as a DOM (from the view or the storage) and run the XSLT VM over it.

Every call runs under an ``xml_transform`` tracing span (see
:mod:`repro.obs`) whose children cover stylesheet compilation, the three
compile stages, and plan execution (profiled per plan node); the span tree,
execution statistics and an EXPLAIN ANALYZE rendering are summarized by
:meth:`TransformResult.report`.

Sources may be an XMLType view :class:`~repro.rdb.plan.Query` /
:class:`~repro.rdb.database.View`, an
:class:`~repro.rdb.storage.ObjectRelationalStorage`, or a
:class:`~repro.rdb.storage.ClobStorage` (never rewritable — no structure).
"""

from __future__ import annotations

import itertools
import logging
import time

from repro.errors import RewriteError
from repro.obs import NULL_SPAN, get_tracer, global_metrics, render_tree
from repro.obs.decisions import DecisionLedger
from repro.rdb.database import View
from repro.rdb.plan import (
    ExecutionStats,
    PlanProfiler,
    Query,
    _fmt_stat,
    explain,
    record_plan_metrics,
)
from repro.rdb.sqlxml import Markup, render_item, row_items
from repro.rdb.storage import ClobStorage, ObjectRelationalStorage
from repro.xmlmodel.builder import TreeBuilder
from repro.xmlmodel.nodes import Node
from repro.xmlmodel.parser import parse_fragment
from repro.xslt.stylesheet import Stylesheet, compile_stylesheet
from repro.xslt.vm import XsltVM
from repro.core.pipeline import XsltRewriter

STRATEGY_SQL = "sql-rewrite"
STRATEGY_FUNCTIONAL = "functional"

#: coalescing target for streamed output chunks, in characters (ASCII
#: output makes characters == bytes, which is what the corpus produces)
DEFAULT_CHUNK_CHARS = 8192

FALLBACK_PHASE_COMPILE = "compile"
FALLBACK_PHASE_EXECUTE = "execute"

_LOG = logging.getLogger("repro.obs")


class TransformResult:
    """Per-row transformation results plus execution metadata."""

    def __init__(self, rows, strategy, stats, outcome=None,
                 fallback_reason=None):
        #: list of rows; each row is a list of items — result nodes and
        #: atomics on the functional strategy, serialized markup strings
        #: (plus any top-level atomics) on the SQL strategy, which never
        #: builds a result DOM
        self.rows = rows
        #: STRATEGY_SQL or STRATEGY_FUNCTIONAL
        self.strategy = strategy
        #: ExecutionStats of the run (view/plan execution + materialisation)
        self.stats = stats
        #: RewriteOutcome when the rewrite succeeded (even if not used)
        self.outcome = outcome
        #: why the rewrite fell back ("<phase>: <message>"), when it did
        self.fallback_reason = fallback_reason
        #: "compile" or "execute" — where the rewrite failed, when it did
        self.fallback_phase = None
        #: coarse category of the failure (the fallback counter key)
        self.fallback_category = None
        #: root Span of this call (None when tracing is disabled)
        self.trace = None
        #: the optimized Query the rewrite executed (STRATEGY_SQL only)
        self.executed_query = None
        #: PlanProfiler with per-node rows/timings, when collected
        self.plan_profile = None
        #: functional-path VM counters (instructions, template dispatches)
        self.vm_stats = None
        #: DecisionLedger of the rewrite attempt (also set on fallback,
        #: holding the decisions made before the failing stage)
        self.ledger = None
        #: PlanFeedback (estimate-vs-actual Q-error) of this execution,
        #: when the plan was profiled and the database has a feedback
        #: controller
        self.feedback = None

    @property
    def trace_id(self):
        """The trace id of this call's span tree (None when tracing is
        disabled) — the key ``/debug/trace/<id>`` looks up."""
        return self.trace.trace_id if self.trace is not None else None

    def __getstate__(self):
        """Results cross process boundaries (the cluster tier returns
        them from worker processes); live spans hold tracer handles and
        the plan profiler keys node profiles by ``id()`` — both are
        process-local, so they are shed rather than serialized."""
        state = dict(self.__dict__)
        state["trace"] = None
        state["plan_profile"] = None
        stats = state.get("stats")
        if stats is not None and getattr(stats, "profiler", None) is not None:
            import copy

            stats = copy.copy(stats)
            stats.profiler = None
            state["stats"] = stats
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def serialized_rows(self, method="xml"):
        """Each row rendered as markup text."""
        rows = self.rows if method == "xml" else map(_reparsed, self.rows)
        return [_render_row(row, method) for row in rows]

    def report(self):
        """Human-readable summary of how this one call ran: strategy,
        fallback (if any), execution statistics, the span tree with
        timings, VM counters, and the per-node EXPLAIN ANALYZE of the
        executed plan."""
        lines = ["strategy: %s" % self.strategy]
        if self.fallback_reason:
            lines.append("fallback: %s" % self.fallback_reason)
            if self.fallback_category:
                lines.append("fallback-category: %s" % self.fallback_category)
        if self.stats is not None:
            lines.append("stats: %s" % ", ".join(
                "%s=%s" % (name, _fmt_stat(value))
                for name, value in self.stats.as_dict().items()
                if value
            ))
        if self.vm_stats:
            lines.append("vm: %s" % ", ".join(
                "%s=%d" % (name, value)
                for name, value in sorted(self.vm_stats.items())
            ))
        if self.trace is not None:
            lines.append("trace:")
            lines.extend("  " + line for line in render_tree(self.trace))
        if self.executed_query is not None and self.plan_profile is not None:
            lines.append("plan (EXPLAIN ANALYZE):")
            rendered = explain(self.executed_query, profile=self.plan_profile)
            lines.extend("  " + line for line in rendered.splitlines())
        if self.feedback is not None and self.feedback.nodes:
            lines.append("plan feedback (Q-error):")
            lines.extend("  " + line for line in self.feedback.render())
        return "\n".join(lines)

    def explain(self, include_decisions=True):
        """This call's :class:`~repro.obs.explain.ExplainReport` — the
        structured EXPLAIN surface: strategy, rewrite-decision ledger
        (rendered as a tree and interleaved into the plan at the ``#n``
        node each XQuery fragment landed in; ``include_decisions=False``
        leaves it out), optimized plan with estimates (and EXPLAIN
        ANALYZE actuals when the plan was profiled), execution stats and
        Q-error feedback, with ``.render()``/``str()`` for the text and
        ``.to_json()`` for the structured form."""
        from repro.obs.explain import ExplainReport

        return ExplainReport(
            query=self.executed_query, ledger=self.ledger,
            profile=self.plan_profile, stats=self.stats,
            feedback=self.feedback, strategy=self.strategy,
            fallback_reason=self.fallback_reason,
            include_decisions=include_decisions,
        )


def _render_row(row, method="xml"):
    """One result row as text: every path that renders rows — SQL or
    functional, materialized or streamed — joins :func:`render_item`."""
    return "".join([render_item(item, method) for item in row])


def _reparsed(row):
    """``row`` with each run of markup items parsed back into nodes:
    markup is xml text, the html and text output methods need the tree."""
    out = []
    for is_markup, run in itertools.groupby(
            row, key=lambda item: type(item) is Markup):
        if is_markup:
            run = parse_fragment("".join(run)).children
        out.extend(run)
    return out


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
      same fallback reason the paper's implementation would).
    """

    __slots__ = ("stylesheet", "strategy", "outcome", "query", "ledger",
                 "error", "options", "feedback")

    def __init__(self, stylesheet, strategy, outcome=None, query=None,
                 ledger=None, error=None, options=None):
        self.stylesheet = stylesheet
        self.strategy = strategy
        self.outcome = outcome
        self.query = query
        self.ledger = ledger
        self.error = error
        self.options = options
        #: latest PlanFeedback recorded for an execution of this artifact
        #: (the serve tier's re-cost predicate reads it)
        self.feedback = None

    @property
    def is_rewritten(self):
        return self.strategy == STRATEGY_SQL

    # -- serialization ----------------------------------------------------------
    #
    # The artifact half of this class (stylesheet, plan, ledger, error,
    # options) is immutable once compiled and pickles cleanly; the
    # ``feedback`` slot is a *runtime* handle — the latest PlanFeedback
    # of an execution in this process — and is dropped on serialization
    # so a plan persisted by one worker carries no other process's
    # execution state (repro.serve.artifact stores these bytes).  The
    # plan's binding (``query.runtime``: slot-resolved closures against
    # one catalog) is the same kind of handle and ``Query`` drops it the
    # same way: every thread executing this artifact shares one binding,
    # and a loaded artifact binds on its first execution.

    def __getstate__(self):
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "feedback"
        }

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


def _compile_impl(db, source, stylesheet, options=None, tracer=None,
                  metrics=None, optimizer_level=None, decorrelate=None):
    """The compile worker behind :meth:`repro.api.Engine.compile`.

    Compiles the stylesheet (when given as markup), runs the three
    rewrite stages, optimizes the merged plan against ``db`` at
    ``optimizer_level`` (None = the planner default) and resolves the
    decision ledger's provenance into the optimized plan.  ``options``
    is a resolved :class:`~repro.core.xquery_gen.RewriteOptions` (or
    None); ``decorrelate`` gates the correlated-subquery unnesting pass
    (None = automatic at the cost level).
    """
    tracer = tracer or get_tracer()
    metrics = metrics or global_metrics()
    if not isinstance(stylesheet, Stylesheet):
        with tracer.span("compile.stylesheet"):
            stylesheet = compile_stylesheet(stylesheet)
    # Created before compiling so that on a failed rewrite the artifact
    # still carries the decisions made before the failure point.
    ledger = DecisionLedger()
    try:
        view_query = _view_query(source)
        rewriter = XsltRewriter(options, tracer=tracer, metrics=metrics,
                                ledger=ledger)
        outcome = rewriter.rewrite_view(stylesheet, view_query)
        with tracer.span("compile.optimize"):
            query = db.optimize(outcome.sql_query, level=optimizer_level,
                                ledger=ledger, decorrelate=decorrelate)
            # re-resolve decision provenance against the *optimized* plan
            # (the one explain() renders and execution profiles)
            ledger.attach_plan(query)
    except RewriteError as exc:
        return CompiledTransform(stylesheet, STRATEGY_FUNCTIONAL,
                                 ledger=ledger, error=exc, options=options)
    return CompiledTransform(stylesheet, STRATEGY_SQL, outcome=outcome,
                             query=query, ledger=ledger, options=options)


def execute_compiled(db, source, compiled, params=None, tracer=None,
                     metrics=None, profile_plan=True, root=None,
                     batch_size=None, feedback=True, deadline=None):
    """Execute one request over a :class:`CompiledTransform`.

    The SQL strategy runs the cached optimized plan; an execute-phase
    :class:`RewriteError` retries functionally with the categorized
    fallback accounting of :func:`xml_transform`.  A compile-time
    fallback artifact replays its recorded error (counter + warning +
    result annotations) and evaluates functionally.  ``root`` is the span
    fallback attributes land on (defaults to the tracer's current span).
    ``batch_size`` is how many rows the plan's operators hand over at
    once (None: ``DEFAULT_BATCH_SIZE``); it never changes the result.
    ``feedback=False`` skips the post-execution Q-error observation.
    ``deadline`` is an absolute ``time.perf_counter()`` instant: plan
    execution past it stops between batches with
    :class:`~repro.errors.DeadlineExceededError` (the serving tier's
    request deadline; None: never).
    """
    tracer = tracer or get_tracer()
    metrics = metrics or global_metrics()
    if root is None:
        root = tracer.current() or NULL_SPAN
    if compiled.is_rewritten and not params:
        try:
            result = _execute_plan(db, compiled, tracer, metrics,
                                   profile_plan, batch_size=batch_size,
                                   feedback=feedback, deadline=deadline)
            metrics.counter("transform.rewrite_success").inc()
        except RewriteError as exc:
            result = _fallback(db, source, compiled.stylesheet, params, exc,
                               tracer, metrics, root)
    elif compiled.error is not None:
        result = _fallback(db, source, compiled.stylesheet, params,
                           compiled.error, tracer, metrics, root)
    else:
        result = _functional(db, source, compiled.stylesheet, params, tracer)
    result.ledger = compiled.ledger
    return result


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


def _note_fallback(exc, metrics, root):
    """The loud part of falling back: categorize the failure, bump the
    fallback counter, warn through the obs logger and annotate the span.
    Returns (phase, category)."""
    phase = getattr(exc, "phase", None) or FALLBACK_PHASE_COMPILE
    stage = getattr(exc, "stage", None)
    category = categorize_fallback(exc)
    metrics.counter("transform.fallback", phase=phase, reason=category).inc()
    _LOG.warning(
        "xml_transform falling back to functional evaluation"
        " (phase=%s, stage=%s, category=%s): %s",
        phase, stage, category, exc,
    )
    root.set_attr(fallback_phase=phase, fallback_category=category,
                  fallback_reason=str(exc))
    return phase, category


def _fallback(db, source, stylesheet, params, exc, tracer, metrics, root):
    """Functional evaluation after a failed rewrite — loudly."""
    phase, category = _note_fallback(exc, metrics, root)
    result = _functional(db, source, stylesheet, params, tracer)
    result.fallback_reason = "%s: %s" % (phase, exc)
    result.fallback_phase = phase
    result.fallback_category = category
    return result


def _view_query(source):
    if isinstance(source, Query):
        return source
    if isinstance(source, View):
        return source.query
    if isinstance(source, ObjectRelationalStorage):
        return source.make_view_query()
    if _is_document_store(source):
        raise RewriteError(
            "%s carries no structural information for the rewrite"
            % type(source).__name__,
            phase=FALLBACK_PHASE_COMPILE, stage="source",
        )
    raise RewriteError(
        "unsupported source %r" % type(source).__name__,
        phase=FALLBACK_PHASE_COMPILE, stage="source",
    )


def _is_document_store(source):
    """Any storage exposing document_ids()/materialize() — CLOB, indexed
    CLOB, tree storage — can feed the functional path."""
    return hasattr(source, "document_ids") and hasattr(source, "materialize")


def _observe_feedback(db, compiled, profiler, metrics):
    """Run the database's Q-error feedback loop over one profiled
    execution; returns the PlanFeedback (or None when unavailable)."""
    if profiler is None:
        return None
    controller = getattr(db, "feedback", None)
    if controller is None:
        return None
    ledger = compiled.ledger
    extra = ledger.bound_plans() if ledger is not None else ()
    record = controller.observe(
        compiled.query, profiler, metrics=metrics, ledger=ledger,
        compiled=compiled, extra_plans=extra,
    )
    compiled.feedback = record
    return record


def _execute_plan(db, compiled, tracer, metrics, profile_plan,
                  batch_size=None, feedback=True, deadline=None):
    """Run the cached optimized plan of a SQL-strategy artifact."""
    query = compiled.query
    with tracer.span("plan.execute") as span:
        stats = ExecutionStats()
        stats.deadline = deadline
        profiler = None
        if profile_plan and tracer.enabled:
            profiler = stats.profiler = PlanProfiler()
        # the front door renders text: no result DOM on the rewrite path
        stats.markup = True
        try:
            rows, stats = query.execute(db, stats=stats,
                                        batch_size=batch_size)
        except RewriteError as exc:
            # A RewriteError escaping *plan execution* is a run-time
            # failure, not a compile failure — tag it so the fallback
            # reason distinguishes the two.
            if getattr(exc, "phase", None) is None:
                exc.phase = FALLBACK_PHASE_EXECUTE
            raise
        span.set_attr(
            output_rows=len(rows),
            rows_scanned=stats.rows_scanned,
            index_probes=stats.index_probes,
            elapsed_ms=round(stats.elapsed_seconds * 1000.0, 3),
        )
    metrics.histogram("plan.execute_seconds").record(stats.elapsed_seconds)
    record_plan_metrics(query, profiler, metrics)
    result_rows = [row_items(row[0]) for row in rows]
    result = TransformResult(result_rows, STRATEGY_SQL, stats,
                             outcome=compiled.outcome)
    result.executed_query = query
    result.plan_profile = profiler
    if feedback:
        result.feedback = _observe_feedback(db, compiled, profiler, metrics)
    return result


def _functional(db, source, stylesheet, params, tracer=None):
    tracer = tracer or get_tracer()
    with tracer.span("functional.execute") as span:
        stats = ExecutionStats()
        vm = XsltVM(stylesheet)
        rows = []
        start = time.perf_counter()
        for document in _materialize_documents(db, source, stats):
            result = vm.transform_document(document, params=params)
            rows.append(list(result.children))
            stats.output_rows += 1
        # total functional wall time (materialisation + VM); view-path
        # query time is a subset of this window, so assign, don't add
        stats.elapsed_seconds = time.perf_counter() - start
        span.set_attr(
            docs_materialized=stats.docs_materialized,
            instructions_executed=vm.instructions_executed,
            templates_dispatched=vm.templates_dispatched,
            elapsed_ms=round(stats.elapsed_seconds * 1000.0, 3),
        )
    result = TransformResult(rows, STRATEGY_FUNCTIONAL, stats)
    result.vm_stats = {
        "instructions_executed": vm.instructions_executed,
        "templates_dispatched": vm.templates_dispatched,
    }
    return result


def _materialize_documents(db, source, stats):
    """Yield each XMLType instance as a full DOM (the no-rewrite cost)."""
    if isinstance(source, ObjectRelationalStorage):
        yield from source.materialize_all(stats=stats)
        return
    if _is_document_store(source):
        for doc_id in source.document_ids():
            yield source.materialize(doc_id, stats=stats)
        return
    view_query = source.query if isinstance(source, View) else source
    rows, _ = view_query.execute(db, stats=stats)
    for row in rows:
        stats.docs_materialized += 1
        yield _wrap_document(row[0])


def _wrap_document(value):
    """Wrap a constructed XML value in a document node (copying — this is
    the materialisation step functional evaluation pays for)."""
    builder = TreeBuilder()
    if isinstance(value, list):
        for item in value:
            builder.copy_node(item)
    elif isinstance(value, Node):
        builder.copy_node(value)
    return builder.finish()


# -- streaming execution ----------------------------------------------------------


class TransformStream:
    """An iterator of serialized output chunks plus execution metadata.

    Produced by :func:`execute_compiled_stream`.  Yields non-empty
    ``str`` chunks whose concatenation is byte-identical to
    ``"".join(result.serialized_rows())`` of the equivalent materialized
    call.  Metadata is *live*: ``stats`` counters grow while chunks are
    consumed and — like ``strategy`` and the fallback fields, which an
    execute-phase fallback may still change before the first chunk — are
    final once the iterator is exhausted.  ``text()`` drains the stream
    and returns the whole output.
    """

    __slots__ = ("compiled", "strategy", "stats", "ledger", "executed_query",
                 "plan_profile", "vm_stats", "fallback_reason",
                 "fallback_phase", "fallback_category", "feedback",
                 "trace_id", "_chunks")

    def __init__(self, compiled):
        self.compiled = compiled
        self.strategy = compiled.strategy
        self.stats = None
        self.ledger = compiled.ledger
        self.executed_query = None
        self.plan_profile = None
        self.vm_stats = None
        self.fallback_reason = None
        self.fallback_phase = None
        self.fallback_category = None
        #: PlanFeedback of this execution, set once the stream is drained
        self.feedback = None
        #: trace id the compile and the drain spans share (set by the
        #: serve tier; None outside it or with tracing disabled)
        self.trace_id = None
        self._chunks = iter(())

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._chunks)

    def text(self):
        """Drain the stream; the full serialized output."""
        return "".join(self)


def execute_compiled_stream(db, source, compiled, params=None, tracer=None,
                            metrics=None, profile_plan=True, root=None,
                            batch_size=None, chunk_chars=None,
                            feedback=True):
    """Streaming twin of :func:`execute_compiled`: returns a
    :class:`TransformStream` yielding serialized output chunks.

    On the SQL strategy the optimized plan runs on the same executor
    as :func:`execute_compiled` (``batch_size`` rows per batch, None:
    ``DEFAULT_BATCH_SIZE``) and its result column streams through the
    incremental SQL/XML emitter — no result
    DOM is ever built (``stats.docs_materialized`` stays 0) and at most
    ``chunk_chars`` characters of output are buffered at once, tracked
    in ``stats.peak_buffered_bytes``.  A :class:`RewriteError` raised
    before the first chunk was emitted falls back to the functional
    strategy with the categorized accounting of :func:`xml_transform`;
    after the first chunk it propagates (output was already sent).  The
    functional strategy streams per transformed document, which still
    materializes each source DOM first.
    """
    tracer = tracer or get_tracer()
    metrics = metrics or global_metrics()
    if root is None:
        root = tracer.current() or NULL_SPAN
    chunk_chars = chunk_chars or DEFAULT_CHUNK_CHARS
    stream = TransformStream(compiled)
    if compiled.is_rewritten and not params:
        chunks = _stream_sql(db, source, compiled, stream, params, tracer,
                             metrics, profile_plan, root, batch_size,
                             chunk_chars, feedback)
    elif compiled.error is not None:
        chunks = _stream_fallback(db, source, compiled.stylesheet, params,
                                  compiled.error, tracer, metrics, root,
                                  stream, chunk_chars)
    else:
        chunks = _stream_functional(db, source, compiled.stylesheet, params,
                                    tracer, stream, chunk_chars)
    stream._chunks = chunks
    return stream


def _coalesce(pieces, stats, chunk_chars):
    """Coalesce small emitter pieces into ~chunk_chars chunks, tracking
    the buffering high-water mark in ``stats.peak_buffered_bytes``."""
    buffer = []
    buffered = 0
    for piece in pieces:
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


def _stream_sql(db, source, compiled, stream, params, tracer, metrics,
                profile_plan, root, batch_size, chunk_chars, feedback=True):
    """Chunk generator for the SQL strategy."""
    stats = ExecutionStats()
    profiler = None
    if profile_plan and tracer.enabled:
        profiler = stats.profiler = PlanProfiler()
    stream.strategy = STRATEGY_SQL
    stream.stats = stats
    stream.executed_query = compiled.query
    stream.plan_profile = profiler
    chunks = _coalesce(
        compiled.query.stream_pieces(db, stats=stats, batch_size=batch_size),
        stats, chunk_chars,
    )
    emitted = False
    try:
        while True:
            start = time.perf_counter()
            try:
                chunk = next(chunks)
            except StopIteration:
                stats.elapsed_seconds += time.perf_counter() - start
                break
            stats.elapsed_seconds += time.perf_counter() - start
            emitted = True
            yield chunk
    except RewriteError as exc:
        if getattr(exc, "phase", None) is None:
            exc.phase = FALLBACK_PHASE_EXECUTE
        if emitted:
            # Output already reached the consumer; a silent strategy
            # switch would corrupt it.  Let the caller handle the error.
            raise
        stream.executed_query = None
        stream.plan_profile = None
        for chunk in _stream_fallback(db, source, compiled.stylesheet,
                                      params, exc, tracer, metrics, root,
                                      stream, chunk_chars):
            yield chunk
        return
    metrics.counter("transform.rewrite_success").inc()
    metrics.histogram("plan.execute_seconds").record(stats.elapsed_seconds)
    record_plan_metrics(compiled.query, profiler, metrics)
    if feedback:
        stream.feedback = _observe_feedback(db, compiled, profiler, metrics)


def _stream_fallback(db, source, stylesheet, params, exc, tracer, metrics,
                     root, stream, chunk_chars):
    """Functional chunk generator after a failed rewrite — loudly."""
    phase, category = _note_fallback(exc, metrics, root)
    stream.fallback_reason = "%s: %s" % (phase, exc)
    stream.fallback_phase = phase
    stream.fallback_category = category
    for chunk in _stream_functional(db, source, stylesheet, params, tracer,
                                    stream, chunk_chars):
        yield chunk


def _stream_functional(db, source, stylesheet, params, tracer, stream,
                       chunk_chars):
    """Chunk generator for functional evaluation: each document is
    materialized and transformed by the VM (that cost is inherent to the
    strategy), but its output serializes straight into chunks instead of
    being kept as rows."""
    stats = ExecutionStats()
    stream.strategy = STRATEGY_FUNCTIONAL
    stream.stats = stats
    vm = XsltVM(stylesheet)

    def pieces():
        start = time.perf_counter()
        for document in _materialize_documents(db, source, stats):
            result = vm.transform_document(document, params=params)
            stats.output_rows += 1
            yield _render_row(result.children)
        stats.elapsed_seconds = time.perf_counter() - start
        stream.vm_stats = {
            "instructions_executed": vm.instructions_executed,
            "templates_dispatched": vm.templates_dispatched,
        }

    return _coalesce(pieces(), stats, chunk_chars)


# -- batch API --------------------------------------------------------------------


def transform_many(db, sources, stylesheet, options=None, params=None,
                   tracer=None, metrics=None):
    """Apply one stylesheet across many sources, compiling once per
    distinct source *shape*.

    ``sources`` is an iterable of sources, or of ``(db, source)`` pairs
    when the documents live in different databases.  The stylesheet is
    compiled once and the rewrite runs once per distinct source
    fingerprint (see :func:`repro.serve.service.source_fingerprint`) —
    N same-shaped documents pay one compile and N plan executions, which
    is what makes this ≥2× faster than N independent
    :func:`xml_transform` calls.  Returns the list of
    :class:`TransformResult`, in input order.
    """
    from repro.api import Engine, TransformOptions

    opts = TransformOptions.coerce(options)
    tracer = tracer or get_tracer()
    metrics = metrics or global_metrics()
    if not isinstance(stylesheet, Stylesheet):
        with tracer.span("compile.stylesheet"):
            stylesheet = compile_stylesheet(stylesheet)
    engine_cache = {}
    compiled_cache = {}
    results = []
    for entry in sources:
        target_db, source = entry if isinstance(entry, tuple) else (db, entry)
        engine = engine_cache.get(id(target_db))
        if engine is None:
            engine = engine_cache[id(target_db)] = Engine(
                target_db, tracer=tracer, metrics=metrics
            )
        rewrite = opts.effective_rewrite()
        with tracer.span("xml_transform", rewrite=rewrite) as root:
            if rewrite and not params:
                key = _source_key(source)
                compiled = compiled_cache.get(key)
                if compiled is None:
                    metrics.counter("transform.rewrite_attempts").inc()
                    compiled = engine.compile(source, stylesheet,
                                              options=opts)
                    compiled_cache[key] = compiled
                result = execute_compiled(
                    target_db, source, compiled, params=params,
                    tracer=tracer, metrics=metrics,
                    profile_plan=opts.profile_plan, root=root,
                    batch_size=opts.batch_size, feedback=opts.feedback,
                )
            else:
                result = _functional(target_db, source, stylesheet, params,
                                     tracer)
            root.set_attr(strategy=result.strategy)
        if root:
            result.trace = root
        results.append(result)
    return results


def _source_key(source):
    """Plan-reuse key for one source: its structural fingerprint when it
    has one (two same-shaped storages share a compiled plan), else a
    per-object token."""
    fingerprint = getattr(source, "fingerprint", None)
    if callable(fingerprint):
        return fingerprint()
    return "anon:%x" % id(source)
