"""The XSLT rewrite pipeline facade.

:class:`XsltRewriter` runs the three stages — partial evaluation, XQuery
generation, SQL/XML merge — and reports what it produced.  This is the
compile-time half of the paper; :mod:`repro.core.transform` is the run-time
front door that chooses between the rewritten plan and functional
evaluation.

Every stage runs inside an observability span
(``compile.partial-eval`` / ``compile.xquery-gen`` / ``compile.sql-merge``,
see :mod:`repro.obs`) carrying per-stage attributes: templates
instantiated/pruned (§3.7), inline mode (§4.4), backward steps removed
(§3.5).  A :class:`~repro.errors.RewriteError` escaping a stage is tagged
with ``phase="compile"`` and the stage name, so the front door can
categorize fallbacks instead of swallowing them silently.
"""

from __future__ import annotations

from repro.errors import ReproError, RewriteError
from repro.obs import get_tracer, global_metrics
from repro.obs.decisions import DecisionLedger
from repro.rdb.infer import infer_view_structure
from repro.xslt.stylesheet import Stylesheet, compile_stylesheet
from repro.core.partial_eval import partially_evaluate
from repro.core.sql_rewrite import SqlRewriter
from repro.core.xquery_gen import RewriteOptions, XQueryGenerator


def _tag(exc, stage):
    """Stamp phase/stage on a RewriteError once (first tagger wins)."""
    if getattr(exc, "phase", None) is None:
        exc.phase = "compile"
    if getattr(exc, "stage", None) is None:
        exc.stage = stage
    return exc


class RewriteOutcome:
    """Everything the rewrite produced for one (stylesheet, view) pair."""

    def __init__(self, stylesheet, partial_evaluation, xquery_module,
                 sql_query=None, structure=None, ledger=None):
        self.stylesheet = stylesheet
        self.partial_evaluation = partial_evaluation
        self.xquery_module = xquery_module
        self.sql_query = sql_query
        self.structure = structure
        #: DecisionLedger with every rewrite decision and its provenance
        self.ledger = ledger

    @property
    def inline_mode(self):
        return not self.xquery_module.functions

    def xquery_text(self):
        from repro.xquery import xquery_to_text

        return xquery_to_text(self.xquery_module)

    def sql_text(self):
        if self.sql_query is None:
            return None
        return self.sql_query.to_sql()


def _resolve_rewrite_options(options):
    """Normalize the rewriter's options: None → defaults, RewriteOptions
    → as-is, and the unified :class:`repro.api.TransformOptions` →
    its ``rewrite_options``."""
    if options is None:
        return RewriteOptions()
    if isinstance(options, RewriteOptions):
        return options
    # imported lazily: repro.api imports repro.core.transform, which
    # imports this module
    from repro.api import TransformOptions

    if isinstance(options, TransformOptions):
        return options.rewrite_options or RewriteOptions()
    raise TypeError(
        "options must be a RewriteOptions, TransformOptions or None, "
        "not %r" % type(options).__name__
    )


class XsltRewriter:
    """Compile-time XSLT rewrite driver."""

    def __init__(self, options=None, tracer=None, metrics=None, ledger=None):
        self.options = _resolve_rewrite_options(options)
        self.tracer = tracer or get_tracer()
        self.metrics = metrics or global_metrics()
        #: DecisionLedger every stage records into.  Callers (the front
        #: door) may pass their own so decisions made before a failing
        #: stage survive onto the fallback result.
        self.ledger = ledger if ledger is not None else DecisionLedger()
        #: the PartialEvaluation of the last rewrite, kept when a later
        #: stage fails (a functional artifact projects from it)
        self.partial_evaluation = None

    def rewrite_to_xquery(self, stylesheet, schema):
        """Stylesheet + structural schema → XQuery module.

        Raises :class:`RewriteError` for unsupported constructs.
        """
        if not isinstance(stylesheet, Stylesheet):
            stylesheet = compile_stylesheet(stylesheet)
        partial = self._partial_eval_stage(stylesheet, schema)
        module = self._xquery_gen_stage(partial)
        return RewriteOutcome(stylesheet, partial, module,
                              ledger=self.ledger)

    def rewrite_view(self, stylesheet, view_query):
        """Stylesheet + XMLType view → XQuery and merged SQL/XML query."""
        with self.tracer.span("compile") as span:
            with self.tracer.span("compile.infer-structure"):
                try:
                    structure = infer_view_structure(view_query)
                except RewriteError as exc:
                    raise _tag(exc, "infer-structure")
            outcome = self.rewrite_to_xquery(stylesheet, structure.schema)
            outcome.sql_query = self._sql_merge_stage(outcome, view_query,
                                                      structure)
            outcome.structure = structure
            # the merge succeeded: number the plan nodes and stamp each
            # decision with the node its XQuery fragment landed in
            self.ledger.attach_plan(outcome.sql_query)
            span.set_attr(inline_mode=outcome.inline_mode,
                          rewrite_decisions=len(self.ledger))
        return outcome

    # -- the three stages, each a span --------------------------------------------

    def _partial_eval_stage(self, compiled, schema):
        with self.tracer.span("compile.partial-eval") as span, \
                self.metrics.histogram("compile.partial_eval_seconds").time():
            try:
                partial = partially_evaluate(compiled, schema,
                                             ledger=self.ledger)
            except RewriteError as exc:
                raise _tag(exc, "partial-eval")
            except ReproError as exc:
                raise _tag(
                    RewriteError("rewrite failed: %s" % exc), "partial-eval"
                ) from exc
            self.partial_evaluation = partial
            span.set_attr(
                templates_total=len(compiled.templates),
                templates_instantiated=len(partial.instantiated_templates),
                templates_pruned=len(partial.pruned_templates()),
                recursive=partial.recursive,
                inline_mode=partial.inline_mode,
            )
        return partial

    def _xquery_gen_stage(self, partial):
        with self.tracer.span("compile.xquery-gen") as span, \
                self.metrics.histogram("compile.xquery_gen_seconds").time():
            try:
                generator = XQueryGenerator(partial, self.options,
                                            ledger=self.ledger)
                module = generator.generate()
            except RewriteError as exc:
                raise _tag(exc, "xquery-gen")
            except ReproError as exc:
                raise _tag(
                    RewriteError("rewrite failed: %s" % exc), "xquery-gen"
                ) from exc
            span.set_attr(
                functions=len(module.functions),
                inline_mode=not module.functions,
                templates_inlined=generator.templates_inlined,
                backward_steps_removed=generator.backward_steps_removed,
            )
        return module

    def _sql_merge_stage(self, outcome, view_query, structure):
        with self.tracer.span("compile.sql-merge") as span, \
                self.metrics.histogram("compile.sql_merge_seconds").time():
            try:
                rewriter = SqlRewriter(view_query, structure,
                                       ledger=self.ledger)
                sql_query = rewriter.rewrite_module(outcome.xquery_module)
            except RewriteError as exc:
                raise _tag(exc, "sql-merge")
            span.set_attr(
                sql_outputs=len(sql_query.outputs),
            )
        return sql_query
