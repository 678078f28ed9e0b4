"""Partial evaluation of a stylesheet over structural information (§4).

Phases, exactly as the paper lays them out:

1. compile the stylesheet (done by the caller — the compiled form carries
   the site-stamped instruction tree, the paper's "byte-code along with the
   special trace-instructions");
2. generate the annotated sample document from the structural schema
   (§4.2, :mod:`repro.schema.sample`);
3. run the XSLT VM over the sample with tracing, *predicates assumed true*
   (selects and patterns are evaluated with value predicates stripped) and
   every conditional branch / candidate template explored;
4. build the template execution graph and classify: inline mode (acyclic)
   vs non-inline mode (recursion), plus the §3.7 instantiated-template set.
"""

from __future__ import annotations

from repro.errors import ReproError, RewriteError
from repro.schema.sample import generate_sample
from repro.xpath import ast as xp
from repro.xpath.patterns import PathPattern, Pattern, StepPattern
from repro.xslt.trace import TraceRecorder
from repro.xslt.vm import XsltVM
from repro.core.graph import build_execution_graph


class PartialEvaluation:
    """Everything downstream stages need."""

    def __init__(self, stylesheet, schema, sample, trace, graph, vm,
                 stripper=None):
        self.stylesheet = stylesheet
        self.schema = schema
        self.sample = sample
        self.trace = trace
        self.graph = graph
        self.vm = vm  # the traced VM (kept for candidate-rule queries)
        #: per-compilation PredicateStripper (released with this object)
        self.stripper = stripper if stripper is not None else PredicateStripper()
        self.instantiated_templates = trace.instantiated_templates()
        self.recursive = graph.is_recursive()

    @property
    def inline_mode(self):
        """§4.4: inline unless the execution graph contains a recursion."""
        return not self.recursive

    def pruned_templates(self):
        """Templates never instantiated on any conforming document (§3.7)."""
        return [
            template
            for template in self.stylesheet.templates
            if template not in self.instantiated_templates
        ]

    # -- serialization ----------------------------------------------------------

    def __getstate__(self):
        """Drop the traced VM: its bound program is closures (unpicklable)
        and it is only consulted during compilation — a serialized compile
        artifact never re-runs partial evaluation."""
        state = dict(self.__dict__)
        state["vm"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


def partially_evaluate(stylesheet, schema, ledger=None):
    """Run phases 2–4; raises :class:`RewriteError` when the stylesheet
    cannot be partially evaluated (the caller falls back to functional
    evaluation, as the paper's implementation does).  When a
    :class:`~repro.obs.decisions.DecisionLedger` is passed, the §4.3
    instantiated/§3.7 pruned classification of every template is recorded
    with its sample-document evidence."""
    sample = generate_sample(schema)  # SchemaError for recursive schemas
    trace = TraceRecorder()
    stripper = PredicateStripper()
    vm = XsltVM(
        stylesheet,
        trace=trace,
        select_rewriter=stripper.strip_expr,
        pattern_rewriter=stripper.strip_pattern,
        explore=True,
    )
    try:
        vm.transform_document(sample.document)
    except ReproError as exc:
        raise RewriteError(
            "partial evaluation failed on the sample document: %s" % exc
        ) from exc
    graph = build_execution_graph(trace, sample)
    result = PartialEvaluation(stylesheet, schema, sample, trace, graph, vm,
                               stripper=stripper)
    if ledger is not None:
        _record_template_decisions(result, ledger)
    return result


def _record_template_decisions(pe, ledger):
    """Ledger one decision per template: instantiated (§4.3, with the
    sample nodes it fired on as evidence) or pruned (§3.7)."""
    from repro.obs.decisions import TEMPLATE_INSTANTIATED, TEMPLATE_PRUNED

    fired = {}  # id(template) -> [sample node names]
    for event in pe.trace.instantiations:
        names = fired.setdefault(id(event.template), [])
        name = event.node.name
        label = name.lexical if name is not None else event.node.kind
        if label not in names:
            names.append(label)
    for template in pe.stylesheet.templates:
        evidence = fired.get(id(template))
        if template in pe.instantiated_templates:
            ledger.record(
                TEMPLATE_INSTANTIATED, "partial-eval", template.label(),
                "instantiate",
                reason="fired during the traced run over the annotated"
                       " sample document (predicates assumed true)",
                detail={"sample_nodes": evidence or []},
                template=template,
            )
        else:
            ledger.record(
                TEMPLATE_PRUNED, "partial-eval", template.label(), "prune",
                reason="never instantiated on any document conforming to"
                       " the structural schema — produces no code (§3.7)",
                detail={"sample_nodes": []},
                template=template,
            )


# -- predicate stripping (the "assume predicates true" stance, §4.3) ----------


class PredicateStripper:
    """Memoized predicate stripping, scoped to one compilation.

    Each :func:`partially_evaluate` call creates its own instance and
    threads it through the VM and the XQuery generator, so the memo (which
    holds strong references to the original expressions, keyed by object
    identity) is released with the compilation instead of accumulating
    across compiles — a long-lived serving process must not pin every
    stylesheet's expressions forever.  The module-level helpers below keep
    a bounded shared instance for ad-hoc use.
    """

    __slots__ = ("max_entries", "_exprs", "_patterns")

    def __init__(self, max_entries=None):
        self.max_entries = max_entries
        self._exprs = {}
        self._patterns = {}

    def strip_expr(self, expr):
        """A copy of an XPath expression with all step/filter predicates
        removed.  Dropping predicates only ever *adds* selected nodes, so
        the traced dispatch is a superset of any real document's dispatch.
        """
        cached = self._exprs.get(id(expr))
        if cached is not None and cached[0] is expr:
            return cached[1]
        stripped = _strip(expr)
        if self.max_entries and len(self._exprs) >= self.max_entries:
            self._exprs.clear()
        self._exprs[id(expr)] = (expr, stripped)
        return stripped

    def strip_pattern(self, pattern):
        """A pattern (or single alternative) with every step's predicates
        dropped — matching succeeds whenever the structure allows it."""
        cached = self._patterns.get(id(pattern))
        if cached is not None and cached[0] is pattern:
            return cached[1]
        if isinstance(pattern, Pattern):
            stripped = Pattern(
                [self.strip_pattern(alt) for alt in pattern.alternatives],
                pattern.source,
            )
        else:
            stripped = PathPattern(
                [
                    StepPattern(step.axis, step.test, [])
                    for step in pattern.steps
                ],
                list(pattern.connectors),
                pattern.anchored,
                pattern.source,
            )
        if self.max_entries and len(self._patterns) >= self.max_entries:
            self._patterns.clear()
        self._patterns[id(pattern)] = (pattern, stripped)
        return stripped

    def clear(self):
        self._exprs.clear()
        self._patterns.clear()

    def __len__(self):
        return len(self._exprs) + len(self._patterns)


_DEFAULT_STRIPPER = PredicateStripper(max_entries=4096)


def strip_predicates(expr):
    """Module-level convenience over a bounded shared memo — prefer the
    per-compilation :class:`PredicateStripper` carried on
    :class:`PartialEvaluation` inside the pipeline."""
    return _DEFAULT_STRIPPER.strip_expr(expr)


def _strip(expr):
    if isinstance(expr, xp.PathExpr):
        return xp.PathExpr(
            [xp.Step(step.axis, step.test, []) for step in expr.steps],
            start=_strip(expr.start) if expr.start is not None else None,
            absolute=expr.absolute,
        )
    if isinstance(expr, xp.FilterExpr):
        return _strip(expr.primary)
    if isinstance(expr, xp.UnionExpr):
        return xp.UnionExpr([_strip(part) for part in expr.parts])
    if isinstance(expr, xp.BinaryOp):
        return xp.BinaryOp(expr.op, _strip(expr.left), _strip(expr.right))
    if isinstance(expr, xp.FunctionCall):
        return xp.FunctionCall(expr.name, [_strip(arg) for arg in expr.args])
    if isinstance(expr, xp.UnaryMinus):
        return xp.UnaryMinus(_strip(expr.operand))
    return expr  # literals, variables, context item


def strip_pattern_predicates(pattern):
    """Module-level convenience over the bounded shared memo."""
    return _DEFAULT_STRIPPER.strip_pattern(pattern)
