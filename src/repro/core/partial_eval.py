"""Partial evaluation of a stylesheet over structural information (§4).

Phases, exactly as the paper lays them out:

1. compile the stylesheet (done by the caller — the compiled form carries
   the site-stamped instruction tree, the paper's "byte-code along with the
   special trace-instructions");
2. generate the annotated sample document from the structural schema
   (§4.2, :mod:`repro.schema.sample`) — once per source, through its
   :class:`~repro.rdb.infer.CompileContext`;
3. run the XSLT VM over the sample with tracing, *predicates assumed true*
   (selects and patterns are evaluated through their own
   ``without_predicates()`` form) and every conditional branch / candidate
   template explored — the VM's ``explore`` stance;
4. build the template execution graph and classify: inline mode (acyclic)
   vs non-inline mode (recursion), plus the §3.7 instantiated-template set.
"""

from __future__ import annotations

from repro.errors import ReproError, RewriteError
from repro.rdb.infer import CompileContext
from repro.xslt.trace import TraceRecorder
from repro.xslt.vm import XsltVM
from repro.core.graph import build_execution_graph


class PartialEvaluation:
    """Everything downstream stages need."""

    def __init__(self, stylesheet, schema, sample, trace, graph, vm):
        self.stylesheet = stylesheet
        self.schema = schema
        self.sample = sample
        self.trace = trace
        self.graph = graph
        self.vm = vm  # the traced VM (kept for candidate-rule queries)
        self.instantiated_templates = trace.instantiated_templates()
        self.recursive = graph.is_recursive()

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
    with its sample-document evidence.

    ``schema`` is a structural schema, whose sample is generated here, or
    a source's :class:`~repro.rdb.infer.CompileContext`, whose sample
    every partial evaluation against that source shares: the traced run
    only reads it."""
    context = (schema if isinstance(schema, CompileContext)
               else CompileContext(schema=schema))
    sample = context.sample  # SchemaError for recursive schemas
    trace = TraceRecorder()
    vm = XsltVM(stylesheet, trace=trace, explore=True)
    try:
        vm.transform_document(sample.document)
    except ReproError as exc:
        raise RewriteError(
            "partial evaluation failed on the sample document: %s" % exc
        ) from exc
    graph = build_execution_graph(trace, sample)
    result = PartialEvaluation(stylesheet, context.schema, sample, trace,
                               graph, vm)
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
