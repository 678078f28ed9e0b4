"""EXPLAIN REWRITE: the rewrite-decision provenance ledger.

The paper's contribution is a *chain of decisions* — which template to
inline (§3.3), FOR vs LET per model-group cardinality (§3.4), which
backward parent-axis tests to drop (§3.5), when a subtree compacts to
``string-join(//text())`` (§3.6), which templates prune away entirely
(§3.7) — yet the compiled SQL shows none of them.  A
:class:`DecisionLedger` records every one of those decisions as a
structured :class:`Decision` carrying **source provenance**: the XSLT
template (match pattern, mode, stylesheet source line) it came from, the
XQuery fragment it produced, and — once the SQL merge has run — the id of
the SQL plan node the fragment landed in.

The ledger is threaded through the whole pipeline by
:class:`repro.core.pipeline.XsltRewriter` and surfaces three ways:

* ``TransformResult.explain()`` renders it as a tree interleaved with
  the executed plan;
* ``XsltRewriter().rewrite_view(stylesheet, view_query).ledger`` is the
  ledger of a compile that executes nothing;
* :meth:`DecisionLedger.to_json` exports it as JSON (EXPLAIN's
  structured form carries it).
"""

from __future__ import annotations

import json

# -- decision kinds (the paper's techniques) -----------------------------------

TEMPLATE_INSTANTIATED = "template-instantiated"  # §4.3: fired on the sample
TEMPLATE_PRUNED = "template-pruned"              # §3.7: never fires
TEMPLATE_INLINED = "template-inlined"            # §3.3: body expanded in place
TEMPLATE_DISPATCHED = "template-dispatched"      # §4.4: stays a function
CARDINALITY = "cardinality"                      # §3.4: FOR vs LET
BACKWARD_STEP = "backward-step"                  # §3.5: parent tests removed
BUILTIN_COMPACTION = "builtin-compaction"        # §3.6: string-join form
# a functional artifact: which stored paths the VM's documents keep
PROJECTION = "projection"

# cost-based plan optimisation (repro.rdb.planner, not a paper section)
ACCESS_PATH = "access-path"        # Scan vs IndexScan per filtered table
JOIN_STRATEGY = "join-strategy"    # nested loop vs hash join
TOPN_FUSION = "topn-fusion"        # Limit(Sort) fused into bounded-heap TopN
DECORRELATE = "decorrelate"        # correlated subquery -> join + group-agg
STRUCTURAL_PATH = "structural-path"  # tree-walk join vs label-range StructuralJoin

KINDS = (
    TEMPLATE_INSTANTIATED,
    TEMPLATE_PRUNED,
    TEMPLATE_INLINED,
    TEMPLATE_DISPATCHED,
    CARDINALITY,
    BACKWARD_STEP,
    BUILTIN_COMPACTION,
    PROJECTION,
    ACCESS_PATH,
    JOIN_STRATEGY,
    TOPN_FUSION,
    DECORRELATE,
    STRUCTURAL_PATH,
)

_SECTIONS = {
    TEMPLATE_INSTANTIATED: "4.3",
    TEMPLATE_PRUNED: "3.7",
    TEMPLATE_INLINED: "3.3",
    TEMPLATE_DISPATCHED: "4.4",
    CARDINALITY: "3.4",
    BACKWARD_STEP: "3.5",
    BUILTIN_COMPACTION: "3.6",
}

_FRAGMENT_LIMIT = 160  # rendered XQuery provenance is a one-line excerpt


def xslt_provenance(template):
    """The XSLT-side provenance dict for one compiled template."""
    if template is None:
        return None
    return {
        "template": template.label(),
        "match": template.match.source if template.match is not None else None,
        "mode": template.mode,
        "name": template.name,
        "line": template.source_line,
    }


def _fragment_text(node):
    """One-line, length-capped rendering of a generated XQuery node."""
    from repro.xquery import xquery_to_text

    text = " ".join(xquery_to_text(node).split())
    if len(text) > _FRAGMENT_LIMIT:
        text = text[:_FRAGMENT_LIMIT - 3] + "..."
    return text


class Provenance:
    """The source chain of one decision: XSLT → XQuery → SQL plan node.

    The XQuery side is kept as the generated AST node and serialized
    lazily (and cached) — recording stays cheap during compilation, the
    text is only produced when the ledger is rendered or exported.
    """

    __slots__ = ("xslt", "xquery_node", "_xquery_text", "sql_node_id",
                 "sql_node")

    def __init__(self, xslt=None, xquery_node=None, sql_node_id=None,
                 sql_node=None):
        self.xslt = xslt                  # dict from xslt_provenance(), or None
        self.xquery_node = xquery_node    # generated XQuery AST node, or None
        self._xquery_text = None          # its text, rendered on first read
        self.sql_node_id = sql_node_id    # plan node id after the SQL merge
        self.sql_node = sql_node          # the plan node itself (not exported)

    @property
    def xquery(self):
        if self._xquery_text is None and self.xquery_node is not None:
            self._xquery_text = _fragment_text(self.xquery_node)
        return self._xquery_text

    @property
    def sql_node_name(self):
        return None if self.sql_node is None \
            else type(self.sql_node).__name__

    def sql_label(self):
        """Human-readable plan-node reference, e.g. ``#3 IndexScan``."""
        if self.sql_node_id is None:
            return None
        label = "#%d" % self.sql_node_id
        if self.sql_node_name is not None:
            label += " %s" % self.sql_node_name
        return label

    def to_dict(self):
        record = {}
        if self.xslt is not None:
            record["xslt"] = dict(self.xslt)
        if self.xquery is not None:
            record["xquery"] = self.xquery
        if self.sql_node_id is not None:
            record["sql_node_id"] = self.sql_node_id
            if self.sql_node_name is not None:
                record["sql_node"] = self.sql_node_name
        return record


class Decision:
    """One recorded rewrite decision.

    ``kind``    one of :data:`KINDS`;
    ``stage``   the pipeline stage that made it (``partial-eval`` /
                ``xquery-gen`` / ``sql-merge``);
    ``section`` the paper section the technique comes from;
    ``subject`` what was decided about (template label, element name);
    ``action``  what was chosen (``inline``, ``FOR``, ``LET``,
                ``removed``, ``prune``, ...);
    ``reason``  why that choice was legal/required;
    ``detail``  the evidence facts (occurrence counts, removed tests,
                sample-document observations) as a flat dict;
    ``provenance`` the XSLT → XQuery → SQL source chain.
    """

    __slots__ = ("seq", "kind", "stage", "section", "subject", "action",
                 "reason", "detail", "provenance")

    def __init__(self, seq, kind, stage, subject, action, reason,
                 detail=None, provenance=None, section=None):
        self.seq = seq
        self.kind = kind
        self.stage = stage
        self.section = section or _SECTIONS.get(kind)
        self.subject = subject
        self.action = action
        self.reason = reason
        self.detail = dict(detail) if detail else {}
        self.provenance = provenance or Provenance()

    def render(self):
        """One- or multi-line human rendering."""
        head = "[%s] %s -> %s" % (self.kind, self.subject, self.action)
        if self.section:
            head += "  (§%s)" % self.section
        lines = [head]
        if self.reason:
            lines.append("  why: %s" % self.reason)
        if self.detail:
            lines.append("  facts: %s" % ", ".join(
                "%s=%s" % (key, self.detail[key])
                for key in sorted(self.detail)
            ))
        prov = self.provenance
        if prov.xslt is not None:
            source = prov.xslt.get("template")
            line = prov.xslt.get("line")
            if line is not None:
                source += " @ line %s" % line
            lines.append("  xslt: %s" % source)
        if prov.xquery is not None:
            lines.append("  xquery: %s" % prov.xquery)
        if prov.sql_node_id is not None:
            lines.append("  sql: plan node %s" % prov.sql_label())
        return lines

    def to_dict(self):
        record = {
            "seq": self.seq,
            "kind": self.kind,
            "stage": self.stage,
            "section": self.section,
            "subject": self.subject,
            "action": self.action,
            "reason": self.reason,
        }
        if self.detail:
            record["detail"] = {
                key: _jsonable(value) for key, value in self.detail.items()
            }
        provenance = self.provenance.to_dict()
        if provenance:
            record["provenance"] = provenance
        return record

    def __repr__(self):
        return "<Decision %s %s -> %s>" % (self.kind, self.subject,
                                           self.action)


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return str(value)


class DecisionLedger:
    """Ordered record of every rewrite decision of one compilation."""

    # the pipeline stages, in rendering order
    STAGES = ("partial-eval", "xquery-gen", "sql-merge", "plan-optimize")

    def __init__(self):
        self.decisions = []
        self._sql_bindings = {}   # XQuery variable name -> plan node

    # -- recording --------------------------------------------------------------

    def record(self, kind, stage, subject, action, reason=None, detail=None,
               template=None, xquery_node=None, section=None):
        """Append one decision; returns it (the caller may refine it)."""
        decision = Decision(
            seq=len(self.decisions),
            kind=kind,
            stage=stage,
            section=section,
            subject=subject,
            action=action,
            reason=reason,
            detail=detail,
            provenance=Provenance(
                xslt=xslt_provenance(template), xquery_node=xquery_node
            ),
        )
        self.decisions.append(decision)
        return decision

    def bind_sql_variable(self, variable, subquery):
        """SQL merge: the FLWOR variable ``variable`` became ``subquery``
        (a ScalarSubquery expression, or a bare plan node).  Binding the
        *expression* keeps the link valid across plan optimisation — the
        optimizer rebuilds plans but swaps them into the same expression
        object.  Resolved into decision provenance by
        :meth:`attach_plan`."""
        self._sql_bindings[variable] = subquery

    def rebind_sql_expression(self, expr, node):
        """Re-point every variable bound to ``expr`` at ``node``.  The
        decorrelation pass replaces a bound ScalarSubquery expression
        with a plan node living inside the main tree; rebinding keeps
        per-variable provenance and EXPLAIN ANALYZE numbering following
        the surviving node.  Returns the rebound variable names."""
        rebound = [
            variable
            for variable, binding in self._sql_bindings.items()
            if binding is expr
        ]
        for variable in rebound:
            self._sql_bindings[variable] = node
        return rebound

    def _bound_plan(self, variable):
        binding = self._sql_bindings.get(variable)
        inner = getattr(binding, "query", None)  # ScalarSubquery expr
        if inner is not None:
            return inner.plan
        return binding  # bare plan node or None

    def bound_plans(self):
        """The subquery plan roots the SQL merge bound, in first-bound
        order — the ``extra_plans`` EXPLAIN numbers alongside the main
        plan."""
        plans = []
        for variable in self._sql_bindings:
            plan_node = self._bound_plan(variable)
            if plan_node is not None and plan_node not in plans:
                plans.append(plan_node)
        return plans

    def attach_plan(self, query):
        """Complete provenance after a successful SQL merge: assign plan
        node ids (main plan first, then the subquery plans the merge
        bound), then stamp each decision with the node its fragment landed
        in — the bound subquery root when one exists, the plan root
        otherwise.  Idempotent: calling again (e.g. with the *optimized*
        query before execution) re-resolves every decision against the
        new plan."""
        from repro.rdb.plan import assign_plan_node_ids

        ids = assign_plan_node_ids(query, extra_plans=self.bound_plans())
        root = getattr(query, "plan", None)
        for decision in self.decisions:
            if decision.kind == TEMPLATE_PRUNED:
                continue  # pruned templates produce no plan nodes
            preset = decision.provenance.sql_node
            if preset is not None and id(preset) in ids:
                # the planner pinned this decision to the node it built
                # (access-path / join-strategy choices); keep that anchor
                decision.provenance.sql_node_id = ids[id(preset)]
                continue
            variable = decision.detail.get("variable")
            node = self._bound_plan(variable) if variable else None
            if node is None:
                node = root
            decision.provenance.sql_node = node
            decision.provenance.sql_node_id = getattr(
                node, "plan_node_id", None
            )

    # -- queries ----------------------------------------------------------------

    def decisions_of(self, kind=None, stage=None):
        return [
            decision for decision in self.decisions
            if (kind is None or decision.kind == kind)
            and (stage is None or decision.stage == stage)
        ]

    def kinds(self):
        """The distinct decision kinds recorded, in first-seen order."""
        seen = []
        for decision in self.decisions:
            if decision.kind not in seen:
                seen.append(decision.kind)
        return seen

    def counts(self):
        """``{kind: count}`` over all decisions."""
        out = {}
        for decision in self.decisions:
            out[decision.kind] = out.get(decision.kind, 0) + 1
        return out

    def __len__(self):
        return len(self.decisions)

    def __iter__(self):
        return iter(self.decisions)

    # -- rendering --------------------------------------------------------------

    def render(self):
        """Human-readable tree, grouped by pipeline stage."""
        if not self.decisions:
            return ["(no rewrite decisions recorded)"]
        lines = []
        stages = list(self.STAGES)
        for decision in self.decisions:  # tolerate unknown stages
            if decision.stage not in stages:
                stages.append(decision.stage)
        for stage in stages:
            of_stage = self.decisions_of(stage=stage)
            if not of_stage:
                continue
            lines.append("%s (%d decisions)" % (stage, len(of_stage)))
            for decision in of_stage:
                rendered = decision.render()
                lines.append("  " + rendered[0])
                lines.extend("  " + line for line in rendered[1:])
        return lines

    # -- export -----------------------------------------------------------------

    def to_dict(self):
        return {
            "version": 1,
            "counts": self.counts(),
            "decisions": [decision.to_dict() for decision in self.decisions],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
