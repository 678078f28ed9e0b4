"""The one structured EXPLAIN surface: :class:`ExplainReport`.

Every ``explain`` method — ``Engine.explain``, ``Database.explain``,
``Query.explain``, ``TransformResult.explain``, ``ServeResult.explain`` —
returns this one object, holding the optimized plan, the cost estimates
and EXPLAIN ANALYZE actuals, the rewrite-decision ledger and the
post-execution Q-error record, with

* :meth:`ExplainReport.render` — the human text, over the pure tree
  renderer :func:`repro.rdb.plan.explain`, and
* :meth:`ExplainReport.to_json` / :meth:`ExplainReport.to_dict` — a
  lossless structured export (nested plan tree with per-node
  estimates/actuals, decisions, Q-errors) for dashboards and diffing.

``str(report)`` and ``"..." in report`` delegate to :meth:`render`.
:meth:`ExplainReport.for_query` is the only EXPLAIN ANALYZE executor.
"""

from __future__ import annotations

import json

from repro.rdb.plan import PlanProfiler, _fmt_stat, explain_lines


class ExplainReport:
    """Everything one EXPLAIN knows, in one object.

    ``query``
        the optimized :class:`~repro.rdb.plan.Query` (None when the
        transform compiled to the functional strategy);
    ``ledger``
        the :class:`~repro.obs.decisions.DecisionLedger` of the compile
        (None when the caller has none);
    ``profile``
        a :class:`~repro.rdb.plan.PlanProfiler` with per-node actuals,
        set when the plan executed (EXPLAIN ANALYZE; per-node times
        where the profiler was timed);
    ``stats``
        the :class:`~repro.rdb.plan.ExecutionStats` of that execution;
    ``feedback``
        the :class:`~repro.obs.feedback.PlanFeedback` Q-error record;
    ``strategy`` / ``fallback_reason``
        how the transform ran, when the report covers a transform rather
        than a bare query;
    ``include_decisions``
        whether :meth:`render` emits the rewrite-decisions section and
        interleaves decisions into the plan (defaults to whether a
        ledger is present).
    """

    __slots__ = ("query", "ledger", "profile", "stats", "feedback",
                 "strategy", "fallback_reason", "include_decisions")

    def __init__(self, query=None, ledger=None, profile=None, stats=None,
                 feedback=None, strategy=None, fallback_reason=None,
                 include_decisions=None):
        self.query = query
        self.ledger = ledger
        self.profile = profile
        self.stats = stats
        self.feedback = feedback
        self.strategy = strategy
        self.fallback_reason = fallback_reason
        if include_decisions is None:
            include_decisions = ledger is not None
        self.include_decisions = include_decisions

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def for_query(cls, db, query, analyze=False, env=None, ledger=None):
        """A report over one optimized :class:`~repro.rdb.plan.Query`;
        with ``analyze=True`` the query is executed here, under a timed
        profiler, and the report carries the actuals and per-node times
        (``Database.explain``'s contract)."""
        from repro.rdb.plan import ExecutionStats

        profile = None
        stats = None
        if analyze:
            stats = ExecutionStats()
            stats.profiler = profile = PlanProfiler(timed=True)
            query.execute(db, env=env, stats=stats)
        return cls(query=query, ledger=ledger, profile=profile, stats=stats)

    # -- rendering --------------------------------------------------------------

    def render(self):
        """The human-readable report.  Sections appear only when their
        data is present: a bare ``Database.explain`` report has no
        strategy/ledger and renders as the unadorned operator tree
        (+ execution summary), while a transform's report leads with
        strategy and the decision tree."""
        lines = []
        if self.strategy is not None:
            lines.append("strategy: %s" % self.strategy)
        if self.fallback_reason:
            lines.append("fallback: %s" % self.fallback_reason)
        if self.include_decisions:
            lines.append("rewrite decisions:")
            if self.ledger is None or not len(self.ledger):
                lines.append("  (no rewrite decisions recorded)")
            else:
                lines.extend("  " + line for line in self.ledger.render())
        if self.query is not None:
            wrapped = (self.strategy is not None or self.include_decisions)
            by_node = self._decisions_by_node()
            prefix = "  " if wrapped else ""
            if wrapped:
                lines.append("plan:")
            for node, line in explain_lines(self.query,
                                            profile=self.profile):
                lines.append(prefix + line)
                pad = " " * (len(line) - len(line.lstrip()) + 4)
                for decision in by_node.get(
                        getattr(node, "plan_node_id", None), ()):
                    lines.append("%s%s<- [%s] %s -> %s" % (
                        prefix, pad, decision.kind, decision.subject,
                        decision.action,
                    ))
        if self.stats is not None:
            lines.append("Execution: %s" % ", ".join(
                "%s=%s" % (name, _fmt_stat(value))
                for name, value in self.stats.as_dict().items()
                if value
            ))
        if self.feedback is not None and self.feedback.nodes:
            lines.append("plan feedback (Q-error):")
            lines.extend("  " + line for line in self.feedback.render())
        return "\n".join(lines)

    def _decisions_by_node(self):
        by_node = {}
        if self.include_decisions and self.ledger is not None:
            for decision in self.ledger:
                node_id = decision.provenance.sql_node_id
                if node_id is not None:
                    by_node.setdefault(node_id, []).append(decision)
        return by_node

    def __str__(self):
        return self.render()

    def __contains__(self, text):
        return text in self.render()

    def __repr__(self):
        parts = []
        if self.strategy is not None:
            parts.append("strategy=%s" % self.strategy)
        if self.query is not None:
            parts.append("plan")
        if self.profile is not None:
            parts.append("analyzed")
        if self.ledger is not None:
            parts.append("%d decision(s)" % len(self.ledger))
        return "<ExplainReport %s>" % " ".join(parts or ["empty"])

    # -- structured export ------------------------------------------------------

    def to_dict(self):
        record = {"version": 1}
        if self.strategy is not None:
            record["strategy"] = self.strategy
        if self.fallback_reason:
            record["fallback_reason"] = self.fallback_reason
        if self.query is not None:
            record["sql"] = self.query.to_sql()
            record["plan"] = self._plan_dict(self.query.plan)
        if self.ledger is not None:
            record["decisions"] = [
                decision.to_dict() for decision in self.ledger
            ]
        if self.stats is not None:
            record["execution"] = {
                name: value
                for name, value in self.stats.as_dict().items()
                if value
            }
        if self.feedback is not None:
            record["feedback"] = self.feedback.as_dict()
        return record

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def _plan_dict(self, node):
        record = {"op": type(node).__name__}
        node_id = getattr(node, "plan_node_id", None)
        if node_id is not None:
            record["id"] = node_id
        for attr in ("estimated_rows", "estimated_cost"):
            value = getattr(node, attr, None)
            if value is not None:
                record[attr.replace("estimated_", "est_")] = round(
                    float(value), 2
                )
        # the same facts, in the same order, the text line prints
        record.update((key, value) for key, value, *_ in node.detail())
        if self.profile is not None:
            node_profile = self.profile.get(node)
            if node_profile is not None:
                record["actual_rows"] = node_profile.rows_out
                record["opens"] = node_profile.opens
                if node_profile.total_seconds is not None:
                    record["total_ms"] = round(
                        node_profile.total_seconds * 1000.0, 3)
        children = [self._plan_dict(child) for child in node.children()]
        if children:
            record["children"] = children
        return record
