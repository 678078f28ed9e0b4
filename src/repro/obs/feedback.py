"""Adaptive optimizer feedback: the Q-error loop.

The cost planner (:mod:`repro.rdb.planner`) stamps every plan node with
``estimated_rows``; the profiler (:class:`~repro.rdb.plan.PlanProfiler`)
records what actually flowed.  This module pairs the two after a
profiled execution and computes the **Q-error** of every estimate —
``max(est/act, act/est)``, the standard multiplicative measure of
cardinality-estimation quality — then closes the loop:

* every observation lands in metrics (``planner.qerror`` histogram
  labeled by operator kind, ``planner.qerror.max`` per plan) and on the
  execution result, and EXPLAIN ANALYZE renders a ``q=`` column;
* when a :class:`FeedbackPolicy` is enabled and a plan misses its
  thresholds ``consecutive_misses`` times, the
  :class:`FeedbackController` **distrusts** the plan: it records
  ``plan-feedback`` decisions in the plan's
  :class:`~repro.obs.decisions.DecisionLedger` (so EXPLAIN REWRITE
  shows why), auto-ANALYZEs offending tables that have no statistics
  (bumping ``stats_version``, which re-keys the serve plan cache), and
  notifies listeners — the serve tier subscribes to evict/re-cost the
  cached ``CompiledTransform``.

Zero/missing handling is explicit: a node the planner never stamped
(optimizer level ``off``) has Q-error ``None`` and is excluded from
aggregation; ``est == actual == 0`` is a perfect estimate (1.0); one
side zero with the other positive is an unbounded miss
(``float("inf")``), capped at :data:`QERROR_CAP` before entering
histograms so sums stay finite.
"""

from __future__ import annotations

import math
import threading

from .metrics import global_metrics

#: Q-error of a perfect estimate.
QERROR_PERFECT = 1.0

#: Finite stand-in for an infinite Q-error when recording into
#: histograms (an ``inf`` sample would poison ``_sum``).
QERROR_CAP = 1.0e6


def q_error(estimated, actual):
    """``max(est/act, act/est)`` with explicit zero/missing handling.

    Returns ``None`` when there is no estimate to judge (the planner ran
    at level ``off``), ``1.0`` when both sides are zero (the estimate
    was exactly right), ``float("inf")`` when exactly one side is zero,
    and the max ratio otherwise.
    """
    if estimated is None:
        return None
    estimated = float(estimated)
    actual = float(actual)
    if estimated <= 0.0 and actual <= 0.0:
        return QERROR_PERFECT
    if estimated <= 0.0 or actual <= 0.0:
        return float("inf")
    return max(estimated / actual, actual / estimated)


def format_qerror(value):
    """Human form of a Q-error: ``-`` missing, ``inf``, or ``12.50``."""
    if value is None:
        return "-"
    if math.isinf(value):
        return "inf"
    return "%.2f" % value


def _capped(value):
    return value if value < QERROR_CAP else QERROR_CAP


class NodeFeedback:
    """One plan node's estimate vs. its observed cardinality.

    ``table`` is the node's own base table (scans only); ``tables`` also
    covers the base tables in the node's subtree, so a mis-estimated
    Filter or Join still implicates the tables whose statistics would
    have fixed its estimate.
    """

    __slots__ = ("node_id", "op", "table", "tables", "estimated_rows",
                 "actual_rows", "opens", "q_error")

    def __init__(self, node_id, op, table, estimated_rows, actual_rows,
                 tables=(), opens=1):
        self.node_id = node_id
        self.op = op
        self.table = table
        self.tables = tuple(tables) if tables else (
            (table,) if table else ())
        self.estimated_rows = estimated_rows
        # estimates are per open; a correlated inner plan re-opens once
        # per outer row, so the comparable actual is rows / loops
        self.opens = opens or 1
        self.actual_rows = actual_rows / self.opens
        self.q_error = q_error(estimated_rows, self.actual_rows)

    def describe(self):
        where = "#%d %s" % (self.node_id, self.op) if self.node_id \
            else self.op
        if self.table:
            where += "(%s)" % self.table
        loops = " loops=%d" % self.opens if self.opens > 1 else ""
        if self.estimated_rows is None:
            return "%s est=- actual=%g%s q=-" % (where, self.actual_rows,
                                                 loops)
        return "%s est=%s actual=%g%s q=%s" % (
            where, "%g" % self.estimated_rows, self.actual_rows, loops,
            format_qerror(self.q_error),
        )

    def as_dict(self):
        return {
            "node_id": self.node_id,
            "op": self.op,
            "table": self.table,
            "tables": list(self.tables),
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "opens": self.opens,
            "q_error": self.q_error,
        }

    def __repr__(self):
        return "NodeFeedback(%s)" % self.describe()


class PlanFeedback:
    """Q-error record of one profiled execution of one plan.  What the
    loop decides on (``max_q_error``, ``missing_estimates``) comes from
    the fold that builds it; the :class:`NodeFeedback` objects
    (``nodes``, ``worst``) are built on first read, and pickled."""

    __slots__ = ("_observed", "_nodes", "_worst", "missing_estimates",
                 "max_q_error", "triggered", "actions", "stats_version")

    def __init__(self, observed, missing_estimates, max_q_error, worst):
        #: ``(observation row, rows out, opens)`` per profiled node
        self._observed = observed
        self._nodes = None
        #: position in ``nodes`` of the first node at ``max_q_error``
        self._worst = worst
        self.missing_estimates = missing_estimates
        self.max_q_error = max_q_error
        self.triggered = False
        self.actions = []
        self.stats_version = None

    @property
    def nodes(self):
        if self._nodes is None:
            self._nodes = [
                NodeFeedback(node_id, op, table, estimated_rows, rows_out,
                             tables=tables, opens=opens)
                for (_, node_id, op, table, estimated_rows, tables),
                    rows_out, opens in self._observed
            ]
        return self._nodes

    @property
    def worst(self):
        return None if self._worst is None else self.nodes[self._worst]

    def __len__(self):
        return len(self._observed if self._nodes is None else self._nodes)

    def __getstate__(self):
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_nodes"], state["_observed"] = self.nodes, None
        return state

    def __setstate__(self, state):
        for name in self.__slots__:
            setattr(self, name, state[name])

    def verdict(self):
        """What the loop decided, as plain values: a run's wire form."""
        return (self.missing_estimates, self.max_q_error, self.triggered,
                self.actions, self.stats_version)

    @classmethod
    def from_verdict(cls, verdict):
        lean = cls((), verdict[0], verdict[1], None)  # no nodes crossed
        lean.triggered, lean.actions, lean.stats_version = verdict[2:]
        return lean

    def offending(self, threshold):
        """Nodes whose Q-error meets ``threshold``."""
        return [node for node in self.nodes
                if node.q_error is not None and node.q_error >= threshold]

    def exceeds(self, policy):
        """Does this record miss the policy's thresholds?  (Some node
        meets ``node_threshold`` exactly when the maximum does.)"""
        return self.max_q_error is not None and self.max_q_error >= min(
            policy.plan_threshold, policy.node_threshold)

    def render(self):
        """Human-readable lines for ``TransformResult.report()``."""
        lines = []
        if self.max_q_error is None:
            lines.append("q-error: no estimates to judge "
                         "(%d node(s) profiled)" % len(self))
        else:
            lines.append("q-error max=%s" % format_qerror(self.max_q_error)
                         + (" at %s" % self.worst.describe()
                            if len(self) else ""))  # a verdict has no nodes
        for node in self.nodes:
            lines.append("  %s" % node.describe())
        if self.missing_estimates:
            lines.append("  (%d node(s) without estimates)"
                         % self.missing_estimates)
        for action in self.actions:
            lines.append("action: %s" % action)
        return lines

    def as_dict(self):
        return {
            "max_q_error": self.max_q_error,
            "missing_estimates": self.missing_estimates,
            "triggered": self.triggered,
            "actions": list(self.actions),
            "stats_version": self.stats_version,
            "nodes": [node.as_dict() for node in self.nodes],
        }

    def __repr__(self):
        return "PlanFeedback(max=%s nodes=%d triggered=%r)" % (
            format_qerror(self.max_q_error), len(self), self.triggered)


def _instruments(table, metrics):
    """Per row of ``table``, its ``[plan.operator_rows counter,
    planner.qerror histogram]`` in ``metrics``: resolved when the row
    first records (a snapshot lists no instrument nothing recorded into)
    and kept on the table until the registry is reset or swapped."""
    held = table.instruments
    if held is None or held[0] is not metrics \
            or held[1] != metrics.generation:
        held = table.instruments = (
            metrics, metrics.generation, [[None, None] for _ in table.rows])
    return held[2]


def observe_profile(profiler, metrics=None, judge=True):
    """The one pass over a profiled execution: per row of the
    :class:`~repro.rdb.binding.Observation` it ran under, bump
    ``plan.operator_rows{op}`` and, when ``judge``, record the Q-error
    of the estimate against the per-open actual (``planner.qerror{op}``,
    ``.max``, ``.missing_estimates``) and return the
    :class:`PlanFeedback`.  A node that never opened has no actual and
    is skipped; ``metrics=None`` exports nothing."""
    table = profiler.table
    if table is None:  # nothing ran under this profiler
        return PlanFeedback([], 0, None, None) if judge else None
    rows_out, opens = profiler.rows_out, profiler.opens
    instruments = None if metrics is None else _instruments(table, metrics)
    observed = []
    missing = 0
    max_q_error = worst = None
    for index, row in enumerate(table.rows):
        slot = row[0]
        loops = opens[slot]
        if not loops:
            continue
        rows = rows_out[slot]
        if instruments is not None:
            pair = instruments[index]
            if pair[0] is None:
                pair[0] = metrics.counter("plan.operator_rows", op=row[2])
            pair[0].inc(rows)
        if not judge:
            continue
        # estimates are per open; a correlated inner plan re-opens once
        # per outer row, so the comparable actual is rows / loops
        error = q_error(row[4], rows / loops)
        if error is None:
            missing += 1
        else:
            if instruments is not None:
                if pair[1] is None:
                    pair[1] = metrics.histogram("planner.qerror", op=row[2])
                pair[1].record(_capped(error))
            if max_q_error is None or error > max_q_error:
                max_q_error, worst = error, len(observed)
        observed.append((row, rows, loops))
    if not judge:
        return None
    if metrics is not None:
        _record_plan_qerror(metrics, max_q_error, missing)
    return PlanFeedback(observed, missing, max_q_error, worst)


def compute_plan_feedback(query, profiler):
    """The :class:`PlanFeedback` of ``query``'s profiled execution
    (``profiler`` holds its observation table); exports nothing."""
    return observe_profile(profiler)


def _record_plan_qerror(metrics, max_q_error, missing_estimates):
    if max_q_error is not None:
        metrics.histogram("planner.qerror.max").record(_capped(max_q_error))
    if missing_estimates:
        metrics.counter("planner.qerror.missing_estimates").inc(
            missing_estimates)


def record_feedback_metrics(feedback, metrics=None):
    """Export a :class:`PlanFeedback` computed without a registry."""
    metrics = metrics or global_metrics()
    for node in feedback.nodes:
        if node.q_error is not None:
            metrics.histogram("planner.qerror", op=node.op).record(
                _capped(node.q_error))
    _record_plan_qerror(metrics, feedback.max_q_error,
                        feedback.missing_estimates)
    return feedback


class FeedbackPolicy:
    """When is a plan distrusted, and what do we do about it.

    :param node_threshold: per-node Q-error at which a node counts as
        *offending* (its table becomes an auto-ANALYZE candidate).
    :param plan_threshold: aggregate (max) Q-error at which the whole
        plan counts as missed.
    :param consecutive_misses: how many profiled executions in a row
        must miss before the controller acts — one noisy run does not
        re-cost a warm cache.
    :param auto_analyze: ANALYZE offending tables that have no usable
        statistics (never analyzed, or invalidated by DML).
    :param recost: notify listeners (the serve tier) so cached compiled
        plans carrying the bad estimates are evicted/re-costed.
    """

    __slots__ = ("node_threshold", "plan_threshold", "consecutive_misses",
                 "auto_analyze", "recost")

    def __init__(self, node_threshold=4.0, plan_threshold=4.0,
                 consecutive_misses=2, auto_analyze=True, recost=True):
        if node_threshold < 1.0 or plan_threshold < 1.0:
            raise ValueError("q-error thresholds are >= 1.0 by definition")
        if consecutive_misses < 1:
            raise ValueError("consecutive_misses must be >= 1")
        self.node_threshold = node_threshold
        self.plan_threshold = plan_threshold
        self.consecutive_misses = consecutive_misses
        self.auto_analyze = auto_analyze
        self.recost = recost

    def as_dict(self):
        return {
            "node_threshold": self.node_threshold,
            "plan_threshold": self.plan_threshold,
            "consecutive_misses": self.consecutive_misses,
            "auto_analyze": self.auto_analyze,
            "recost": self.recost,
        }

    def __repr__(self):
        return ("FeedbackPolicy(node>=%.2f, plan>=%.2f, misses=%d, "
                "auto_analyze=%r, recost=%r)") % (
            self.node_threshold, self.plan_threshold,
            self.consecutive_misses, self.auto_analyze, self.recost)


class FeedbackEvent:
    """What the controller did when it distrusted a plan."""

    __slots__ = ("query", "compiled", "feedback", "analyzed",
                 "stats_version")

    def __init__(self, query, compiled, feedback, analyzed, stats_version):
        self.query = query
        self.compiled = compiled
        self.feedback = feedback
        self.analyzed = analyzed
        self.stats_version = stats_version


class FeedbackController:
    """Per-database Q-error observer and corrective-action driver.

    Created by :class:`~repro.rdb.database.Database` in *observe-only*
    mode (``policy is None``): every profiled execution still records
    metrics and produces a :class:`PlanFeedback`, but nothing is
    analyzed or evicted until :meth:`enable` installs a policy.
    Consecutive-miss state is keyed by the query's SQL fingerprint, so
    the same cached plan accumulates misses across requests.
    """

    def __init__(self, db, policy=None, metrics=None):
        self.db = db
        self.policy = policy
        self.metrics = metrics
        self._lock = threading.Lock()
        self._misses = {}
        self._listeners = []

    # -- configuration ----------------------------------------------------------

    def enable(self, policy=None):
        """Install (and return) a policy; actions are live from now on."""
        self.policy = policy or FeedbackPolicy()
        return self.policy

    def disable(self):
        """Back to observe-only; pending miss counts are dropped."""
        self.policy = None
        with self._lock:
            self._misses.clear()

    def add_listener(self, listener):
        """``listener(event)`` is called after every corrective action."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener):
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    # -- the loop ---------------------------------------------------------------

    def observe(self, query, profiler, metrics=None, ledger=None,
                compiled=None):
        """Fold one profiled execution (:func:`observe_profile`) and
        judge it; act when the policy says so.

        Returns the :class:`PlanFeedback` (always, even observe-only).
        """
        metrics = metrics or self.metrics or global_metrics()
        feedback = observe_profile(profiler, metrics)
        feedback.stats_version = self.db.stats_version()
        policy = self.policy
        if policy is None or not len(feedback):
            return feedback
        key = query.fingerprint()
        if not feedback.exceeds(policy):
            with self._lock:
                self._misses.pop(key, None)
            return feedback
        with self._lock:
            misses = self._misses.get(key, 0) + 1
            self._misses[key] = misses
        if misses < policy.consecutive_misses:
            return feedback
        with self._lock:
            self._misses.pop(key, None)
        self._act(query, feedback, policy, ledger, compiled, metrics)
        return feedback

    def _act(self, query, feedback, policy, ledger, compiled, metrics):
        from .decisions import PLAN_QERROR, PLAN_RECOST, FEEDBACK_STAGE
        feedback.triggered = True
        worst = feedback.worst
        metrics.counter("planner.feedback.triggered").inc()
        if ledger is not None:
            self._record_once(
                ledger, PLAN_QERROR, FEEDBACK_STAGE,
                subject=worst.describe(),
                action="distrust plan",
                reason="observed q-error %s >= threshold %.2f"
                       % (format_qerror(feedback.max_q_error),
                          min(policy.plan_threshold, policy.node_threshold)),
                detail={"stats_version": feedback.stats_version,
                        "max_q_error": feedback.max_q_error},
            )
        analyzed = []
        if policy.auto_analyze:
            analyzed = self._auto_analyze(feedback, policy, ledger, metrics)
        if analyzed:
            feedback.actions.append(
                "auto-analyze %s (stats v%d -> v%d)"
                % (", ".join(analyzed), feedback.stats_version,
                   self.db.stats_version()))
        if policy.recost:
            feedback.actions.append("recost: notified serve tier")
            if ledger is not None:
                self._record_once(
                    ledger, PLAN_RECOST, FEEDBACK_STAGE,
                    subject="compiled plan",
                    action="evict from plan cache",
                    reason="recorded q-error exceeded policy thresholds",
                )
            event = FeedbackEvent(query, compiled, feedback, analyzed,
                                  self.db.stats_version())
            with self._lock:
                listeners = list(self._listeners)
            for listener in listeners:
                listener(event)

    def _auto_analyze(self, feedback, policy, ledger, metrics):
        from .decisions import AUTO_ANALYZE, FEEDBACK_STAGE
        offending = feedback.offending(policy.node_threshold)
        tables = []
        for node in offending or [feedback.worst]:
            for table in node.tables:
                if table not in tables:
                    tables.append(table)
        if not tables:
            # no base table implicated directly; consider every table
            # the distrusted plan touches
            for node in feedback.nodes:
                for table in node.tables:
                    if table not in tables:
                        tables.append(table)
        analyzed = []
        for table in tables:
            # Only tables with *no usable statistics* are analyzed: when
            # fresh stats already exist, re-running ANALYZE would compute
            # the same numbers and churn stats_version forever — the
            # corrective action there is the re-cost, not re-ANALYZE.
            if self.db.stats.table_stats(table) is not None:
                continue
            self.db.analyze(table)
            analyzed.append(table)
            metrics.counter("planner.feedback.auto_analyze",
                            table=table).inc()
            if ledger is not None:
                ledger.record(
                    AUTO_ANALYZE, FEEDBACK_STAGE,
                    subject=table,
                    action="ANALYZE",
                    reason="estimates came from defaults; table had no "
                           "statistics",
                    detail={"stats_version": self.db.stats_version()},
                )
        return analyzed

    @staticmethod
    def _record_once(ledger, kind, stage, subject, action, reason,
                     detail=None):
        """Append a decision unless the ledger already tells this story.

        Compiled plans are cached and re-executed many times; the ledger
        travels with the plan, so an unconditional append would grow it
        on every distrusted request.
        """
        for decision in ledger.decisions:
            if decision.kind == kind and decision.subject == subject \
                    and decision.stage == stage:
                return decision
        return ledger.record(kind, stage, subject=subject, action=action,
                             reason=reason, detail=detail)
