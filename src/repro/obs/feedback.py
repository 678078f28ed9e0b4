"""The Q-error record: how far a plan's estimates were from its actuals.

The cost planner (:mod:`repro.rdb.planner`) stamps every plan node with
``estimated_rows``; the profiler (:class:`~repro.rdb.plan.PlanProfiler`)
counts what actually flowed.  This module pairs the two and computes
the **Q-error** of every estimate — ``max(est/act, act/est)``, the
standard multiplicative measure of cardinality-estimation quality —
when something reads it: a run's counts are folded into the metrics
(``planner.qerror`` histogram labeled by operator kind,
``planner.qerror.max`` per plan, :func:`export_runs`) when the registry
is read, and into the execution result's ``result.feedback``
(:func:`plan_feedback`) when that is read; EXPLAIN ANALYZE renders a
``q=`` column.

It is a record, not a loop: nothing acts on it.  Fresh statistics
(``db.analyze()``) are the fix for a bad estimate, and the serving
tier's ``stats:`` cache-key component retires every plan made under the
old ones.

Zero/missing handling is explicit: a node the planner never stamped
(optimizer level ``off``) has Q-error ``None`` and is excluded from
aggregation; ``est == actual == 0`` is a perfect estimate (1.0); one
side zero with the other positive is an unbounded miss
(``float("inf")``), capped at :data:`QERROR_CAP` before entering
histograms so sums stay finite.
"""

from __future__ import annotations

import math

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
    return estimated / actual if estimated > actual else actual / estimated


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
    """One plan node's estimate vs. its observed cardinality; ``table``
    is the node's own base table (scans only)."""

    __slots__ = ("node_id", "op", "table", "estimated_rows", "actual_rows",
                 "opens", "q_error")

    def __init__(self, node_id, op, table, estimated_rows, actual_rows,
                 opens=1):
        self.node_id = node_id
        self.op = op
        self.table = table
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
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "opens": self.opens,
            "q_error": self.q_error,
        }

    def __repr__(self):
        return "NodeFeedback(%s)" % self.describe()


class PlanFeedback:
    """Q-error record of one profiled execution of one plan.  The plan
    totals (``max_q_error``, ``missing_estimates``) come from the fold
    that builds it; the :class:`NodeFeedback` objects (``nodes``,
    ``worst``) are built on first read, and pickled."""

    __slots__ = ("_observed", "_nodes", "_worst", "missing_estimates",
                 "max_q_error")

    def __init__(self, observed, missing_estimates, max_q_error, worst):
        #: ``(observation row, rows out, opens)`` per profiled node
        self._observed = observed
        self._nodes = None
        #: position in ``nodes`` of the first node at ``max_q_error``
        self._worst = worst
        self.missing_estimates = missing_estimates
        self.max_q_error = max_q_error

    @property
    def nodes(self):
        if self._nodes is None:
            self._nodes = [
                NodeFeedback(node_id, op, table, estimated_rows, rows_out,
                             opens=opens)
                for (_, node_id, op, table, estimated_rows), rows_out, opens
                in self._observed
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
        """The plan totals as plain values: a run's wire form."""
        return self.missing_estimates, self.max_q_error

    @classmethod
    def from_verdict(cls, verdict):
        missing_estimates, max_q_error = verdict
        return cls((), missing_estimates, max_q_error, None)  # no nodes

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
        return lines

    def as_dict(self):
        return {
            "max_q_error": self.max_q_error,
            "missing_estimates": self.missing_estimates,
            "nodes": [node.as_dict() for node in self.nodes],
        }

    def __repr__(self):
        return "PlanFeedback(max=%s nodes=%d)" % (
            format_qerror(self.max_q_error), len(self))


def _judged(table, rows, opens):
    """``(observation row, rows out, opens, Q-error)`` per row of
    ``table`` whose node opened: ``rows`` and ``opens`` are a run's
    per-slot counts.  Estimates are per open; a correlated inner plan
    re-opens once per outer row, so the comparable actual is rows /
    opens."""
    for row in table.rows:
        slot = row[0]
        loops = opens[slot]
        if loops:
            rows_out = rows[slot]
            yield row, rows_out, loops, q_error(row[4], rows_out / loops)


def plan_feedback(table, rows, opens):
    """The :class:`PlanFeedback` of one run that counted ``rows`` and
    ``opens`` per slot of ``table`` (None: nothing ran under it)."""
    observed = []
    missing = 0
    max_q_error = worst = None
    if table is not None:
        for row, rows_out, loops, error in _judged(table, rows, opens):
            if error is None:
                missing += 1
            elif max_q_error is None or error > max_q_error:
                max_q_error, worst = error, len(observed)
            observed.append((row, rows_out, loops))
    return PlanFeedback(observed, missing, max_q_error, worst)


#: the instruments :func:`export_runs` writes: a registry's getter of
#: one of them folds the runs it holds first
FOLDED = frozenset({
    "transform.rewrite_success", "plan.operator_rows", "planner.qerror",
    "planner.qerror.max", "planner.qerror.missing_estimates",
})


def export_runs(runs, metrics):
    """Fold tallied plan runs — ``{(table, rows, opens, complete):
    times}`` — into the registry ``metrics``, through its getters that
    do not fold (this is the fold): ``transform.rewrite_success`` per
    run and, per profiled run, ``plan.operator_rows{op}`` per node that
    opened; a complete run also records the Q-error of every estimate
    (``planner.qerror{op}``, capped), the plan's worst
    (``planner.qerror.max``) and ``planner.qerror.missing_estimates``.
    A run stopped early by its consumer has truncated actuals: it is
    kept out of the Q-error instruments."""
    metrics._counter("transform.rewrite_success", {}).inc(
        sum(runs.values()))
    for (table, rows, opens, complete), times in runs.items():
        if table is not None:
            _export(metrics, table, rows, opens, complete, times)


def _instruments(table, metrics):
    """Per slot of ``table``, its ``[plan.operator_rows counter,
    planner.qerror histogram]`` in ``metrics``, then ``[planner.qerror.max
    histogram]``: resolved when first recorded into (a snapshot lists no
    instrument nothing recorded into) and kept on the table until the
    registry is reset or swapped."""
    held = table.instruments
    if held is None or held[0] is not metrics \
            or held[1] != metrics.generation:
        held = table.instruments = (
            metrics, metrics.generation,
            [[None, None] for _ in table.nodes] + [[None]])
    return held[2]


def _export(metrics, table, rows, opens, complete, times):
    instruments = _instruments(table, metrics)
    missing = 0
    worst = None
    for row, rows_out, _, error in _judged(table, rows, opens):
        pair = instruments[row[0]]
        if pair[0] is None:
            pair[0] = metrics._counter("plan.operator_rows", {"op": row[2]})
        pair[0].inc(rows_out * times)
        if not complete:
            continue
        if error is None:
            missing += 1
        else:
            if pair[1] is None:
                pair[1] = metrics._histogram("planner.qerror", {"op": row[2]})
            pair[1].record(_capped(error), times)
            if worst is None or error > worst:
                worst = error
    if worst is not None:
        plan = instruments[-1]
        if plan[0] is None:
            plan[0] = metrics._histogram("planner.qerror.max", {})
        plan[0].record(_capped(worst), times)
    if missing:
        metrics._counter("planner.qerror.missing_estimates", {}).inc(
            missing * times)
