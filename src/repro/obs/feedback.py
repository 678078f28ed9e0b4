"""The Q-error record: how far a plan's estimates were from its actuals.

The cost planner (:mod:`repro.rdb.planner`) stamps every plan node with
``estimated_rows``; the profiler (:class:`~repro.rdb.plan.PlanProfiler`)
records what actually flowed.  This module pairs the two after a
profiled execution and computes the **Q-error** of every estimate —
``max(est/act, act/est)``, the standard multiplicative measure of
cardinality-estimation quality.  Every observation lands in metrics
(``planner.qerror`` histogram labeled by operator kind,
``planner.qerror.max`` per plan) and on the execution result
(``result.feedback``), and EXPLAIN ANALYZE renders a ``q=`` column.

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


def _instruments(table, metrics):
    """Per row of ``table``, its ``[plan.operator_rows counter,
    planner.qerror histogram]`` in ``metrics``, then ``[planner.qerror.max
    histogram]``: resolved when first recorded into (a snapshot lists no
    instrument nothing recorded into) and kept on the table until the
    registry is reset or swapped."""
    held = table.instruments
    if held is None or held[0] is not metrics \
            or held[1] != metrics.generation:
        held = table.instruments = (
            metrics, metrics.generation,
            [[None, None] for _ in table.rows] + [[None]])
    return held[2]


def observe_profile(profiler, metrics=None):
    """The one pass over a profiled execution: per row of the
    :class:`~repro.rdb.binding.Observation` it ran under, bump
    ``plan.operator_rows{op}`` and record the Q-error of the estimate
    against the per-open actual (``planner.qerror{op}``, ``.max``,
    ``.missing_estimates``); returns the :class:`PlanFeedback`.  A node
    that never opened has no actual and is skipped; ``metrics=None``
    exports nothing."""
    table = profiler.table
    if table is None:  # nothing ran under this profiler
        return PlanFeedback([], 0, None, None)
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
    if metrics is not None:
        if max_q_error is not None:
            plan = instruments[-1]
            if plan[0] is None:
                plan[0] = metrics.histogram("planner.qerror.max")
            plan[0].record(_capped(max_q_error))
        if missing:
            metrics.counter("planner.qerror.missing_estimates").inc(missing)
    return PlanFeedback(observed, missing, max_q_error, worst)
