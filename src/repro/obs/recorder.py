"""Flight recorder: a bounded ring buffer of per-request records.

Metrics aggregate and traces explain *one* request — the flight
recorder is the piece in between: the last N requests the process
served, each compressed to the fields an operator triages with (trace
id, stage timings, cache behaviour, fallback category, Q-error
verdict, row counts), retrievable by trace id (:meth:`FlightRecorder.get`)
or newest first (:meth:`FlightRecorder.snapshot`).

Retention is two-tier, mirroring production tracing systems:

* **every** request gets a compact :class:`RequestRecord` (plus its
  span tree: the finished ``Span`` objects of the root the request
  opened are kept as they are and rendered to dicts when
  ``spans`` / ``stages`` are read — nothing is serialized between a
  request finishing and its future resolving);
* the **slow-request policy** additionally retains the full diagnosis
  (EXPLAIN ANALYZE + the rewrite-decision ledger, produced lazily by
  the caller's ``detail_fn``) for requests over
  ``slow_threshold_seconds`` — and, so the fast path stays inspectable
  too, for every ``tail_sample_every``-th request regardless of
  latency (tail sampling).

The ring is thread-safe: the serve tier records from worker threads
while readers snapshot concurrently, and
``snapshot()``/``reset()`` take consistent copies under the lock.
``detail_fn`` runs *outside* the lock (rendering an EXPLAIN is not
cheap) and only when the policy retains it.
"""

from __future__ import annotations

import threading
import time
from collections import deque

#: why a record kept its full detail
DETAIL_SLOW = "slow"
DETAIL_TAIL_SAMPLE = "tail-sample"


def stage_seconds(spans):
    """{span name: total seconds} aggregated over flattened span records
    (the ``Span.to_dict`` shape) — the per-stage timing breakdown a
    flight record carries."""
    stages = {}
    for record in spans or ():
        seconds = record.get("duration_ms", 0.0) / 1000.0
        stages[record["name"]] = stages.get(record["name"], 0.0) + seconds
    return stages


def transform_fields(view):
    """The :meth:`FlightRecorder.record` fields a finished transform
    supplies, read off its one execution record through whichever view
    the door returned (``TransformResult``, a drained
    ``TransformStream``, a ``ServeResult`` from either backend) —
    strategy, fallback, cache outcome, row count, the three timings,
    Q-error verdict, and the lazy slow-request diagnosis: the full
    report (EXPLAIN ANALYZE, stats, Q-error, span tree) plus EXPLAIN
    REWRITE (the decision tree, each decision naming its plan node),
    every section rendered once — over a record that crossed a worker
    pipe, the sections that crossed (strategy, fallback, stats)."""
    stats, feedback = view.stats, view.feedback
    return dict(
        strategy=view.strategy,
        fallback_category=view.fallback_category,
        cache_hit=view.cache_hit,
        rows=stats.output_rows if stats is not None else None,
        queue_wait_seconds=view.queue_wait_seconds,
        execute_seconds=view.execute_seconds,
        total_seconds=view.total_seconds,
        q_error_max=feedback.max_q_error if feedback is not None else None,
        detail_fn=lambda: _detail(view),
    )


def _detail(view):
    from repro.obs.explain import ExplainReport  # imports the plan layer

    decisions = ExplainReport(ledger=view.ledger).render()
    return "\n".join(filter(None, [view.report(), decisions]))


class RequestRecord:
    """One served request, compressed for the ring buffer."""

    #: what :meth:`as_dict` always carries, in its order
    _FACTS = ("trace_id", "name", "sequence", "started_at", "status",
              "strategy", "cache_hit", "fallback_category",
              "queue_wait_seconds", "execute_seconds", "total_seconds",
              "rows", "bytes_out", "q_error_max")
    __slots__ = _FACTS + ("error", "_spans", "detail", "detail_reason")

    def __init__(self, trace_id, name=None, sequence=0, started_at=None,
                 status="ok", error=None, strategy=None, cache_hit=None,
                 fallback_category=None, queue_wait_seconds=None,
                 execute_seconds=None, total_seconds=None, rows=None,
                 bytes_out=None, q_error_max=None,
                 spans=None, detail=None, detail_reason=None):
        #: trace id shared by every span of this request
        self.trace_id = trace_id
        #: short human label (stylesheet hash, workload item name, ...)
        self.name = name
        #: monotonically increasing admission number within this recorder
        self.sequence = sequence
        #: wall-clock start (``time.time``), for log correlation
        self.started_at = started_at
        #: "ok" | "error" | "timeout" | "cancelled" | "rejected"
        self.status = status
        self.error = error
        self.strategy = strategy
        self.cache_hit = cache_hit
        self.fallback_category = fallback_category
        self.queue_wait_seconds = queue_wait_seconds
        self.execute_seconds = execute_seconds
        self.total_seconds = total_seconds
        self.rows = rows
        self.bytes_out = bytes_out
        #: plan-wide max Q-error of this execution (None when unprofiled)
        self.q_error_max = q_error_max
        #: the trace's spans as handed over: finished ``Span`` objects, or
        #: the dicts a worker pipe delivered
        self._spans = list(spans) if spans else []
        #: full EXPLAIN ANALYZE + decision ledger, when retained
        self.detail = detail
        #: why detail was retained (DETAIL_SLOW / DETAIL_TAIL_SAMPLE)
        self.detail_reason = detail_reason

    @property
    def spans(self):
        """Flattened span records (``Span.to_dict`` shape) of the trace."""
        return [span if isinstance(span, dict) else span.to_dict()
                for span in self._spans]

    @property
    def stages(self):
        """{stage name: seconds} aggregated from the span tree."""
        return stage_seconds(self.spans)

    def as_dict(self, include_spans=False, include_detail=False):
        record = {name: getattr(self, name) for name in self._FACTS}
        record.update(stages=self.stages, has_detail=self.detail is not None,
                      detail_reason=self.detail_reason)
        if self.error is not None:
            record["error"] = self.error
        if include_spans:
            record["spans"] = self.spans
        if include_detail:
            record["detail"] = self.detail
        return record

    def __repr__(self):
        return "<RequestRecord %s %s %s>" % (
            self.trace_id, self.status,
            "%.3fs" % self.total_seconds
            if self.total_seconds is not None else "?",
        )


class FlightRecorder:
    """Bounded, thread-safe ring of :class:`RequestRecord`.

    :param capacity: ring size; the oldest record is dropped beyond it.
    :param slow_threshold_seconds: requests at or above this total
        latency retain their full ``detail_fn`` output (None disables
        the slow policy).
    :param tail_sample_every: additionally retain detail for every Nth
        request (0 disables tail sampling).
    :param clock: wall-clock callable (injectable for tests).
    """

    def __init__(self, capacity=256, slow_threshold_seconds=0.5,
                 tail_sample_every=0, clock=time.time):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.slow_threshold_seconds = slow_threshold_seconds
        self.tail_sample_every = tail_sample_every
        self.clock = clock
        self._lock = threading.Lock()
        self._records = deque(maxlen=capacity)
        self._sequence = 0
        self._detail_retained = 0

    # -- recording ---------------------------------------------------------------

    def record(self, trace_id, total_seconds=None, detail_fn=None,
               started_at=None, **fields):
        """Append one request record; returns it.

        ``fields`` are :class:`RequestRecord`'s (``name``, ``status``,
        ``strategy``, ``spans``, ...).  ``detail_fn`` is a zero-argument
        callable producing the full diagnosis (EXPLAIN ANALYZE + ledger
        rendering); it is invoked — outside the ring lock — only when
        the slow/tail-sample policy retains it.
        """
        with self._lock:
            self._sequence += 1
            sequence = self._sequence
        detail = None
        detail_reason = None
        if detail_fn is not None:
            if (self.slow_threshold_seconds is not None
                    and total_seconds is not None
                    and total_seconds >= self.slow_threshold_seconds):
                detail_reason = DETAIL_SLOW
            elif (self.tail_sample_every
                    and sequence % self.tail_sample_every == 0):
                detail_reason = DETAIL_TAIL_SAMPLE
            if detail_reason is not None:
                try:
                    detail = detail_fn()
                except Exception as exc:  # diagnosis must never fail a request
                    detail = "detail unavailable: %s: %s" % (
                        type(exc).__name__, exc)
        record = RequestRecord(
            trace_id, sequence=sequence,
            started_at=started_at if started_at is not None
            else self.clock(),
            total_seconds=total_seconds, detail=detail,
            detail_reason=detail_reason, **fields
        )
        with self._lock:
            self._records.append(record)
            if detail_reason is not None:
                self._detail_retained += 1
        return record

    # -- reading -----------------------------------------------------------------

    def records(self):
        """A consistent copy of the ring, oldest first."""
        with self._lock:
            return list(self._records)

    def get(self, trace_id):
        """The most recent record for ``trace_id``, or None."""
        with self._lock:
            for record in reversed(self._records):
                if record.trace_id == trace_id:
                    return record
        return None

    def snapshot(self, limit=None, include_spans=False,
                 include_detail=False):
        """JSON-friendly dump of the ring, newest first."""
        with self._lock:
            records = list(self._records)
        records.reverse()
        if limit is not None:
            records = records[:limit]
        return [
            record.as_dict(include_spans=include_spans,
                           include_detail=include_detail)
            for record in records
        ]

    def stats(self):
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._records),
                "recorded": self._sequence,
                "detail_retained": self._detail_retained,
                "slow_threshold_seconds": self.slow_threshold_seconds,
                "tail_sample_every": self.tail_sample_every,
            }

    def reset(self):
        """Empty the ring (sequence numbering continues)."""
        with self._lock:
            removed = len(self._records)
            self._records.clear()
        return removed

    def __len__(self):
        with self._lock:
            return len(self._records)
