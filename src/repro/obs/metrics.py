"""Named counters and histograms for the XSLT→XQuery→SQL pipeline.

A :class:`MetricsRegistry` hands out :class:`Counter` and
:class:`Histogram` instances keyed by (name, labels).  The front door
counts rewrite attempts and fallbacks (keyed by failure phase and reason
category — the silent-fallback fix) and the compile stages record their
timings.  A plan run reports in one call (:meth:`MetricsRegistry.plan_run`)
whose per-operator part is folded when the registry is read.

Histograms keep raw samples (bounded) and report p50/p95/max with
nearest-rank percentiles — exactly what the paper-style figures need.
"""

from __future__ import annotations

import threading
import time

from repro.obs.feedback import FOLDED, export_runs


def _label_key(labels):
    if len(labels) < 2:  # nothing to order: most instruments, every hot one
        return tuple(labels.items())
    return tuple(sorted(labels.items()))


def _render_key(name, labels):
    if not labels:
        return name
    return "%s{%s}" % (
        name, ",".join("%s=%s" % (k, v) for k, v in _label_key(labels))
    )


class Counter:
    """A monotonically increasing named counter.

    Increments are lock-protected: the serving layer
    (:mod:`repro.serve`) bumps shared counters from worker threads, and
    an unguarded read-modify-write would drop counts.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name, labels=None):
        self.name = name
        self.labels = dict(labels or {})
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        with self._lock:
            self.value += amount
            return self.value

    def key(self):
        return _render_key(self.name, self.labels)

    def __repr__(self):
        return "Counter(%s=%d)" % (self.key(), self.value)


class Gauge:
    """A named value that can go up and down (queue depth, saturation).

    ``set`` is lock-protected for the same reason counters are: the
    serving layer updates shared gauges from worker threads.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name, labels=None):
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self):
        with self._lock:
            return self._value

    def set(self, value):
        with self._lock:
            self._value = float(value)
            return self._value

    def key(self):
        return _render_key(self.name, self.labels)

    def __repr__(self):
        return "Gauge(%s=%s)" % (self.key(), self.value)


class Histogram:
    """Raw-sample histogram reporting count/sum/min/max and percentiles.

    Samples are capped at ``max_samples``; once full, every second
    retained sample is dropped and the effective sampling rate halves —
    deterministic, and fine for percentile estimates at our scales.
    """

    __slots__ = ("name", "labels", "max_samples", "count", "sum",
                 "_values", "_keep_every", "_skip", "_lock")

    def __init__(self, name, labels=None, max_samples=8192):
        self.name = name
        self.labels = dict(labels or {})
        self.max_samples = max_samples
        self.count = 0
        self.sum = 0.0
        self._values = []
        self._keep_every = 1
        self._skip = 0
        self._lock = threading.Lock()

    def record(self, value, times=1):
        """``value`` as ``times`` samples, exactly as ``times`` single
        records would leave the histogram."""
        value = float(value)
        with self._lock:
            for _ in range(times):
                self.count += 1
                self.sum += value
                self._skip += 1
                if self._skip >= self._keep_every:
                    self._skip = 0
                    self._values.append(value)
                    if len(self._values) >= self.max_samples:
                        self._values = self._values[::2]
                        self._keep_every *= 2
        return value

    def time(self):
        """Context manager recording elapsed seconds on exit."""
        return _HistogramTimer(self)

    # -- summaries --------------------------------------------------------------

    def _read(self):
        """Consistent (count, sum, retained values) under the lock.

        Readers must never touch ``self._values`` directly: ``record``
        replaces the list wholesale when it downsamples, and an unlocked
        reader could observe a half-built state mid-swap.
        """
        with self._lock:
            return self.count, self.sum, list(self._values)

    @property
    def min(self):
        _, _, values = self._read()
        return min(values) if values else None

    @property
    def max(self):
        _, _, values = self._read()
        return max(values) if values else None

    @staticmethod
    def _nearest_rank(ordered, pct):
        rank = max(
            0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1)
        )
        return ordered[rank]

    def percentile(self, pct):
        """Nearest-rank percentile over the retained samples."""
        _, _, values = self._read()
        if not values:
            return None
        return self._nearest_rank(sorted(values), pct)

    @property
    def p50(self):
        return self.percentile(50)

    @property
    def p95(self):
        return self.percentile(95)

    def summary(self):
        count, total, values = self._read()
        ordered = sorted(values)
        return {
            "count": count,
            "sum": total,
            "min": ordered[0] if ordered else None,
            "max": ordered[-1] if ordered else None,
            "p50": self._nearest_rank(ordered, 50) if ordered else None,
            "p95": self._nearest_rank(ordered, 95) if ordered else None,
        }

    def key(self):
        return _render_key(self.name, self.labels)

    def __repr__(self):
        return "Histogram(%s n=%d)" % (self.key(), self.count)


class _HistogramTimer:
    __slots__ = ("_histogram", "_start", "elapsed")

    def __init__(self, histogram):
        self._histogram = histogram
        self._start = None
        self.elapsed = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self._start
        self._histogram.record(self.elapsed)
        return False


#: distinct plan runs the registry tallies; a run that finds the tally
#: full and its key not in it is folded alone, at once
PENDING_RUNS = 64


class MetricsRegistry:
    """Keyed store of counters and histograms.

    Get-or-create is lock-protected so two worker threads asking for the
    same key always receive the same instrument (an unguarded race would
    hand out two counters and lose one's increments).

    A plan run reports in one call, :meth:`plan_run`, which tallies it
    by what it observed; the instruments the tally is folded into
    (:data:`repro.obs.feedback.FOLDED`) are brought up to date when the
    registry is read: a getter of one of them, :meth:`counters`,
    :meth:`histograms`, :meth:`counter_total`, :meth:`snapshot`.
    """

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._lock = threading.Lock()
        #: how often :meth:`reset` ran: whoever holds instruments across
        #: requests resolves them again once this has moved
        self.generation = 0
        #: ``{(table, rows, opens, complete): runs}`` not yet folded
        self._runs = {}
        # held across a whole fold, so a reader waits for one under way
        self._fold_lock = threading.Lock()
        self._execute_seconds = None

    def _instrument(self, store, kind, name, labels):
        key = (name, _label_key(labels))
        instrument = store.get(key)
        if instrument is None:
            with self._lock:
                instrument = store.get(key)
                if instrument is None:
                    instrument = store[key] = kind(name, labels)
        return instrument

    # get-or-create without folding: what the fold itself writes through
    def _counter(self, name, labels):
        return self._instrument(self._counters, Counter, name, labels)

    def _histogram(self, name, labels):
        return self._instrument(self._histograms, Histogram, name, labels)

    def counter(self, name, **labels):
        if self._runs and name in FOLDED:
            self._fold()
        return self._counter(name, labels)

    def gauge(self, name, **labels):
        return self._instrument(self._gauges, Gauge, name, labels)

    def histogram(self, name, **labels):
        if self._runs and name in FOLDED:
            self._fold()
        return self._histogram(name, labels)

    # -- plan runs --------------------------------------------------------------

    def plan_run(self, table, rows, opens, seconds, complete=True):
        """One run of an optimized plan, in one call: a
        ``plan.execute_seconds`` sample of ``seconds`` now, and the run
        tallied by what it observed — its
        :class:`~repro.rdb.binding.Observation` ``table`` and per-slot
        ``rows`` and ``opens`` tuples (all None: the run was not
        profiled); ``complete=False``: its consumer stopped it early.
        The tally is folded (:func:`repro.obs.feedback.export_runs`)
        when the registry is read.  It holds :data:`PENDING_RUNS`
        distinct runs: a run whose key is new to a full tally is folded
        alone, now, which costs it about what the per-run fold always
        did."""
        histogram = self._execute_seconds
        if histogram is None:
            histogram = self._execute_seconds = self._histogram(
                "plan.execute_seconds", {})
        histogram.record(seconds)
        key = (table, rows, opens, complete)
        with self._lock:
            runs = self._runs
            count = runs.get(key)
            if count is not None or len(runs) < PENDING_RUNS:
                runs[key] = (count or 0) + 1
                return
        export_runs({key: 1}, self)

    def _fold(self):
        """Bring the folded instruments up to date with every plan run
        tallied so far."""
        with self._fold_lock:
            with self._lock:
                runs, self._runs = self._runs, {}
            if runs:
                export_runs(runs, self)

    # -- reading ----------------------------------------------------------------

    def counters(self, name=None):
        """All counters, optionally filtered by name."""
        self._fold()
        with self._lock:
            values = list(self._counters.values())
        return [
            counter for counter in values
            if name is None or counter.name == name
        ]

    def gauges(self, name=None):
        """All gauges, optionally filtered by name."""
        with self._lock:
            values = list(self._gauges.values())
        return [
            gauge for gauge in values
            if name is None or gauge.name == name
        ]

    def histograms(self, name=None):
        """All histograms, optionally filtered by name."""
        self._fold()
        with self._lock:
            values = list(self._histograms.values())
        return [
            histogram for histogram in values
            if name is None or histogram.name == name
        ]

    def counter_total(self, name):
        """Sum of one counter across all label sets."""
        return sum(counter.value for counter in self.counters(name))

    def snapshot(self):
        """JSON-friendly dump of everything recorded so far.

        Taken against a locked copy of the instrument maps, so worker
        threads registering or recording new instruments mid-snapshot
        (the serve tier does both) never mutate the dicts under the
        iteration.
        """
        self._fold()
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        snapshot = {
            "counters": {
                counter.key(): counter.value for counter in counters
            },
            "histograms": {
                histogram.key(): histogram.summary()
                for histogram in histograms
            },
        }
        if gauges:
            snapshot["gauges"] = {
                gauge.key(): gauge.value for gauge in gauges
            }
        return snapshot

    def reset(self):
        """Drop every instrument, and the plan runs not yet folded."""
        with self._fold_lock, self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._runs = {}
            self._execute_seconds = None
            self.generation += 1


def merge_snapshots(snapshots):
    """Aggregate registry snapshots from several processes into one.

    Process workers each keep a private registry (instrument objects
    cannot be shared across processes); ``TransformService.stats``
    merges their :meth:`MetricsRegistry.snapshot` dicts through this.
    Counters and gauges sum per key.  Histogram summaries combine
    ``count``/``sum`` additively and take the extreme ``min``/``max`` —
    percentiles are *dropped*: p50/p95 of separate sample sets cannot be
    merged exactly, and a wrong quantile is worse than none.
    """
    counters = {}
    gauges = {}
    histograms = {}
    for snapshot in snapshots:
        for key, value in (snapshot.get("counters") or {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in (snapshot.get("gauges") or {}).items():
            gauges[key] = gauges.get(key, 0.0) + value
        for key, summary in (snapshot.get("histograms") or {}).items():
            merged = histograms.get(key)
            if merged is None:
                merged = histograms[key] = {
                    "count": 0, "sum": 0.0, "min": None, "max": None,
                }
            merged["count"] += summary.get("count") or 0
            merged["sum"] += summary.get("sum") or 0.0
            for field, pick in (("min", min), ("max", max)):
                value = summary.get(field)
                if value is None:
                    continue
                merged[field] = value if merged[field] is None \
                    else pick(merged[field], value)
    merged_snapshot = {"counters": counters, "histograms": histograms}
    if gauges:
        merged_snapshot["gauges"] = gauges
    return merged_snapshot


_GLOBAL_METRICS = MetricsRegistry()


def global_metrics():
    """The process-wide default registry."""
    return _GLOBAL_METRICS


def set_metrics(registry):
    """Replace the global registry (tests); returns the previous one."""
    global _GLOBAL_METRICS
    previous = _GLOBAL_METRICS
    _GLOBAL_METRICS = registry
    return previous
