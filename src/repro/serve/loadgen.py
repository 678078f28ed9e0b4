"""Closed-loop load generator for the serving tier.

``run_load`` drives N client threads against a service; each client
issues its next request only after the previous one completes (a
*closed loop* — offered load tracks service capacity, the standard
harness shape for latency work).  Per-request wall latency, strategy,
and cache behaviour are collected into a :class:`LoadReport` with
throughput and nearest-rank p50/p95/p99.

``run_soak`` is the sustained variant: instead of a fixed request
count, clients hammer the service for a wall-clock **duration** — the
shape used to soak process workers (N worker processes × M closed-loop
clients, mixed hit/miss workload)
and read a stable p99 off the steady state.

Both run against anything with a blocking ``transform(source,
stylesheet, options=...)`` returning a result with ``cache_hit`` and
``strategy`` — thread workers take live source objects, process
workers take source *names* (the :class:`WorkItem` carries whichever).

The workload is a sequence of :class:`WorkItem` (source, stylesheet,
kwargs); clients walk it round-robin starting at their own offset so a
multi-case workload interleaves across clients.
"""

from __future__ import annotations

import threading
import time

from repro.api import TransformOptions


class WorkItem:
    """One request template the generator replays."""

    __slots__ = ("name", "source", "stylesheet", "kwargs")

    def __init__(self, source, stylesheet, name=None, **kwargs):
        self.name = name or "item"
        self.source = source
        self.stylesheet = stylesheet
        self.kwargs = kwargs


class LoadReport:
    """Aggregate results of one ``run_load`` run."""

    __slots__ = ("clients", "requests", "errors", "elapsed_seconds",
                 "latencies_seconds", "cache_hits", "strategies",
                 "error_types", "service_latency", "queue")

    def __init__(self, clients):
        self.clients = clients
        self.requests = 0
        self.errors = 0
        self.elapsed_seconds = 0.0
        self.latencies_seconds = []
        self.cache_hits = 0
        self.strategies = {}
        self.error_types = {}
        #: service-side ``serve.request.latency`` summaries keyed by
        #: label set (``cache=hit``/``cache=miss``) — the shared
        #: admission→response latency definition
        self.service_latency = {}
        #: admission-queue state at run end (depth/capacity/saturation
        #: plus the total rejection count), from ``service.health()``
        self.queue = {}

    # -- summaries --------------------------------------------------------------

    @property
    def throughput_rps(self):
        if not self.elapsed_seconds:
            return 0.0
        return self.requests / self.elapsed_seconds

    @property
    def hit_ratio(self):
        return (self.cache_hits / self.requests) if self.requests else 0.0

    def latency_ms(self, pct):
        """Nearest-rank percentile of request latency, in milliseconds."""
        if not self.latencies_seconds:
            return None
        ordered = sorted(self.latencies_seconds)
        rank = max(
            0,
            min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered))) - 1),
        )
        return ordered[rank] * 1000.0

    @property
    def mean_latency_ms(self):
        if not self.latencies_seconds:
            return None
        return (sum(self.latencies_seconds)
                / len(self.latencies_seconds)) * 1000.0

    def as_dict(self):
        return {
            "clients": self.clients,
            "requests": self.requests,
            "errors": self.errors,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_rps": self.throughput_rps,
            "hit_ratio": self.hit_ratio,
            "latency_ms": {
                "mean": self.mean_latency_ms,
                "p50": self.latency_ms(50),
                "p95": self.latency_ms(95),
                "p99": self.latency_ms(99),
            },
            "strategies": dict(self.strategies),
            "error_types": dict(self.error_types),
            "service_latency": dict(self.service_latency),
            "queue": dict(self.queue),
        }


def _drive(service, workload, report, keep_going, timeout, thread_name):
    """The closed-loop client body both generators share: ``clients``
    threads walk ``workload`` round-robin (each from its own offset),
    issuing request ``n`` while ``keep_going(n)`` holds, and merge their
    tallies into ``report``.  Request failures are counted by exception
    type, never raised."""
    workload = list(workload)
    if not workload:
        raise ValueError("workload is empty")
    lock = threading.Lock()

    def client_loop(client_index):
        local_latencies = []
        local_hits = 0
        local_strategies = {}
        local_errors = {}
        n = 0
        while keep_going(n):
            item = workload[(client_index + n) % len(workload)]
            n += 1
            kwargs = dict(item.kwargs)
            opts = TransformOptions.coerce(kwargs.pop("options", None))
            if timeout is not None:
                opts = opts.replace(deadline=timeout)
            start = time.perf_counter()
            try:
                result = service.transform(
                    item.source, item.stylesheet, options=opts, **kwargs
                )
            except Exception as exc:
                name = type(exc).__name__
                local_errors[name] = local_errors.get(name, 0) + 1
                continue
            local_latencies.append(time.perf_counter() - start)
            if result.cache_hit:
                local_hits += 1
            local_strategies[result.strategy] = (
                local_strategies.get(result.strategy, 0) + 1
            )
        with lock:
            report.latencies_seconds.extend(local_latencies)
            report.requests += len(local_latencies)
            report.cache_hits += local_hits
            for strategy, count in local_strategies.items():
                report.strategies[strategy] = (
                    report.strategies.get(strategy, 0) + count
                )
            for name, count in local_errors.items():
                report.error_types[name] = (
                    report.error_types.get(name, 0) + count
                )
                report.errors += count

    threads = [
        threading.Thread(target=client_loop, args=(index,),
                         name="%s-%d" % (thread_name, index))
        for index in range(report.clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.elapsed_seconds = time.perf_counter() - start
    _attach_service_state(report, service)
    return report


def run_load(service, workload, clients=4, requests_per_client=25,
             timeout=None):
    """Drive ``clients`` closed-loop threads over ``workload``.

    Each client issues ``requests_per_client`` requests through
    ``service.transform`` (blocking — closed loop), walking the workload
    round-robin from its own offset.  Returns the merged
    :class:`LoadReport`.  Request failures are counted (by exception
    type), never raised.
    """
    return _drive(service, workload, LoadReport(clients),
                  lambda n: n < requests_per_client, timeout,
                  "repro-loadgen")


def _attach_service_state(report, service):
    """Fold the service's own view (shared latency histogram, queue
    state) into a finished report."""
    metrics = getattr(service, "metrics", None)
    if metrics is not None:
        for histogram in metrics.histograms("serve.request.latency"):
            report.service_latency[histogram.key()] = histogram.summary()
    health = getattr(service, "health", None)
    if callable(health):
        body = health()
        report.queue = dict(body.get("queue") or {})
        report.queue["rejected"] = body.get("rejected", 0)


class SoakReport(LoadReport):
    """A :class:`LoadReport` from a duration-bounded (soak) run."""

    __slots__ = ("duration_seconds",)

    def __init__(self, clients, duration_seconds):
        super().__init__(clients)
        self.duration_seconds = duration_seconds

    def as_dict(self):
        body = super().as_dict()
        body["duration_seconds"] = self.duration_seconds
        return body


def run_soak(service, workload, clients=4, duration_seconds=5.0,
             timeout=None):
    """Sustained closed-loop soak: ``clients`` threads issue requests
    round-robin over ``workload`` until ``duration_seconds`` of wall
    clock have elapsed (in-flight requests finish; none are abandoned).

    Returns a :class:`SoakReport` — same latency/hit/strategy summaries
    as :func:`run_load`, plus the configured duration.  Use a workload
    mixing repeated items (cache hits) with distinct stylesheets (cold
    misses) to soak both paths of a multi-process cluster at once.
    Request failures are counted by exception type, never raised.
    """
    if duration_seconds <= 0:
        raise ValueError("duration_seconds must be > 0")
    stop_at = time.perf_counter() + duration_seconds
    return _drive(service, workload, SoakReport(clients, duration_seconds),
                  lambda n: time.perf_counter() < stop_at, timeout,
                  "repro-soak")
