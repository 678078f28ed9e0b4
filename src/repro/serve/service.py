"""`TransformService`: concurrent ``XMLTransform()`` with plan reuse.

The paper's function runs inside a database server, where many sessions
transform concurrently and the same (stylesheet, source) pair repeats.
:class:`TransformService` is that server's **front door**, one for every
worker backend:

* a **bounded admission queue** — overload fails fast with
  :class:`ServiceOverloadedError` instead of queueing without bound;
* requests carry **deadlines** (enforced when a worker claims the
  request — one that waited past its deadline never executes — and
  between row batches of plan execution), and can be **cancelled**
  while still queued;
* each worker has one **slot**: whoever holds slot *i* is the only one
  running on worker *i*.  A synchronous :meth:`transform` that finds
  a live worker idle and the service not oversubscribed (nothing
  queued, no dispatcher busy, no more threads waiting for results than
  workers) takes that
  slot and **runs on the caller's thread** — the way the paper's
  ``XMLTransform()`` runs in the session that calls it, with no thread
  hand-off.  Everything else is queued; a dispatcher thread takes the
  oldest queued request only together with a free live slot, so a
  queued request never waits behind a busy worker while another sits
  idle, and the queue depth counts every request not yet running.
  Either way the request goes through one claim → deadline → run →
  record → resolve path;
* a **thread** worker calls the shared
  :class:`~repro.serve.runtime.PlanRuntime` in-process, a **process**
  worker ships the request over a pipe to a child that owns an
  identical runtime (:mod:`repro.serve.cluster`).  How a claimed
  request is run is the *only* thing the backends vary;
* every request is traced by the service's one
  :class:`~repro.obs.trace.Tracer` (an ``Engine.serve()`` service's is
  the engine's): the front door opens the request's root span
  (``serve.request`` on thread workers; ``cluster.request`` →
  ``cluster.worker`` across a pipe) recording queue wait, cache outcome
  and strategy, with a ``serve.execute`` child around plan/VM
  execution; a cache hit's trace contains *no* compile spans at all;
* every terminal status — ok, rejected, timeout, cancelled, error —
  lands in the flight recorder under the request's trace id, with the
  spans of the root tree(s) the request opened.

Metrics (``repro.obs``): ``serve.requests``, ``serve.completed``
(labelled by strategy and cache hit), ``serve.rejected{reason}``,
``serve.timeouts``, ``serve.cancelled``, ``serve.errors``, the
``serve.queue.depth|capacity|saturation`` gauges, the
``serve.queue_wait_seconds`` / ``serve.execute_seconds`` /
``serve.request_seconds`` histograms and
``serve.request.latency{cache=hit|miss}`` — the one end-to-end
(admission→response) latency definition the benches report — plus the
plan runtime's ``serve.cache.*`` family.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import threading
import time

from repro.api import TransformOptions
from repro.errors import DeadlineExceededError
from repro.core.transform import execute_compiled_stream
from repro.obs import get_tracer, global_metrics
from repro.obs.recorder import FlightRecorder, transform_fields
from repro.obs.trace import (
    NULL_SPAN,
    TraceContext,
    current_trace_context,
    new_trace_id,
    use_trace_context,
)
from repro.serve.cluster import ClusterWorkerError, ProcessWorkers
from repro.serve.runtime import PlanRuntime, ServeError, stylesheet_key


class ServiceOverloadedError(ServeError):
    """The admission queue is full — the request was rejected."""


class ServiceClosedError(ServeError):
    """The service no longer accepts requests."""


class RequestTimeoutError(ServeError):
    """The request's deadline passed before (or while) it ran."""


class RequestCancelledError(ServeError):
    """The request was cancelled before a worker picked it up."""


class ServeFuture(concurrent.futures.Future):
    """Handle to one submitted request: a standard
    :class:`concurrent.futures.Future` that speaks the serving tier's
    typed errors.

    ``result(timeout)`` blocks for the
    :class:`~repro.serve.runtime.ServeResult` (re-raising the request's
    failure); ``cancel()`` succeeds only while the request is still
    queued.
    """

    def __init__(self, trace_id=None):
        super().__init__()
        #: trace id assigned at admission — usable to look the request
        #: up in the flight recorder (``service.recorder.get(id)``) even
        #: before (or without) a result
        self.trace_id = trace_id
        #: set by submit(): the service that counts a thread blocked here
        #: among its waiters
        self._service = None

    def exception(self, timeout=None):
        service = self._service if not self.done() else None
        if service is not None:
            service._count_waiter(1)
        try:
            return super().exception(timeout)
        except concurrent.futures.CancelledError:
            return RequestCancelledError("request cancelled")
        except concurrent.futures.TimeoutError:
            raise RequestTimeoutError(
                "no result within %.3fs" % timeout
            ) from None
        finally:
            if service is not None:
                service._count_waiter(-1)

    def result(self, timeout=None):
        error = self.exception(timeout)
        if error is not None:
            raise error
        return super().result()


class _Request:
    __slots__ = ("future", "name", "source", "stylesheet", "options",
                 "params", "deadline", "submitted_at", "context",
                 "started_wall")

    def __init__(self, future, name, source, stylesheet, options, params,
                 deadline, submitted_at, context, started_wall):
        self.future = future
        #: flight-record label; None = the stylesheet key's tail
        #: (content-hash prefix or object id), worked out when recorded
        self.name = name
        self.source = source
        self.stylesheet = stylesheet
        self.options = options  # always a TransformOptions
        self.params = params
        self.deadline = deadline
        self.submitted_at = submitted_at
        #: TraceContext minted (or adopted) at admission — activated on
        #: whichever thread runs the request, so every span joins its trace
        self.context = context
        #: wall-clock admission time (``time.time``), for the recorder
        self.started_wall = started_wall


#: the counter each terminal failure status increments
_FAILURE_COUNTERS = {"timeout": "serve.timeouts", "error": "serve.errors"}


def _ingress_context():
    """The trace context a request is admitted under: the ambient
    trace's ids (taken now: the caller's span may finish before the
    request runs), else a fresh trace.  Every span of the request, on
    any thread or across a worker process's pipe, joins it."""
    ambient = current_trace_context()
    if ambient is None:
        return TraceContext(new_trace_id())
    return TraceContext(ambient.trace_id, ambient.span_id)


class ThreadWorkers:
    """N worker threads sharing one in-process
    :class:`~repro.serve.runtime.PlanRuntime` — the backend without a
    transport.  Threads do not die on their own, so every worker is
    always live."""

    #: the root span the front door opens around each request
    root_span = "serve.request"

    def __init__(self, runtime, workers):
        self.runtime = runtime
        self.store = runtime.store
        self.size = workers

    def check(self, source, stylesheet):
        """Anything goes in-process: live sources or names, markup or
        pre-compiled stylesheets."""

    def live(self):
        return range(self.size)

    def alive(self, worker):
        return True

    def run(self, worker, request, root):
        """Run one claimed request in-process inside its ``root`` span;
        returns the :class:`~repro.serve.runtime.ServeResult` and no
        span records from elsewhere."""
        opts = request.options
        root.set_attr(rewrite=opts.effective_rewrite())
        return self.runtime.run(request.source, request.stylesheet, opts,
                                request.params, root), ()

    def control(self, op, payload=None, worker=None):
        return [self.runtime.control(op, payload)]

    def stats(self):
        return self.runtime.cache.stats().as_dict()

    def close(self):
        """Nothing to release: the runtime lives as long as the service."""


class TransformService:
    """Concurrent transformation service: one admission front door over
    thread or process workers.

    :param db: the :class:`~repro.rdb.database.Database` to serve from
        (process workers inherit it at fork; ignored with ``factory``).
    :param workers: worker count (threads or processes).
    :param backend: ``"thread"`` — workers are threads calling one
        shared plan runtime in-process — or ``"process"`` — each worker
        is a child process with its own runtime (CPU-bound transforms
        scale past one core); requests then name their source and carry
        stylesheet markup text, results carry serialized rows, and
        ``transform_stream`` is unavailable.
    :param sources: ``{name: source}`` — what requests may refer to by
        name (process workers take only names; threads also take the
        live object).
    :param queue_size: admission-queue bound (0 = unbounded); a full
        queue rejects with :class:`ServiceOverloadedError`.
    :param cache: a tier-1 :class:`~repro.serve.cache.PlanCache` for the
        in-process runtime; omitted, each runtime (here or in a worker
        process) builds one from ``cache_capacity``.
    :param artifact_dir: directory of the persistent second cache tier
        (:class:`~repro.serve.artifact.ArtifactStore`): a tier-1 miss is
        looked up on disk before compiling and every fresh compile is
        persisted, so a restarted service or a sibling process on the
        same directory serves repeats warm.  Omitted, thread workers
        have no disk tier and process workers share a temporary one
        (removed on close).
    :param default_timeout: per-request deadline in seconds applied when
        the request's options carry none (None = no deadline).
    :param tracer: the :class:`~repro.obs.trace.Tracer` every request
        is traced by (default: the global tracer, as at every other
        door): its spans land in the flight recorder and, in-process, on
        ``ServeResult.trace``; a disabled tracer records no spans.
        Process workers each trace with their own ``Tracer`` of the same
        ``enabled``; the spans they ship back reach the flight recorder,
        not this tracer's sinks.
    :param recorder: the flight recorder of recent requests
        (``service.recorder``) — a
        :class:`~repro.obs.recorder.FlightRecorder`, True (default
        retention) or False/None to disable.
    :param factory: process workers only — a picklable zero-argument
        callable returning ``(db, sources)``, built inside each worker
        (required with the ``spawn`` start method; what a deployment
        would use to open its own storage).
    :param start_method: process workers only — ``"fork"`` (default
        where available) or ``"spawn"``.
    """

    def __init__(self, db=None, workers=4, backend="thread", sources=None,
                 queue_size=64, cache=None, cache_capacity=128,
                 artifact_dir=None, default_timeout=None, metrics=None,
                 tracer=None, recorder=True,
                 factory=None, start_method=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in ("thread", "process"):
            raise ValueError(
                "invalid backend %r: expected 'thread' or 'process'"
                % (backend,)
            )
        if default_timeout is not None and default_timeout < 0:
            raise ValueError(
                "invalid default_timeout %r: expected seconds >= 0 (or None)"
                % (default_timeout,)
            )
        self.db = db
        self.metrics = metrics or global_metrics()
        self.tracer = tracer or get_tracer()
        if recorder is True:
            recorder = FlightRecorder()
        elif recorder is False:
            recorder = None
        self.recorder = recorder
        self.default_timeout = default_timeout
        self.queue_size = queue_size
        #: admitted requests not yet running, oldest first: one leaves
        #: only together with the slot it runs on, so the length is the
        #: depth the bound and the gauges read
        self._pending = collections.deque()
        self._closed = False
        #: one per worker: whoever holds slot i — a dispatcher or a
        #: caller running its own request — is the only one running on
        #: worker i (a process worker's pipe is the holder's)
        self._busy = [False] * workers
        #: slots held by dispatchers, and threads waiting for a result
        #: (inside transform(), or blocked on a submitted request's
        #: future): together they tell an oversubscribed service
        self._dispatching = 0
        self._waiters = 0
        #: requests this service turned away (its own tally: the
        #: ``serve.rejected`` counter may be shared with other services)
        self._rejected = 0
        #: guards the queue, the slots and ``_closed``: admission is
        #: atomic against close() and against the last worker dying, so
        #: no request lands in a queue nobody drains
        self._lock = threading.Lock()
        #: dispatchers wait here for a queued request and a free slot
        self._work = threading.Condition(self._lock)
        #: transform_on() and close() wait here for a slot to free
        self._freed = threading.Condition(self._lock)
        self._gauge_depth = self.metrics.gauge("serve.queue.depth")
        self._gauge_saturation = self.metrics.gauge("serve.queue.saturation")
        self.metrics.gauge("serve.queue.capacity").set(queue_size)
        self._update_queue_gauges()
        runtime_options = dict(
            cache_capacity=cache_capacity, artifact_dir=artifact_dir,
        )
        if backend == "thread":
            self._backend = ThreadWorkers(
                PlanRuntime(db, sources, cache=cache, metrics=self.metrics,
                            tracer=self.tracer, **runtime_options),
                workers,
            )
        else:
            if cache is not None:
                raise ValueError(
                    "a PlanCache instance cannot be shared with worker "
                    "processes — pass cache_capacity"
                )
            self._backend = ProcessWorkers(
                db, sources, workers, factory, start_method,
                self.tracer, self.metrics, runtime_options,
            )
        #: this process's handle on the disk tier (None without one)
        self.artifact_store = self._backend.store
        # as many dispatchers as slots: every free slot has one to fill it
        self._dispatchers = []
        for index in range(workers):
            thread = threading.Thread(
                target=self._dispatch_loop,
                name="repro-serve-%d" % index, daemon=True,
            )
            thread.start()
            self._dispatchers.append(thread)

    @property
    def cache(self):
        """The in-process tier-1 plan cache (None with process workers,
        whose caches live in the children — see :meth:`worker_stats`)."""
        runtime = self._backend.runtime
        return runtime.cache if runtime is not None else None

    def _queue_state(self):
        """Queue occupancy: depth/capacity plus their ratio, the
        saturation signal :meth:`health` reports."""
        depth = len(self._pending)
        return {
            "depth": depth,
            "capacity": self.queue_size,
            "saturation": (depth / float(self.queue_size))
            if self.queue_size else 0.0,
        }

    def _update_queue_gauges(self):
        state = self._queue_state()
        self._gauge_depth.set(state["depth"])
        self._gauge_saturation.set(state["saturation"])

    # -- client API --------------------------------------------------------------

    def _request(self, source, stylesheet, options, params, name=None):
        if self._closed:
            raise ServiceClosedError("service is closed")
        opts = TransformOptions.coerce(options)
        self._backend.check(source, stylesheet)
        deadline_s = opts.deadline if opts.deadline is not None \
            else self.default_timeout
        context = _ingress_context()
        now = time.perf_counter()
        return _Request(
            ServeFuture(trace_id=context.trace_id), name,
            source, stylesheet, opts, params,
            deadline=(now + deadline_s) if deadline_s is not None else None,
            submitted_at=now, context=context, started_wall=time.time(),
        )

    def submit(self, source, stylesheet, options=None, params=None):
        """Enqueue one request; returns a :class:`ServeFuture`.

        ``options.deadline`` (seconds, default ``default_timeout``)
        bounds the request's *total* life: a request still queued past
        its deadline fails with :class:`RequestTimeoutError` instead of
        executing.  Submitted inside a trace — an open span, or
        ``use_trace_context`` around the call — the request joins it
        (``future.trace_id``) instead of minting its own.
        """
        request = self._request(source, stylesheet, options, params)
        self._admit(request)
        request.future._service = self
        return request.future

    def _count_waiter(self, delta):
        with self._lock:
            self._waiters += delta

    def transform(self, source, stylesheet, options=None, params=None):
        """Run one request and wait for it; returns the
        :class:`~repro.serve.runtime.ServeResult`.

        While the service is not oversubscribed — nothing queued, no
        dispatcher busy, no more threads waiting for results than
        workers — and a live worker is idle, the request takes that
        worker's slot and runs on the caller's thread (queue wait ~0);
        otherwise it is queued like :meth:`submit`'s and waited for.
        Either way the deadline, metrics and flight record are
        :meth:`submit`'s; the caller waits without its own limit so
        in-flight execution can finish."""
        request = self._request(source, stylesheet, options, params)
        with self._lock:
            self._waiters += 1
            # Queued requests go first, and an oversubscribed service
            # serves everyone through the queue: a caller running in
            # place never blocks, so it keeps the GIL from the clients
            # a dispatcher has just answered (DESIGN §8.3: 4 clients
            # over 2 thread workers, p99 16 -> 30 ms without this).
            worker = None if (
                self._closed or self._pending or self._dispatching
                or self._waiters > len(self._busy)) else self._claim()
        try:
            if worker is None:
                self._admit(request)
            else:
                self.metrics.counter("serve.requests").inc()
                self._run_on(worker, request)
            return request.future.result()
        finally:
            self._count_waiter(-1)

    def transform_on(self, worker, source, stylesheet, options=None,
                     params=None):
        """Run on one *specific* worker from the caller's thread,
        bypassing the shared queue (waiting for the worker's slot) — the
        deterministic routing tests and benchmarks use to prove
        cross-worker cache behaviour."""
        request = self._request(source, stylesheet, options, params)
        with self._lock:
            while self._busy[worker] and not self._closed:
                self._freed.wait()
            if self._closed:
                raise ServiceClosedError("service is closed")
            self._busy[worker] = True
        self.metrics.counter("serve.requests").inc()
        self._run_on(worker, request)
        return request.future.result()

    def _admit(self, request):
        """Queue a request for the dispatchers, or reject it: closed,
        no live worker, or the queue is full."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if not self._backend.live():
                reason, error = "no-workers", ClusterWorkerError(
                    "no worker process is alive"
                )
            elif 0 < self.queue_size <= len(self._pending):
                reason, error = "queue-full", ServiceOverloadedError(
                    "admission queue full (%d pending)" % self.queue_size
                )
            else:
                self._pending.append(request)
                self._work.notify()
                error = None
            if error is not None:
                self._rejected += 1
        self._update_queue_gauges()
        if error is not None:
            self.metrics.counter("serve.rejected", reason=reason).inc()
            self._record(request, "rejected", error=str(error))
            raise error
        self.metrics.counter("serve.requests").inc()

    def transform_stream(self, source, stylesheet, options=None,
                         params=None):
        """Streaming transform: returns a
        :class:`~repro.core.transform.TransformStream` of serialized
        output chunks.

        Runs on the *caller's* thread (a slow chunk consumer must not
        occupy a worker) but through the same step and plan cache as a
        materialized request, so a hot (stylesheet, source) pair streams
        without compiling and every option — the deadline too — holds.
        The compile and the chunk drain run under one trace
        (``stream.trace_id``, the ambient trace's when there is one) and
        the drained request is flight-recorded like a materialized one.
        Needs the plan runtime in this process: with process workers it
        raises :class:`ServeError` (chunks do not cross the pipe).
        """
        runtime = self._backend.runtime
        if runtime is None:
            raise ServeError(
                "transform_stream needs thread workers: process workers "
                "do not stream chunks over the pipe"
            )
        request = self._request(source, stylesheet, options, params,
                                name="stream")
        self.metrics.counter("serve.stream_requests").inc()
        with use_trace_context(request.context):
            with self.tracer.span("serve.stream.compile") as compiled:
                stream = runtime.open(
                    execute_compiled_stream, source, stylesheet,
                    request.options, params, deadline=request.deadline,
                )
                compiled.set_attr(cache_hit=stream.cache_hit)
        self.metrics.counter(
            "serve.stream_cache", cache="hit" if stream.cache_hit else "miss"
        ).inc()
        stream.chunks = self._drained(stream, stream.chunks, request,
                                      compiled)
        return stream

    def _drained(self, stream, chunks, request, compiled):
        """Wrap a stream's chunk iterator so the drain — which may run
        on any thread, any time after submission — happens under the
        request's trace (a ``serve.stream.drain`` span joined by trace
        id, the run's own span beneath it) and the finished request
        lands in the flight recorder with both of its root trees: the
        ``compiled`` span and the drain."""
        status = "ok"
        error = None
        bytes_out = 0
        drain = NULL_SPAN
        try:
            with use_trace_context(request.context):
                with self.tracer.span("serve.stream.drain") as drain:
                    for chunk in chunks:
                        bytes_out += len(chunk)
                        yield chunk
                    drain.set_attr(bytes_out=bytes_out,
                                   strategy=stream.strategy)
        except BaseException as exc:
            status = "error"
            error = "%s: %s" % (type(exc).__name__, exc)
            self.metrics.counter("serve.errors").inc()
            raise
        finally:
            stream.run.total_seconds = \
                time.perf_counter() - request.submitted_at
            self._record(request, status,
                         spans=itertools.chain(compiled.iter_spans(),
                                               drain.iter_spans()),
                         error=error, bytes_out=bytes_out,
                         **transform_fields(stream))

    # -- control plane -----------------------------------------------------------

    def ping(self):
        """Round-trip every live worker process (or the in-process
        runtime); returns their pids."""
        return self._backend.control("ping")

    def analyze(self, table=None, worker=None):
        """Run ANALYZE where the plans run — on one ``worker`` process
        (propagating the invalidation to its siblings through the shared
        epoch) or on all of them."""
        return self._backend.control("analyze", table, worker=worker)

    def invalidate(self, source):
        """Evict every plan compiled against ``source`` (a name, or with
        thread workers the live object) from every tier-1 cache and the
        disk tier; returns the number of entries removed.  Call after
        DDL that changes a source's schema, view definition or
        indexes."""
        return sum(reply["removed"]
                   for reply in self._backend.control("invalidate", source))

    def worker_stats(self):
        """Each live plan runtime's cache/disk/metrics snapshot."""
        return self._backend.control("stats")

    def stats(self):
        """Plan-cache statistics (thread workers: the shared tier-1
        cache's counters at top level; process workers: per-worker
        snapshots merged into ``tier1``/``tier2``/``metrics``) plus
        queue/worker occupancy."""
        stats = self._backend.stats()
        for key, value in self._queue_state().items():
            stats["queue_" + key] = value
        stats["workers"] = self._backend.size
        stats["workers_alive"] = len(self._backend.live())
        return stats

    def health(self):
        """Liveness status (``degraded`` once a worker process has
        died) plus the saturation and cache signals an operator triages
        overload with; ``rejected`` counts this service's rejections."""
        alive = len(self._backend.live())
        body = {
            "status": "closed" if self._closed
            else ("degraded" if alive < self._backend.size else "ok"),
            "workers": alive,
            "queue": self._queue_state(),
            "rejected": self._rejected,
        }
        if self.cache is not None:
            body["cache"] = self.cache.stats().as_dict()
        if self.recorder is not None:
            body["recorder"] = self.recorder.stats()
        return body

    def close(self, wait=True):
        """Stop accepting requests; drain queued work, let in-flight
        requests finish, stop workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._work.notify_all()
            self._freed.notify_all()
        if wait:
            for thread in self._dispatchers:
                thread.join()
        # a request running on a caller's thread finishes before its
        # runtime or pipe closes: hold every slot while the backend closes
        with self._lock:
            for worker in range(len(self._busy)):
                while self._busy[worker]:
                    self._freed.wait()
                self._busy[worker] = True
        try:
            self._backend.close()
        finally:
            with self._lock:
                self._busy = [False] * len(self._busy)
                self._work.notify_all()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- running a request --------------------------------------------------------

    def _dispatch_loop(self):
        while True:
            with self._lock:
                while True:
                    if self._pending:
                        worker = self._claim()
                        if worker is not None:
                            request = self._pending.popleft()
                            self._dispatching += 1
                            break
                        if not self._backend.live():
                            stranded = list(self._pending)
                            self._pending.clear()
                            break
                    elif self._closed:
                        # a sibling that went back to waiting after
                        # close() (queue not yet empty, no slot free)
                        # hears of the empty queue from no one else
                        self._work.notify_all()
                        return
                    self._work.wait()
            if worker is not None:
                self._run_on(worker, request, dispatched=True)
                continue
            # every worker is dead: what is queued fails fast
            self._update_queue_gauges()
            now = time.perf_counter()
            for item in stranded:
                if item.future.set_running_or_notify_cancel():
                    self._fail(item, "error", ClusterWorkerError(
                        "no worker process is alive"), now - item.submitted_at)

    def _claim(self):
        """Take the slot of a live, idle worker (lock held): the worker,
        or None when every live worker is busy.  A worker found dead
        while idle is skipped — noticed without sacrificing a request."""
        for worker, busy in enumerate(self._busy):
            if not busy and self._backend.alive(worker):
                self._busy[worker] = True
                return worker
        return None

    def _run_on(self, worker, request, dispatched=False):
        """Run a request on ``worker``, whose slot this thread has
        claimed, then free the slot for the next request."""
        try:
            self._handle(worker, request)
        finally:
            with self._lock:
                self._busy[worker] = False
                if dispatched:
                    self._dispatching -= 1
                if self._pending:
                    self._work.notify()
                self._freed.notify_all()

    def _handle(self, worker, request):
        """One request on ``worker``, whose slot this thread holds —
        dequeued by a dispatcher or run where its caller waits: claim →
        deadline → run."""
        self._update_queue_gauges()
        now = time.perf_counter()
        queue_wait = now - request.submitted_at
        if not request.future.set_running_or_notify_cancel():
            self.metrics.counter("serve.cancelled").inc()
            self._record(request, "cancelled",
                         queue_wait_seconds=queue_wait)
        elif request.deadline is not None and now >= request.deadline:
            self._fail(request, "timeout", RequestTimeoutError(
                "deadline exceeded after %.3fs waiting to run" % queue_wait
            ), queue_wait)
        else:
            self.metrics.histogram("serve.queue_wait_seconds").record(
                queue_wait
            )
            self._run(worker, request, queue_wait)

    def _run(self, worker, request, queue_wait):
        """Run a claimed request on ``worker`` inside the request's root
        span: metrics → record → resolve, whichever backend executes
        it."""
        if request.deadline is not None:
            # what is left of the request's life bounds its execution:
            # the worker checks it between row batches
            request.options = request.options.replace(deadline=max(
                0.0, request.deadline - time.perf_counter()))
        root = NULL_SPAN
        try:
            with use_trace_context(request.context):
                with self.tracer.span(
                        self._backend.root_span,
                        queue_wait_ms=round(queue_wait * 1000.0, 3)) as root:
                    result, worker_spans = self._backend.run(
                        worker, request, root)
        except BaseException as exc:
            status = "error"
            # a process worker reports the error by type name
            if isinstance(exc, DeadlineExceededError) or getattr(
                    exc, "error_type", None) == DeadlineExceededError.__name__:
                status, exc = "timeout", RequestTimeoutError(
                    "deadline exceeded during execution: %s" % exc)
            self._fail(request, status, exc, queue_wait,
                       spans=root.iter_spans())
            return
        run = result.run
        run.queue_wait_seconds = queue_wait
        run.total_seconds = total = time.perf_counter() - request.submitted_at
        run.worker = worker
        cache = "hit" if result.cache_hit else "miss"
        self.metrics.histogram("serve.request_seconds").record(total)
        # the one end-to-end latency definition (admission -> response)
        # shared by the benches, split by cache outcome
        self.metrics.histogram("serve.request.latency",
                               cache=cache).record(total)
        self.metrics.counter("serve.completed", strategy=result.strategy,
                             cache=cache).inc()
        self._record(request, "ok",
                     spans=itertools.chain(root.iter_spans(), worker_spans),
                     **transform_fields(result))
        request.future.set_result(result)

    def _fail(self, request, status, error, queue_wait, spans=None):
        """Terminal failure (``timeout`` / ``error``) of an admitted
        request: count, flight-record and fail its future."""
        self.metrics.counter(_FAILURE_COUNTERS[status]).inc()
        self._record(request, status, spans=spans,
                     error="%s: %s" % (type(error).__name__, error),
                     queue_wait_seconds=queue_wait,
                     total_seconds=time.perf_counter() - request.submitted_at)
        request.future.set_exception(error)

    def _record(self, request, status, spans=None, **fields):
        """One flight record per request (or drained stream), whatever
        its terminal status: ok / rejected / timeout / cancelled /
        error."""
        if self.recorder is not None:
            self.recorder.record(
                request.context.trace_id, status=status,
                name=request.name or stylesheet_key(request.stylesheet)[:24],
                spans=spans, started_at=request.started_wall, **fields
            )
