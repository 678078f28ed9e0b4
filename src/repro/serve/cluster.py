"""Process workers: the :class:`~repro.serve.service.TransformService`
backend that escapes the GIL.

Worker *threads* serialize CPU-bound transforms on one interpreter
lock; :class:`ProcessWorkers` runs each worker as a child process with
its own :class:`~repro.serve.runtime.PlanRuntime` (its own GIL, its own
tier-1 cache, the disk tier shared).  Everything request-shaped —
admission, deadlines, cancellation, metrics, flight recording — stays in
the front door; this module is only what is process-specific:

* the strict request/response **pipe protocol**: ``(op, payload)`` in,
  ``("ok", reply)`` / ``("error", {...})`` out, over a
  ``multiprocessing.Pipe``.  The front-door thread holding the worker's
  slot — its dispatcher, or a caller running its own request — blocks
  in ``recv`` (which releases the GIL) while the worker computes.
  Sources cross by *name* and stylesheets as markup text (content
  hashes are what make the shared disk tier addressable);
* **trace identity crosses the process boundary**: the front door sends
  its ``cluster.request`` span's ``(trace_id, span_id)``, the worker
  makes them ambient and roots ``cluster.worker`` in that trace under
  its one ``Tracer`` (``enabled`` as the parent's; sinks stay in the
  parent), and the returned span records merge into the parent's flight
  recorder — one connected trace per request;
* **worker death**: a broken pipe marks the worker dead
  (:class:`ClusterWorkerError`, ``cluster.worker_failures``); a request
  that failed *inside* a live worker is a :class:`WorkerRequestError`
  and the worker keeps serving;
* the control-plane broadcast (``ping`` / ``analyze`` / ``invalidate``
  / ``stats``) and the aggregation of per-worker private metrics
  through :func:`repro.obs.metrics.merge_snapshots`.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import threading

from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.trace import TraceContext, Tracer, use_trace_context
from repro.serve.artifact import ArtifactStore
from repro.serve.runtime import PlanRuntime, ServeError


class ClusterWorkerError(ServeError):
    """A worker process died or its pipe broke mid-request."""


class WorkerRequestError(ServeError):
    """The worker handled the message but the request itself failed."""

    def __init__(self, error_type, message, worker=None):
        super().__init__("%s: %s" % (error_type, message))
        self.error_type = error_type
        self.worker = worker


# -- worker side --------------------------------------------------------------------


def _serve_transform(runtime, payload):
    """One ``transform`` message inside the worker: join the front
    door's trace, run the request on the plan runtime inside a
    ``cluster.worker`` root span, ship the result (pickling it is its
    wire form) with that span tree as dicts."""
    with use_trace_context(TraceContext(*payload["trace"])):
        with runtime.engine.tracer.span(
                "cluster.worker", worker=runtime.worker_id) as root:
            result = runtime.run(
                payload["source"], payload["stylesheet"],
                payload["options"], payload.get("params"), root,
            )
    return {"result": result,
            "spans": [span.to_dict() for span in root.iter_spans()]}


def _worker_main(conn, worker_id, db, sources, factory, traced,
                 runtime_options):
    """The worker process entry point: build the runtime — traced by one
    sink-less ``Tracer`` enabled when the parent's is (``traced``) —
    then serve the strict request/response pipe protocol until
    shutdown/EOF."""
    if factory is not None:
        db, sources = factory()
    runtime = PlanRuntime(db, sources, metrics=MetricsRegistry(),
                          worker_id=worker_id,
                          tracer=Tracer(enabled=traced), **runtime_options)
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break
        if op == "shutdown":
            conn.send(("ok", {"worker": worker_id}))
            break
        try:
            if op == "transform":
                reply = _serve_transform(runtime, payload)
            else:
                reply = runtime.control(op, payload)
        except BaseException as exc:
            try:
                conn.send(("error", {"type": type(exc).__name__,
                                     "message": str(exc),
                                     "worker": worker_id}))
            except (OSError, ValueError):
                break
            continue
        try:
            conn.send(("ok", reply))
        except (OSError, ValueError):
            break
    conn.close()


# -- parent side --------------------------------------------------------------------


class _WorkerHandle:
    __slots__ = ("worker_id", "process", "conn", "lock", "alive")

    def __init__(self, worker_id, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.alive = True


class ProcessWorkers:
    """N worker processes, each owning a :class:`PlanRuntime` built from
    ``runtime_options`` over the fork-inherited ``db``/``sources`` or
    the ``factory``'s (see :class:`~repro.serve.service.TransformService`
    for the parameters).  Each worker traces when ``tracer`` (the
    front door's) is enabled at start."""

    #: the plan runtimes live in the children
    runtime = None
    #: the root span the front door opens around each request
    root_span = "cluster.request"

    def __init__(self, db, sources, workers, factory, start_method,
                 tracer, metrics, runtime_options):
        if db is None and factory is None:
            raise ValueError("pass db (+ sources) or a factory")
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        if start_method != "fork" and factory is None:
            raise ValueError(
                "start method %r pickles worker arguments — pass a "
                "factory instead of a live database" % start_method
            )
        self.metrics = metrics
        self.size = workers
        runtime_options = dict(runtime_options)
        self._owns_artifact_dir = runtime_options["artifact_dir"] is None
        if self._owns_artifact_dir:
            runtime_options["artifact_dir"] = tempfile.mkdtemp(
                prefix="repro-cluster-"
            )
        self.artifact_dir = runtime_options["artifact_dir"]
        #: the parent's own view of the shared tier (stats/epoch only —
        #: lookups happen in the workers)
        self.store = ArtifactStore(self.artifact_dir, metrics=metrics)
        context = multiprocessing.get_context(start_method)
        self._handles = []
        for worker_id in range(workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, worker_id,
                      None if factory is not None else db,
                      None if factory is not None else (sources or {}),
                      factory, tracer.enabled, runtime_options),
                name="repro-cluster-worker-%d" % worker_id,
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._handles.append(
                _WorkerHandle(worker_id, process, parent_conn)
            )

    # -- what the front door asks of a backend -------------------------------------

    def check(self, source, stylesheet):
        """Requests cross the pipe by value."""
        for what, value in (("a source *name* (a key of the sources "
                             "mapping)", source),
                            ("stylesheet markup text", stylesheet)):
            if not isinstance(value, str):
                raise TypeError("process workers take %s, got %r"
                                % (what, type(value).__name__))

    def live(self):
        """Indexes of the workers not known to be dead."""
        return [handle.worker_id for handle in self._handles
                if handle.alive]

    def alive(self, worker):
        """Whether ``worker``'s process is still running — the check a
        dispatcher or a caller makes before running a request on it, so
        a worker that died while idle is noticed without sacrificing
        one."""
        handle = self._handles[worker]
        if handle.alive and not handle.process.is_alive():
            self._lost(handle)
        return handle.alive

    def _lost(self, handle):
        handle.alive = False
        self.metrics.counter("cluster.worker_failures").inc()

    def run(self, worker, request, root):
        """Ship one claimed request to ``worker`` from inside its
        ``root`` span; returns the
        :class:`~repro.serve.runtime.ServeResult` and the worker-side
        span records."""
        handle = self._handles[worker]
        root.set_attr(worker=handle.worker_id)
        parent = root or request.context
        reply = self._rpc(handle, ("transform", {
            "source": request.source,
            "stylesheet": request.stylesheet,
            "options": request.options,
            "params": request.params,
            "trace": (parent.trace_id, parent.span_id),
        }))
        result = reply["result"]
        root.set_attr(cache_tier=result.cache_tier, strategy=result.strategy)
        return result, reply["spans"]

    def control(self, op, payload=None, worker=None):
        """Run a control-plane op on one ``worker`` or every live one."""
        handles = [self._handles[worker]] if worker is not None \
            else [handle for handle in self._handles if handle.alive]
        return [self._rpc(handle, (op, payload)) for handle in handles]

    def stats(self):
        """Per-worker snapshots merged (counters summed; histogram
        summaries combined), plus disk-tier state."""
        per_worker = self.control("stats")

        def total(part, field):
            return sum(worker[part][field] for worker in per_worker)

        return {
            "disk": self.store.stats().as_dict(),
            "tier1": {field: total("cache", field)
                      for field in ("hits", "misses", "compiles", "size")},
            "tier2": {field: total("disk", field)
                      for field in ("hits", "misses", "puts",
                                    "quarantined")},
            "metrics": merge_snapshots(
                [worker["metrics"] for worker in per_worker]
            ),
            "per_worker": per_worker,
        }

    def close(self):
        for handle in self._handles:
            if handle.alive:
                try:
                    self._rpc(handle, ("shutdown", None))
                except ServeError:
                    pass
                handle.alive = False
            handle.conn.close()
        for handle in self._handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - hung worker
                handle.process.terminate()
                handle.process.join(timeout=5.0)
        if self._owns_artifact_dir:
            shutil.rmtree(self.artifact_dir, ignore_errors=True)

    # -- worker RPC --------------------------------------------------------------

    def _rpc(self, handle, message):
        with handle.lock:
            if not handle.alive:
                raise ClusterWorkerError(
                    "worker %d is gone" % handle.worker_id
                )
            try:
                handle.conn.send(message)
                status, reply = handle.conn.recv()
            except (EOFError, OSError) as exc:
                self._lost(handle)
                status, reply = "lost", "%s: %s" % (type(exc).__name__, exc)
        if status == "lost":
            # raised outside the handler: the error a future keeps must
            # not pin the OSError's frames (and the pickled request)
            raise ClusterWorkerError("worker %d died mid-request: %s"
                                     % (handle.worker_id, reply))
        if status == "error":
            raise WorkerRequestError(reply.get("type", "Error"),
                                     reply.get("message", ""),
                                     worker=reply.get("worker"))
        return reply
