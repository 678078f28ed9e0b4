"""Lightweight nested tracing spans with real trace context.

The paper's argument is *measured* (Figures 2–3, §5): rewrite vs
functional evaluation, per-stage compile costs, per-plan costs.  This
module provides the span machinery those measurements hang off of:

* :class:`Span` — a named, timed (``time.perf_counter``) unit of work
  with attributes, nested children, exception capture and **trace
  identity**: every span carries a 128-bit ``trace_id`` shared by all
  spans of one request, its own 64-bit ``span_id`` and the
  ``parent_span_id`` linking it upward (both W3C-trace-context-shaped
  lowercase hex, minted when first read);
* :class:`Tracer` — opens spans under the ambient one and hands
  finished spans to pluggable sinks.  One tracer may be shared by many
  threads: nesting follows the ambient context, which is per thread, so
  concurrent requests never cross-link spans;
* one carrier of trace identity — a :mod:`contextvars` ``ContextVar``
  holding the innermost open :class:`Span` itself, or, at an ingress
  (the serve tier's admission, a worker process's pipe), a bare
  :class:`TraceContext` (``trace_id`` + upstream ``span_id``).  Opening
  a span makes it ambient; finishing it restores its predecessor where
  it is still current, and a finished span is never a parent.
  :func:`current_trace_context` / :func:`current_trace_id` read it from
  anywhere (a run's record as it opens, a worker handing work to
  another thread).  A root span opened while a context is ambient **joins**
  that trace — this is how the serve tier's admission thread, worker
  thread and stream drain stitch one request into one trace, and how a
  caller joins an upstream trace:
  ``with use_trace_context(TraceContext(trace_id, span_id)):``;
* sinks — :class:`InMemorySink` (keeps finished root trees),
  :class:`JsonLinesSink` (one JSON object per finished span),
  :class:`TextSink` (human-readable indented tree per root); each is
  lock-protected, and the two writers write a span (a root tree) in
  one call, so spans finished on concurrent threads never interleave.

A disabled tracer hands out a shared no-op span, so instrumented code
pays one attribute check and nothing else (``tests/obs/test_trace.py``
pins the shared span and that no profiler is attached by default);
``bench/run.py --trace`` reports what always-on tracing costs a request
as ``obs.tracing_overhead_share``.
"""

from __future__ import annotations

import contextvars
import json
import random
import threading
import time
import weakref


def new_trace_id():
    """A fresh 128-bit trace id as 32 lowercase hex characters."""
    return "%032x" % random.getrandbits(128)


def new_span_id():
    """A fresh 64-bit span id as 16 lowercase hex characters."""
    return "%016x" % random.getrandbits(64)


class TraceContext:
    """Trace identity without a span: a trace id plus the span id of
    the upstream (parent) span — what an ingress holds ambient for the
    root spans of a request to adopt.

    ``span_id`` may be None for a context minted at an ingress with no
    upstream caller — spans opened under it join ``trace_id`` as roots
    (no parent link).
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id, span_id=None):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self):
        return "TraceContext(%s, %s)" % (self.trace_id, self.span_id)


#: The one carrier of trace identity: the innermost open :class:`Span`
#: of the calling execution context, or an ingress's
#: :class:`TraceContext`.
_TRACE_CONTEXT = contextvars.ContextVar("repro.trace_context",
                                        default=None)


def current_trace_context():
    """The ambient trace identity — the innermost open :class:`Span`
    or an ingress :class:`TraceContext` (both carry ``trace_id`` and
    ``span_id``) — or None outside any trace.

    A span finished on another thread than the one that opened it stays
    in the opener's variable; a finished span is never a parent, so what
    was ambient before it stands in."""
    current = _TRACE_CONTEXT.get()
    while current.__class__ is Span and current.end is not None:
        current = current._predecessor()
    return current


def current_trace_id():
    """The ambient trace id, or None outside any trace."""
    context = _TRACE_CONTEXT.get()
    while context.__class__ is Span and context.end is not None:
        context = context._predecessor()
    return context.trace_id if context is not None else None


class use_trace_context:
    """``with use_trace_context(ctx):`` — scoped ambient activation;
    ``with use_trace_context(TraceContext(trace_id, span_id)):`` joins
    an upstream trace.  ``ctx`` may also be None (a trace-free scope) or
    a :class:`Span`.
    """

    __slots__ = ("context", "_token")

    def __init__(self, context):
        self.context = context
        self._token = None

    def __enter__(self):
        self._token = _TRACE_CONTEXT.set(self.context)
        return self.context

    def __exit__(self, exc_type, exc, tb):
        _TRACE_CONTEXT.reset(self._token)
        return False


_MINT_LOCK = threading.Lock()


def _minted(cell, new_id):
    """The id in ``cell``, minted by ``new_id`` on first read — once,
    however many threads read it at the same time."""
    with _MINT_LOCK:
        if cell[0] is None:
            cell[0] = new_id()
        return cell[0]


class Span:
    """One named, timed unit of work inside a trace.

    Usable as a context manager (the normal way — via
    :meth:`Tracer.span`): on exit the span records its end time and any
    in-flight exception (type and message; the exception still
    propagates).

    A finished tree holds no reference cycle: ``children`` are strong,
    the ``parent`` link is weak and the tracer link is dropped once the
    span finishes, so a tree nobody holds any more (a record leaving the
    flight recorder's ring) is freed by reference counting, not by a
    cyclic garbage collection.
    """

    __slots__ = ("name", "attrs", "_trace", "_id", "_up", "_parent",
                 "_context", "children", "start", "end", "status", "error",
                 "_tracer", "__weakref__")

    def __init__(self, name, attrs=None, parent=None, tracer=None,
                 context=None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        # ids are minted when first read: ``_id`` holds this span's,
        # ``_up`` is its parent's cell and ``_trace`` the cell every
        # span of the trace shares
        self._id = [None]
        self._parent = None
        self._context = context  # joined by ids only
        if parent is not None:
            self._parent = weakref.ref(parent)
            self._trace = parent._trace
            self._up = parent._id
        elif context is not None:
            if context.__class__ is Span:
                self._trace, self._up = context._trace, context._id
            else:  # an ingress may know no upstream span
                self._trace = [context.trace_id]
                self._up = None if context.span_id is None \
                    else [context.span_id]
        else:
            self._trace = [None]
            self._up = None
        self.children = []
        self.start = time.perf_counter()
        self.end = None
        self.status = "ok"
        self.error = None
        self._tracer = tracer
        if parent is not None:
            parent.children.append(self)

    @property
    def trace_id(self):
        """The 128-bit trace id every span of the trace shares."""
        return self._trace[0] or _minted(self._trace, new_trace_id)

    @property
    def span_id(self):
        """This span's own 64-bit id."""
        return self._id[0] or _minted(self._id, new_span_id)

    @property
    def parent_span_id(self):
        """The id of the span this one opened under (None: none)."""
        up = self._up
        if up is None:
            return None
        return up[0] or _minted(up, new_span_id)

    @property
    def parent(self):
        """The enclosing span (None for a root, or once it is freed)."""
        return self._parent() if self._parent is not None else None

    def _predecessor(self):
        """What was ambient when this span opened."""
        return self._parent() if self._parent is not None \
            else self._context

    # -- recording --------------------------------------------------------------

    def set_attr(self, **attrs):
        self.attrs.update(attrs)
        return self

    def context(self):
        """This span as a propagation context: it carries ``trace_id``
        and ``span_id`` itself."""
        return self

    @property
    def duration(self):
        """Wall seconds (up to now while the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    @property
    def finished(self):
        return self.end is not None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.status = "error"
            self.error = "%s: %s" % (exc_type.__name__, exc)
        self.end = time.perf_counter()
        if self._tracer is not None:
            self._tracer._finish(self)
            self._tracer = None
        return False  # never swallow

    # -- introspection ----------------------------------------------------------

    def find(self, name):
        """First span named ``name`` in this subtree (depth-first), or
        None — convenient for tests and reports."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def iter_spans(self):
        yield self
        for child in self.children:
            for span in child.iter_spans():
                yield span

    def to_dict(self):
        """Flat JSON-friendly record (children referenced by parent_id)."""
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_span_id,
            "name": self.name,
            "duration_ms": round(self.duration * 1000.0, 6),
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = {
                key: _jsonable(value) for key, value in self.attrs.items()
            }
        if self.error:
            record["error"] = self.error
        return record

    def __repr__(self):
        return "<Span %s %.3fms %s>" % (self.name, self.duration * 1000.0,
                                        self.status)


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def render_tree(span, indent=0):
    """Human-readable indented rendering of a span tree."""
    pad = "  " * indent
    attrs = ""
    if span.attrs:
        attrs = " {%s}" % ", ".join(
            "%s=%s" % (key, span.attrs[key]) for key in sorted(span.attrs)
        )
    flag = "" if span.status == "ok" else " !%s" % span.error
    lines = ["%s%s  %.3f ms%s%s"
             % (pad, span.name, span.duration * 1000.0, attrs, flag)]
    for child in span.children:
        lines.extend(render_tree(child, indent + 1))
    return lines


class _NullSpan:
    """Shared no-op span returned by a disabled tracer."""

    __slots__ = ()
    name = "<disabled>"
    attrs = {}
    children = ()
    status = "ok"
    error = None
    duration = 0.0
    finished = True
    trace_id = None
    span_id = None
    parent_span_id = None

    def set_attr(self, **attrs):
        return self

    def context(self):
        return None

    def find(self, name):
        return None

    def iter_spans(self):
        return iter(())

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __bool__(self):
        # `if result.trace:` should skip the null span
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Hands out nested spans and feeds finished ones to sinks.

    Nesting follows the ambient context (:func:`current_trace_context`),
    which is per thread: one tracer may serve many concurrent threads
    and each sees only its own nesting.
    """

    def __init__(self, sinks=None, enabled=True):
        self.sinks = list(sinks) if sinks else []
        self.enabled = enabled

    # -- control ----------------------------------------------------------------

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    # -- spans ------------------------------------------------------------------

    def span(self, name, **attrs):
        """Open a span under the ambient one and make it ambient until
        it finishes.

        Under an open span of this tracer the new span is its child;
        under another tracer's span or an ingress :class:`TraceContext`
        it joins that trace as a root with a parent link; with nothing
        ambient it mints a fresh trace id.
        """
        if not self.enabled:
            return NULL_SPAN
        ambient = _TRACE_CONTEXT.get()
        if ambient.__class__ is Span and ambient.end is not None:
            ambient = current_trace_context()  # finished on another thread
        if ambient.__class__ is Span and ambient._tracer is self:
            span = Span(name, attrs, parent=ambient, tracer=self)
        else:
            span = Span(name, attrs, tracer=self, context=ambient)
        _TRACE_CONTEXT.set(span)
        return span

    def current(self):
        """The ambient span when this tracer opened it, else None."""
        span = current_trace_context()
        return span if span.__class__ is Span and span._tracer is self \
            else None

    def _finish(self, span):
        # a span finished where it is not current (on another thread
        # than it opened on, or under a span it did not open) leaves
        # that context alone
        if _TRACE_CONTEXT.get() is span:
            _TRACE_CONTEXT.set(span._predecessor())
        for sink in self.sinks:
            sink.emit(span)


class InMemorySink:
    """Collects finished spans; root spans (full trees) under ``roots``.

    Lock-protected: a tracer shared across threads emits concurrently,
    and readers (the flight recorder, tests) take consistent copies.
    """

    def __init__(self, max_roots=1000):
        self.max_roots = max_roots
        self.spans = []
        self.roots = []
        self._lock = threading.Lock()

    def emit(self, span):
        with self._lock:
            self.spans.append(span)
            if span.parent is None:
                self.roots.append(span)
                if len(self.roots) > self.max_roots:
                    del self.roots[0]

    def roots_for(self, trace_id):
        """Finished root spans belonging to ``trace_id`` (a multi-thread
        request may produce several roots linked by parent ids)."""
        with self._lock:
            return [root for root in self.roots
                    if root.trace_id == trace_id]

    def clear(self):
        with self._lock:
            del self.spans[:]
            del self.roots[:]


class JsonLinesSink:
    """Writes one JSON object per finished span to a file or stream,
    each line in one write under a lock."""

    def __init__(self, path_or_stream):
        if hasattr(path_or_stream, "write"):
            self._stream = path_or_stream
            self._owns = False
        else:
            self._stream = open(path_or_stream, "w", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()

    def emit(self, span):
        line = json.dumps(span.to_dict(), sort_keys=True) + "\n"
        with self._lock:
            self._stream.write(line)

    def close(self):
        self._stream.flush()
        if self._owns:
            self._stream.close()


class TextSink:
    """Writes a human-readable tree when each *root* span finishes, the
    whole tree in one write under a lock."""

    def __init__(self, stream):
        self._stream = stream
        self._lock = threading.Lock()

    def emit(self, span):
        if span.parent is not None:
            return
        text = "".join(line + "\n" for line in render_tree(span))
        with self._lock:
            self._stream.write(text)


_GLOBAL_TRACER = Tracer()


def get_tracer():
    """The process-wide default tracer (enabled, no sinks)."""
    return _GLOBAL_TRACER


def set_tracer(tracer):
    """Replace the global tracer (tests); returns the previous one."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous
