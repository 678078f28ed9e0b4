"""Lightweight nested tracing spans with real trace context.

The paper's argument is *measured* (Figures 2–3, §5): rewrite vs
functional evaluation, per-technique ablations, per-plan costs.  This
module provides the span machinery those measurements hang off of:

* :class:`Span` — a named, timed (``time.perf_counter``) unit of work
  with attributes, nested children, exception capture and **trace
  identity**: every span carries a 128-bit ``trace_id`` shared by all
  spans of one request, its own 64-bit ``span_id`` and the
  ``parent_span_id`` linking it upward (both W3C-trace-context-shaped
  lowercase hex);
* :class:`Tracer` — manages per-thread active-span stacks and hands
  finished spans to pluggable sinks.  One tracer may be shared by many
  threads: the stack lives in a ``threading.local``, so concurrent
  requests never cross-link spans;
* :class:`TraceContext` — the propagation unit (``trace_id`` + parent
  ``span_id``).  The *ambient* context lives in a
  :mod:`contextvars` ``ContextVar``: opening a span publishes its
  context, closing it restores the previous one, and
  :func:`current_trace_context` reads it from anywhere (the structured
  log sink, the plan profiler, a worker handing work to another
  thread).  A root span opened while a context is ambient **joins**
  that trace instead of minting a new one — this is how the serve
  tier's admission thread, worker thread and stream drain stitch one
  request into one trace;
* W3C interop — :func:`parse_traceparent` / :func:`format_traceparent`
  convert to and from the ``traceparent`` header
  (``00-<trace_id>-<span_id>-<flags>``), so external callers can
  correlate across process boundaries;
* sinks — :class:`InMemorySink` (keeps finished root trees, now
  lock-protected for multi-threaded tracers),
  :class:`JsonLinesSink` (one JSON object per finished span),
  :class:`TextSink` (human-readable indented tree per root).

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

_INVALID_TRACE_ID = "0" * 32
_INVALID_SPAN_ID = "0" * 16
_HEX_DIGITS = set("0123456789abcdef")


def new_trace_id():
    """A fresh 128-bit trace id as 32 lowercase hex characters."""
    return "%032x" % random.getrandbits(128)


def new_span_id():
    """A fresh 64-bit span id as 16 lowercase hex characters."""
    return "%016x" % random.getrandbits(64)


class TraceContext:
    """The unit of trace propagation: a trace id plus the span id of
    the propagating (parent) span.

    ``span_id`` may be None for a context minted at an ingress with no
    upstream caller — spans opened under it join ``trace_id`` as roots
    (no parent link).  ``sampled`` mirrors the W3C ``sampled`` flag and
    is carried through :func:`format_traceparent`.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id, span_id=None, sampled=True):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_traceparent(self):
        """This context as a W3C ``traceparent`` header value."""
        return "00-%s-%s-%s" % (
            self.trace_id,
            self.span_id or _INVALID_SPAN_ID,
            "01" if self.sampled else "00",
        )

    def __eq__(self, other):
        return (isinstance(other, TraceContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id
                and self.sampled == other.sampled)

    def __hash__(self):
        return hash((self.trace_id, self.span_id, self.sampled))

    def __repr__(self):
        return "TraceContext(%s, %s)" % (self.trace_id, self.span_id)


#: The ambient trace context of the calling execution context.  Spans
#: publish themselves here while open; ingress points (the serve tier's
#: ``submit``) activate a remote caller's context around request
#: handling so every span joins the caller's trace.
_TRACE_CONTEXT = contextvars.ContextVar("repro.trace_context",
                                        default=None)


def current_trace_context():
    """The ambient :class:`TraceContext`, or None outside any trace."""
    return _TRACE_CONTEXT.get()


def current_trace_id():
    """The ambient trace id, or None outside any trace."""
    context = _TRACE_CONTEXT.get()
    return context.trace_id if context is not None else None


def activate_trace_context(context):
    """Make ``context`` ambient; returns a token for
    :func:`deactivate_trace_context`.  Prefer :func:`use_trace_context`
    (the context-manager form) where scoping allows."""
    return _TRACE_CONTEXT.set(context)


def deactivate_trace_context(token):
    """Restore the ambient context saved by
    :func:`activate_trace_context`."""
    _TRACE_CONTEXT.reset(token)


class use_trace_context:
    """``with use_trace_context(ctx):`` — scoped ambient activation.

    ``ctx`` may be None (explicitly trace-free scope), a
    :class:`TraceContext`, or a :class:`Span` (its context is used).
    """

    __slots__ = ("context", "_token")

    def __init__(self, context):
        if isinstance(context, Span):
            context = context.context()
        self.context = context
        self._token = None

    def __enter__(self):
        self._token = _TRACE_CONTEXT.set(self.context)
        return self.context

    def __exit__(self, exc_type, exc, tb):
        _TRACE_CONTEXT.reset(self._token)
        return False


def _is_hex(text):
    return bool(text) and all(char in _HEX_DIGITS for char in text)


def parse_traceparent(header):
    """Parse a W3C ``traceparent`` header into a :class:`TraceContext`.

    Returns None for anything malformed (wrong field widths, non-hex,
    all-zero trace/span id, version ``ff``) — a bad header must never
    break a request, only decline correlation.
    """
    if not header or not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[0], parts[1], parts[2], parts[3]
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if version == "00" and len(parts) != 4:
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id) \
            or trace_id == _INVALID_TRACE_ID:
        return None
    if len(span_id) != 16 or not _is_hex(span_id) \
            or span_id == _INVALID_SPAN_ID:
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    return TraceContext(trace_id, span_id,
                        sampled=bool(int(flags, 16) & 0x01))


def format_traceparent(span_or_context):
    """A W3C ``traceparent`` header value for a span or context."""
    if isinstance(span_or_context, Span):
        span_or_context = span_or_context.context()
    return span_or_context.to_traceparent()


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

    __slots__ = ("name", "attrs", "trace_id", "span_id", "parent_span_id",
                 "_parent", "children", "start", "end", "status", "error",
                 "_tracer", "_saved_context", "__weakref__")

    def __init__(self, name, attrs=None, parent=None, tracer=None,
                 context=None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.span_id = new_span_id()
        self._parent = None
        if parent is not None:
            self._parent = weakref.ref(parent)
            self.trace_id = parent.trace_id
            self.parent_span_id = parent.span_id
        elif context is not None:
            self.trace_id = context.trace_id
            self.parent_span_id = context.span_id
        else:
            self.trace_id = new_trace_id()
            self.parent_span_id = None
        self.children = []
        self.start = time.perf_counter()
        self.end = None
        self.status = "ok"
        self.error = None
        self._tracer = tracer
        self._saved_context = None
        if parent is not None:
            parent.children.append(self)

    @property
    def parent(self):
        """The enclosing span (None for a root, or once it is freed)."""
        return self._parent() if self._parent is not None else None

    # -- recording --------------------------------------------------------------

    def set_attr(self, **attrs):
        self.attrs.update(attrs)
        return self

    def context(self):
        """This span's :class:`TraceContext` (for propagation)."""
        return TraceContext(self.trace_id, self.span_id)

    def traceparent(self):
        """This span as a W3C ``traceparent`` header value."""
        return self.context().to_traceparent()

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

    The active-span stack is **per-thread** (``threading.local``): one
    tracer may serve many concurrent requests and each thread sees only
    its own nesting.  Trace identity propagates *between* threads via
    the ambient :class:`TraceContext` (see :func:`use_trace_context`),
    not via the stack.
    """

    def __init__(self, sinks=None, enabled=True):
        self.sinks = list(sinks) if sinks else []
        self.enabled = enabled
        self._local = threading.local()

    # -- control ----------------------------------------------------------------

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    def add_sink(self, sink):
        self.sinks.append(sink)
        return sink

    def remove_sink(self, sink):
        self.sinks.remove(sink)

    # -- spans ------------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, **attrs):
        """Open a span nested under the currently active one.

        A root span (nothing active on this thread's stack) adopts the
        ambient :class:`TraceContext` when one is set — joining the
        propagated trace with a parent link — and mints a fresh trace id
        otherwise.  The new span's context becomes ambient until it
        finishes.
        """
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        parent = stack[-1] if stack else None
        ambient = _TRACE_CONTEXT.get()
        context = ambient if parent is None else None
        span = Span(name, attrs=attrs, parent=parent, tracer=self,
                    context=context)
        span._saved_context = ambient
        stack.append(span)
        _TRACE_CONTEXT.set(span.context())
        return span

    def current(self):
        """The active span on this thread, or None."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _finish(self, span):
        # Tolerate out-of-order exits (a caller holding a span past its
        # children): pop everything above the finishing span.  A span
        # that is no longer on this thread's stack — a generator-held
        # span closed late, or from another thread — unwinds nothing.
        stack = self._stack()
        if span in stack:
            del stack[stack.index(span):]
        _TRACE_CONTEXT.set(span._saved_context)
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
    """Writes one JSON object per finished span to a file or stream."""

    def __init__(self, path_or_stream):
        if hasattr(path_or_stream, "write"):
            self._stream = path_or_stream
            self._owns = False
        else:
            self._stream = open(path_or_stream, "w", encoding="utf-8")
            self._owns = True

    def emit(self, span):
        self._stream.write(json.dumps(span.to_dict(), sort_keys=True))
        self._stream.write("\n")

    def close(self):
        self._stream.flush()
        if self._owns:
            self._stream.close()


class TextSink:
    """Writes a human-readable tree when each *root* span finishes."""

    def __init__(self, stream):
        self._stream = stream

    def emit(self, span):
        if span.parent is not None:
            return
        for line in render_tree(span):
            self._stream.write(line + "\n")


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
