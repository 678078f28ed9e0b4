"""repro.api — the unified public facade over the transform pipeline.

* :class:`Engine` — one object owning a database plus tracer/metrics,
  with the five verbs a caller needs: :meth:`Engine.compile`,
  :meth:`Engine.transform`, :meth:`Engine.transform_stream`,
  :meth:`Engine.transform_many` and :meth:`Engine.explain`;
* :class:`TransformOptions` — the one options dataclass every entry
  point accepts (``strategy``, ``deadline``, ``batch_size``, ...).

The function-style entry points (``xml_transform``, ``compile_transform``,
``transform_many``) delegate here, so behaviour (spans, metrics, fallback
accounting) is identical whichever door a caller uses::

    from repro import Engine, TransformOptions

    engine = Engine(db)
    result = engine.transform(storage, stylesheet)
    for chunk in engine.transform_stream(storage, stylesheet):
        send(chunk)
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace as _dc_replace

from repro.core.transform import (
    DEFAULT_CHUNK_CHARS,
    STRATEGY_FUNCTIONAL,
    STRATEGY_SQL,
    _collected,
    _compile_impl,
    _start,
    _stylesheet,
    execute_compiled,
    execute_compiled_stream,
    source_fingerprint,
)
from repro.obs import get_tracer, global_metrics
from repro.obs.recorder import transform_fields

__all__ = [
    "Engine",
    "OptimizerLevel",
    "Strategy",
    "TransformOptions",
]


class OptimizerLevel(str, enum.Enum):
    """The plan-optimizer levels ``TransformOptions.optimizer_level``
    accepts (strings work too; both validate at construction time)."""

    OFF = "off"
    COST = "cost"


class Strategy(str, enum.Enum):
    """How the transform should run: ``SQL`` (also what ``None``, the
    default, means) attempts the relational rewrite, falling back
    functionally only on unsupported constructs, as the paper's engine
    does; ``FUNCTIONAL`` skips the rewrite entirely."""

    SQL = STRATEGY_SQL
    FUNCTIONAL = STRATEGY_FUNCTIONAL


def _validated_choice(field, value, allowed):
    """None stays None; enum members collapse to their value; anything
    else must be one of ``allowed`` or the constructor raises a
    ``ValueError`` naming every valid value — a typo dies here, not
    three layers down in the planner."""
    if value is None:
        return None
    if isinstance(value, enum.Enum):
        value = value.value
    if value not in allowed:
        raise ValueError(
            "invalid %s %r: expected one of %s (or None)"
            % (field, value, ", ".join(repr(item) for item in allowed))
        )
    return value


# -- options -----------------------------------------------------------------------


@dataclass(frozen=True)
class TransformOptions:
    """The one options object every transform entry point accepts.

    :param deadline: per-request deadline in seconds
        (:class:`repro.serve.TransformService` only — enforced at
        dequeue time, so ``0`` always times out, and between row batches
        while the plan executes, streamed or not).  Must be >= 0.
    :param batch_size: how many rows the plan's operators hand over
        at once.  None means ``DEFAULT_BATCH_SIZE`` at every door
        (``transform``, ``execute``, ``transform_stream``, serving); it
        is a tuning value only — the result and the work counters are
        the same at every size.
    :param chunk_chars: coalescing target for streamed output chunks.
    :param optimizer_level: plan-optimizer level — ``"off"`` (execute
        the merged plan as emitted) or ``"cost"`` (statistics-driven
        access-path and join-strategy selection).  None uses the planner
        default (``cost``).  Compile-relevant: distinct levels cache
        distinct compiled plans.
    :param strategy: execution strategy — :class:`Strategy` or its
        string value: ``"sql-rewrite"`` (what None means: attempt the
        XSLT→XQuery→SQL/XML rewrite, falling back functionally on
        unsupported constructs) or ``"functional"`` (no rewrite).
        Invalid values raise ``ValueError`` at construction.
    :param decorrelate: the correlated-subquery unnesting pass
        (:mod:`repro.rdb.decorrelate`) that runs ahead of the ``cost``
        optimizer: on by default, False disables it; at the ``off``
        level nothing is optimized and the flag is moot.
        Compile-relevant: part of the plan-cache key.
    """

    deadline: float = None
    batch_size: int = None
    chunk_chars: int = DEFAULT_CHUNK_CHARS
    optimizer_level: str = None
    strategy: str = None
    decorrelate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "optimizer_level", _validated_choice(
            "optimizer_level", self.optimizer_level,
            tuple(level.value for level in OptimizerLevel),
        ))
        object.__setattr__(self, "strategy", _validated_choice(
            "strategy", self.strategy,
            tuple(choice.value for choice in Strategy),
        ))
        if self.deadline is not None and self.deadline < 0:
            raise ValueError(
                "invalid deadline %r: expected seconds >= 0 (or None)"
                % (self.deadline,)
            )
        if self.decorrelate is not True and self.decorrelate is not False:
            raise ValueError(
                "invalid decorrelate %r: expected True or False"
                % (self.decorrelate,)
            )

    def effective_rewrite(self):
        """Whether the relational rewrite should be attempted."""
        return self.strategy != STRATEGY_FUNCTIONAL

    @classmethod
    def coerce(cls, value):
        """Normalize what callers pass as ``options``: None → the one
        shared default instance (the dataclass is frozen), a
        :class:`TransformOptions` → itself, a dict → keyword
        arguments."""
        if value is None:
            return _DEFAULT_OPTIONS
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls(**value)
        raise TypeError(
            "options must be a TransformOptions, dict or None, not %r"
            % type(value).__name__
        )

    def replace(self, **changes):
        """A copy with ``changes`` applied (the dataclass is frozen)."""
        return _dc_replace(self, **changes)

    def cache_key(self):
        """The compile-relevant part of these options, as a stable string
        — the serving layer's plan-cache key component.  Runtime-only
        fields (deadline, batch/chunk sizes) are excluded so
        they never fragment the cache."""
        from repro.rdb.planner import normalize_level

        # normalized so None and the explicit default level share a key;
        # "auto" and the trailing ";" keep the key every earlier build
        # wrote, so their disk artifacts still hit
        return "rw=%d;opt=%s;dcr=%s;" % (
            self.effective_rewrite(), normalize_level(self.optimizer_level),
            "auto" if self.decorrelate else "off",
        )


_DEFAULT_OPTIONS = TransformOptions()


# -- the facade --------------------------------------------------------------------


class Engine:
    """The documented front door: one database, five verbs.

    Owns the tracer/metrics pair every operation reports through
    (defaulting to the process-wide instances), so the spans and
    counters are identical whichever entry point — this facade or a
    function-style wrapper — a caller uses.  An optional
    :class:`~repro.obs.recorder.FlightRecorder` additionally receives
    one :class:`~repro.obs.recorder.RequestRecord` per
    :meth:`transform` call, per :meth:`transform_many` result and per
    drained :meth:`transform_stream`, and the service :meth:`serve`
    builds records into it too.

    ``workers`` sizes the serving tier :meth:`serve` builds: 1 (the
    default) keeps everything in-process, >1 scales out to that many
    worker *processes* (escaping the GIL for CPU-bound transforms).
    """

    __slots__ = ("db", "tracer", "metrics", "recorder", "workers")

    def __init__(self, db, tracer=None, metrics=None, recorder=None,
                 workers=1):
        self.db = db
        self.tracer = tracer or get_tracer()
        self.metrics = metrics or global_metrics()
        self.recorder = recorder
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers

    # -- compile ------------------------------------------------------------------

    def compile(self, source, stylesheet, options=None):
        """The compile half, for reuse: stylesheet compilation, the
        three rewrite stages and plan optimization against this engine's
        database.  Never raises :class:`~repro.errors.RewriteError` — a
        failed rewrite returns a functional-strategy
        :class:`~repro.core.transform.CompiledTransform` carrying the
        categorized error (negative caching)."""
        return _compile_impl(self.db, source, stylesheet,
                             TransformOptions.coerce(options), self.tracer,
                             self.metrics)

    # -- execute ------------------------------------------------------------------

    def transform(self, source, stylesheet, options=None, params=None):
        """Apply ``stylesheet`` to every XMLType instance of ``source``;
        returns a :class:`~repro.core.transform.TransformResult`.

        ``stylesheet`` may be markup or a pre-compiled
        :class:`~repro.xslt.stylesheet.Stylesheet`; a pre-compiled
        artifact from :meth:`compile` goes through
        :meth:`execute` instead."""
        return self._transform(self.db, source, stylesheet,
                               TransformOptions.coerce(options), params)

    def _transform(self, db, source, stylesheet, opts, params, plans=None):
        started_at = time.time()
        with self.tracer.span("xml_transform",
                              rewrite=opts.effective_rewrite()) as root:
            result = self._open(execute_compiled, root, db, source,
                                stylesheet, opts, params, plans)
            root.set_attr(strategy=result.strategy)
        self._record(root, result, started_at)
        return result

    def _open(self, door, root, db, source, stylesheet, opts, params,
              plans=None, deadline=None):
        """What every door that is handed a stylesheet does — the three
        here, the serving tier's three: go functional when ``params``
        are given (a plan cannot bind them), get the plan from ``plans``
        — a plan source ``(source, stylesheet, opts, build) ->
        (compiled, tier)``: :meth:`transform_many`'s memo, a serving
        ``PlanRuntime``'s two tiers; None compiles for this request
        alone, without a projection mask — counting the attempt when
        ``build`` runs, and open ``door`` over it with the options
        whole."""
        started = time.perf_counter()
        if params and opts.effective_rewrite():
            opts = opts.replace(strategy=STRATEGY_FUNCTIONAL)

        def build():
            if opts.effective_rewrite():
                self.metrics.counter("transform.rewrite_attempts").inc()
            return _compile_impl(db, source, stylesheet, opts, self.tracer,
                                 self.metrics, reused=plans is not None)

        compiled, tier = (build(), None) if plans is None \
            else plans(source, stylesheet, opts, build)
        view = door(db, source, compiled, opts, params, self.tracer,
                    self.metrics, root, deadline, started)
        view.run.cache_tier = tier
        if root:
            view.run.trace = root
        return view

    def _record(self, root, view, started_at):
        """One finished (drained) one-shot transform: total it, record it
        as started at ``started_at``, the wall time its root opened."""
        if root:
            view.run.total_seconds = root.duration
            if self.recorder is not None:
                self.recorder.record(
                    root.trace_id, name="xml_transform", status="ok",
                    started_at=started_at, spans=root.iter_spans(),
                    **transform_fields(view)
                )

    def execute(self, source, compiled, options=None, params=None):
        """Run one request over a pre-compiled artifact from
        :meth:`compile` (what the serving layer pays per cache hit): no
        root span, no flight record."""
        return execute_compiled(self.db, source, compiled,
                                TransformOptions.coerce(options), params,
                                self.tracer, self.metrics)

    # -- serve --------------------------------------------------------------------

    def serve(self, sources=None, **kwargs):
        """The serving tier for this engine's database: a
        :class:`~repro.serve.service.TransformService`.

        ``Engine(db)`` (workers=1) serves from worker *threads* in this
        process (size the pool with ``serve(workers=N)``);
        ``Engine(db, workers=N)`` with N>1 serves from N worker
        *processes* sharing a persistent plan tier — CPU-bound
        transforms then scale past one core.  Process workers need
        ``sources``, a ``{name: source}`` mapping (requests name their
        source; the objects live in the workers).  The service reports
        through this engine: its tracer, its metrics and, when it has
        one, its recorder.  Extra ``kwargs`` pass through to the service
        constructor (``queue_size``, ``artifact_dir``,
        ``default_timeout``, ...)."""
        from repro.serve.service import TransformService

        kwargs.setdefault("tracer", self.tracer)
        kwargs.setdefault("metrics", self.metrics)
        if self.recorder is not None:
            kwargs.setdefault("recorder", self.recorder)
        if self.workers > 1:
            return TransformService(self.db, sources=sources,
                                    backend="process",
                                    workers=self.workers, **kwargs)
        return TransformService(self.db, sources=sources, **kwargs)

    def transform_stream(self, source, stylesheet, options=None,
                         params=None):
        """Streaming transform: returns a
        :class:`~repro.core.transform.TransformStream` yielding
        serialized output chunks.  On the SQL strategy no result DOM is
        built — ``stream.stats.docs_materialized`` stays 0 and peak
        buffering is bounded by ``options.chunk_chars`` (tracked in
        ``stream.stats.peak_buffered_bytes``).

        The compile happens here; the run happens as the chunks are
        pulled, and the ``xml_transform`` root span stays open — and
        ambient on this thread — until the stream is drained
        (then it is flight-recorded) or closed."""
        drain = self._drain(source, stylesheet,
                            TransformOptions.coerce(options), params)
        stream = next(drain)
        stream.chunks = drain
        return stream

    def _drain(self, source, stylesheet, opts, params):
        """:meth:`_transform` for a lazy view: yields the opened stream
        first, then its chunks, all inside the root span."""
        started_at = time.time()
        with self.tracer.span("xml_transform",
                              rewrite=opts.effective_rewrite()) as root:
            stream = self._open(execute_compiled_stream, root, self.db,
                                source, stylesheet, opts, params)
            chunks = stream.chunks  # the caller points stream.chunks here
            yield stream
            yield from chunks
            root.set_attr(strategy=stream.strategy)
        self._record(root, stream, started_at)

    def transform_many(self, sources, stylesheet, options=None, params=None):
        """Apply one stylesheet across many sources, compiling once per
        distinct source *shape*; returns the list of results in input
        order.

        ``sources`` is an iterable of sources, or of ``(db, source)``
        pairs when the documents live in different databases.  The
        stylesheet is compiled once and the rewrite runs once per
        distinct :func:`~repro.core.transform.source_fingerprint` — N
        same-shaped documents pay one compile and N plan executions,
        which is what makes this ≥2× faster than N independent
        :meth:`transform` calls."""
        opts = TransformOptions.coerce(options)
        stylesheet = _stylesheet(stylesheet, self.tracer)
        memo, results = {}, []

        def plans(source, stylesheet, opts, build):
            key = source_fingerprint(source)
            if key in memo:
                return memo[key], "l1"
            memo[key] = compiled = build()
            return compiled, "miss"

        for entry in sources:
            db, source = entry if isinstance(entry, tuple) \
                else (self.db, entry)
            results.append(self._transform(db, source, stylesheet, opts,
                                           params, plans))
        return results

    # -- explain ------------------------------------------------------------------

    def explain(self, source, stylesheet, options=None, analyze=False):
        """EXPLAIN (REWRITE) of the transform, without executing it, as
        an :class:`~repro.obs.explain.ExplainReport` — strategy, rewrite
        decisions, optimized plan with estimates, plus ``.to_json()``
        for the structured form.  ``analyze=True`` executes under a
        timed profiler and annotates every plan node with actual
        rows/batches/opens and total/self times (EXPLAIN ANALYZE) and
        includes the Q-error record.  The report renders as text via
        ``str()``."""
        from repro.obs.explain import ExplainReport
        from repro.rdb.plan import PlanProfiler

        opts = TransformOptions.coerce(options)
        compiled = self.compile(source, stylesheet, options=opts)
        if analyze:
            return _collected(time.perf_counter(), *_start(
                self.db, source, compiled, opts, None, self.tracer,
                self.metrics, None, None, PlanProfiler(timed=True))
            ).explain()
        fallback_reason = None
        if compiled.error is not None:
            fallback_reason = "compile: %s" % compiled.error
        return ExplainReport(
            query=compiled.query, ledger=compiled.ledger,
            strategy=compiled.strategy, fallback_reason=fallback_reason,
            include_decisions=True,
        )
