"""Trace identity and propagation: ids, the one ambient carrier,
per-thread isolation of a shared tracer, spans finished on another
thread than the one that opened them."""

import threading

import pytest

from repro.api import Engine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    InMemorySink,
    Span,
    TraceContext,
    Tracer,
    current_trace_context,
    current_trace_id,
    new_span_id,
    new_trace_id,
    use_trace_context,
)
from repro.rdb import Database, INT
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document

from ..core.paper_example import (
    DEPT_DTD,
    DEPT_DOC_1,
    DEPT_DOC_2,
    EXAMPLE1_STYLESHEET,
    EXPECTED_ROW1,
    EXPECTED_ROW2,
)


class TestIds:
    def test_trace_id_shape(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 32
        assert trace_id == trace_id.lower()
        int(trace_id, 16)

    def test_span_id_shape(self):
        span_id = new_span_id()
        assert len(span_id) == 16
        int(span_id, 16)

    def test_ids_are_distinct(self):
        assert len({new_trace_id() for _ in range(100)}) == 100


class TestSpanIdentity:
    def test_root_span_mints_trace_id(self):
        span = Span("root")
        assert len(span.trace_id) == 32
        assert len(span.span_id) == 16
        assert span.parent_span_id is None

    def test_child_inherits_trace_id_and_parent_link(self):
        root = Span("root")
        child = Span("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.span_id != root.span_id

    def test_span_under_context_joins_trace(self):
        context = TraceContext(new_trace_id(), new_span_id())
        span = Span("joined", context=context)
        assert span.trace_id == context.trace_id
        assert span.parent_span_id == context.span_id

    def test_to_dict_carries_trace_identity(self):
        root = Span("root")
        child = Span("child", parent=root)
        record = child.to_dict()
        assert record["trace_id"] == root.trace_id
        assert record["span_id"] == child.span_id
        assert record["parent_id"] == root.span_id


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_trace_context() is None
        assert current_trace_id() is None

    def test_use_trace_context_scopes(self):
        context = TraceContext(new_trace_id())
        with use_trace_context(context):
            assert current_trace_id() == context.trace_id
        assert current_trace_id() is None

    def test_use_trace_context_accepts_span(self):
        span = Span("carrier")
        with use_trace_context(span) as context:
            assert context.trace_id == span.trace_id
            assert context.span_id == span.span_id

    def test_root_span_joins_ambient_trace(self):
        tracer = Tracer()
        context = TraceContext(new_trace_id(), new_span_id())
        with use_trace_context(context):
            with tracer.span("root") as span:
                assert span.trace_id == context.trace_id
                assert span.parent_span_id == context.span_id

    def test_open_span_publishes_its_context(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert current_trace_context() == outer.context()
            with tracer.span("inner") as inner:
                assert current_trace_context() == inner.context()
            assert current_trace_context() == outer.context()
        assert current_trace_context() is None

    def test_nested_spans_share_one_trace_id(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                with tracer.span("c") as c:
                    assert a.trace_id == b.trace_id == c.trace_id


class TestSharedTracerThreadIsolation:
    def test_threads_get_disjoint_traces(self):
        """N threads over ONE tracer: each gets its own trace id, and no
        span ever links to another thread's spans."""
        tracer = Tracer(sinks=[InMemorySink()])
        results = {}
        barrier = threading.Barrier(8)

        def worker(index):
            barrier.wait()
            with tracer.span("request", worker=index) as root:
                with tracer.span("stage-a"):
                    pass
                with tracer.span("stage-b") as b:
                    assert b.parent is root
            results[index] = root

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(results) == 8
        trace_ids = {root.trace_id for root in results.values()}
        assert len(trace_ids) == 8, "cross-thread trace id leakage"
        for root in results.values():
            assert {span.trace_id for span in root.iter_spans()} \
                == {root.trace_id}
            assert len(root.children) == 2

    def test_threads_can_join_one_propagated_trace(self):
        """The serve-tier shape: one context minted at ingress, two
        threads open roots under it — same trace id, both parent-linked
        to the ingress span id."""
        tracer = Tracer(sinks=[InMemorySink()])
        context = TraceContext(new_trace_id(), new_span_id())
        roots = []
        lock = threading.Lock()

        def worker():
            with use_trace_context(context):
                with tracer.span("part") as span:
                    pass
            with lock:
                roots.append(span)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(roots) == 4
        for span in roots:
            assert span.trace_id == context.trace_id
            assert span.parent_span_id == context.span_id
        sink = tracer.sinks[0]
        assert len(sink.roots_for(context.trace_id)) == 4


class TestInMemorySink:
    def test_roots_for_filters_by_trace(self):
        tracer = Tracer(sinks=[InMemorySink()])
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        sink = tracer.sinks[0]
        assert len(sink.roots) == 2
        first, second = sink.roots
        assert sink.roots_for(first.trace_id) == [first]
        assert sink.roots_for(second.trace_id) == [second]
        assert sink.roots_for("0" * 32) == []


def make_engine(tracer):
    db = Database()
    storage = ObjectRelationalStorage(
        db, schema_from_dtd(DEPT_DTD), "xd",
        column_types={"sal": INT, "empno": INT},
    )
    storage.load(parse_document(DEPT_DOC_1))
    storage.load(parse_document(DEPT_DOC_2))
    return Engine(db, tracer=tracer, metrics=MetricsRegistry()), storage


def on_thread(target):
    """Run ``target`` on a fresh thread; returns what it returned."""
    box = []
    thread = threading.Thread(target=lambda: box.append(target()))
    thread.start()
    thread.join()
    return box[0]


class TestOneCarrier:
    """The open span is the ambient context: a span finished on another
    thread than the one that opened it disturbs neither thread."""

    @pytest.mark.parametrize("shared", (True, False),
                             ids=("engine-tracer", "own-tracer"))
    def test_the_draining_thread_stays_in_its_own_trace(self, shared):
        tracer = Tracer()
        engine, storage = make_engine(tracer)
        stream = engine.transform_stream(storage, EXAMPLE1_STYLESHEET)

        def drain():
            # the draining thread's own span: from the engine's tracer
            # or from one of its own
            with (tracer if shared else Tracer()).span("b.request") as own:
                text = stream.text()
                after = current_trace_id()
                result = engine.transform(storage, EXAMPLE1_STYLESHEET)
            return own, text, after, result

        own, text, after, result = on_thread(drain)
        assert text == EXPECTED_ROW1 + EXPECTED_ROW2
        assert stream.trace.finished
        assert after == own.trace_id
        assert result.trace_id == own.trace_id
        assert result.trace.parent_span_id == own.span_id

    def test_the_opening_thread_does_not_nest_under_the_finished_stream(
            self):
        tracer = Tracer()
        engine, storage = make_engine(tracer)
        stream = engine.transform_stream(storage, EXAMPLE1_STYLESHEET)
        on_thread(stream.text)
        assert stream.trace.finished
        assert current_trace_context() is None
        assert tracer.current() is None
        with tracer.span("a.next") as following:
            pass
        assert following.parent is None
        assert following.trace_id != stream.trace_id
        result = engine.transform(storage, EXAMPLE1_STYLESHEET)
        assert result.trace.parent is None
        assert result.trace_id not in (stream.trace_id, following.trace_id)
        # a request under the opener's own span of another tracer joins
        # that span's trace by id
        with Tracer().span("a.own") as own:
            joined = engine.transform(storage, EXAMPLE1_STYLESHEET)
        assert joined.trace_id == own.trace_id
        assert joined.trace.parent_span_id == own.span_id

    def test_a_span_finished_elsewhere_hands_back_its_predecessor(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            held = tracer.span("held")
            on_thread(lambda: held.__exit__(None, None, None))
            assert held.finished
            assert current_trace_context() is outer
            assert tracer.current() is outer
            with tracer.span("next") as following:
                pass
            assert following.parent is outer
        assert current_trace_context() is None

    def test_another_tracers_root_links_by_id_only(self):
        first, second = Tracer(), Tracer(sinks=[InMemorySink()])
        with first.span("t1") as outer:
            with second.span("t2") as inner:
                assert current_trace_context() is inner
            assert current_trace_context() is outer
        assert inner.trace_id == outer.trace_id
        assert inner.parent_span_id == outer.span_id
        assert inner.parent is None
        assert outer.children == []
        assert second.sinks[0].roots == [inner]
