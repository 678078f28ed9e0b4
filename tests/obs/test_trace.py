"""Span nesting, exception capture, and the three sinks."""

import gc
import io
import json
import sys
import threading
import time
import weakref

import pytest

from repro.obs import (
    NULL_SPAN,
    InMemorySink,
    JsonLinesSink,
    TextSink,
    Tracer,
    get_tracer,
    render_tree,
    set_tracer,
)


class TestSpanNesting:
    def test_children_attach_to_active_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                with tracer.span("a.1") as a1:
                    pass
            with tracer.span("b") as b:
                pass
        assert [child.name for child in root.children] == ["a", "b"]
        assert a.children == [a1]
        assert b.children == []
        assert root.parent is None
        assert a1.parent is a

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("inner") as inner:
                pass
        assert root.finished and inner.finished
        assert root.duration >= inner.duration >= 0.0

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_attrs_via_kwargs_and_set_attr(self):
        tracer = Tracer()
        with tracer.span("s", color="red") as span:
            span.set_attr(rows=7)
        assert span.attrs == {"color": "red", "rows": 7}

    def test_a_finished_tree_is_freed_without_the_cycle_collector(self):
        """Children are strong, the parent link weak, and a finished
        span lets go of its tracer: dropping the last reference frees
        the tree at once, with the cyclic collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            tracer = Tracer(sinks=[InMemorySink()])
            with tracer.span("root") as root:
                with tracer.span("child") as child:
                    pass
            assert child.parent is root
            dead = [weakref.ref(root), weakref.ref(child)]
            del root, child, tracer
            assert [ref() for ref in dead] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_find(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("compile"):
                with tracer.span("compile.sql-merge"):
                    pass
        assert root.find("compile.sql-merge").name == "compile.sql-merge"
        assert root.find("missing") is None


class TestExceptionCapture:
    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("root") as root:
                with tracer.span("child") as child:
                    raise ValueError("boom")
        assert child.status == "error"
        assert child.error == "ValueError: boom"
        # the parent saw the same in-flight exception
        assert root.status == "error"
        assert root.finished and child.finished

    def test_stack_recovers_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("x")
        with tracer.span("next") as span:
            pass
        assert span.parent is None

    def test_late_finish_of_an_unwound_span_leaves_the_stack_alone(self):
        """A generator may hold a span open past its parent (a stream
        abandoned and closed later): finishing it then must not unwind
        whatever is active by that time."""
        tracer = Tracer()
        with tracer.span("parent"):
            held = tracer.span("held")
        # "parent" finishing while "held" is current leaves "held" there
        with tracer.span("unrelated") as active:
            held.__exit__(None, None, None)
            assert tracer.current() is active
        assert held.finished and tracer.current() is None


class TestDisabledTracer:
    def test_disabled_returns_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", k=1)
        assert span is NULL_SPAN
        with span as inner:
            inner.set_attr(more=2)  # all no-ops
        assert not span  # falsy, so callers can skip it
        assert span.find("anything") is None

    def test_profiling_is_off_by_default(self):
        from repro.rdb import Database, INT
        from repro.rdb.expressions import col
        from repro.rdb.plan import Query, Scan

        db = Database()
        db.create_table("t", [("id", INT)])
        db.insert("t", (1,))
        _, stats = Query(Scan("t"), [("id", col("id", "t"))]).execute(db)
        assert stats.profiler is None

    def test_enable_disable_roundtrip(self):
        tracer = Tracer()
        tracer.disable()
        assert tracer.span("a") is NULL_SPAN
        tracer.enable()
        with tracer.span("b") as span:
            pass
        assert span.name == "b"


class TestSinks:
    def test_in_memory_sink_collects_roots_and_spans(self):
        sink = InMemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert [span.name for span in sink.spans] == ["child", "root"]
        assert [span.name for span in sink.roots] == ["root"]
        sink.clear()
        assert sink.spans == [] and sink.roots == []

    def test_json_lines_sink_one_record_per_span(self):
        stream = io.StringIO()
        tracer = Tracer(sinks=[JsonLinesSink(stream)])
        with tracer.span("root", case="x") as root:
            with tracer.span("child"):
                pass
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        assert len(records) == 2
        child_rec, root_rec = records
        assert child_rec["name"] == "child"
        assert child_rec["parent_id"] == root_rec["span_id"]
        assert root_rec["parent_id"] is None
        assert root_rec["attrs"] == {"case": "x"}
        assert root_rec["duration_ms"] >= 0
        assert root.span_id == root_rec["span_id"]

    def test_json_lines_sink_to_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(str(path))
        tracer = Tracer(sinks=[sink])
        with tracer.span("only"):
            pass
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "only"

    def test_text_sink_renders_tree_per_root(self):
        stream = io.StringIO()
        tracer = Tracer(sinks=[TextSink(stream)])
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        text = stream.getvalue()
        assert text.startswith("root")
        assert "\n  child" in text
        assert "ms" in text

    def test_error_marker_in_render(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.span("bad") as span:
                raise KeyError("k")
        rendered = "\n".join(render_tree(span))
        assert "!KeyError" in rendered


class _YieldingStream:
    """A stream whose ``write`` hands the interpreter to another thread
    halfway through, as a file or socket write may."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        middle = len(text) // 2
        self.parts.append(text[:middle])
        time.sleep(0)
        self.parts.append(text[middle:])

    def getvalue(self):
        return "".join(self.parts)


def _on_threads(count, body):
    """``body(index)`` on ``count`` threads at once, switching often."""
    threads = [threading.Thread(target=body, args=(index,))
               for index in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in threads if thread.is_alive()]


class TestSinksUnderConcurrentSpans:
    """One tracer shared by many threads (concurrent doors, served
    requests) emits into one sink at once: no span's output may split."""

    def test_json_lines_stay_whole(self):
        stream = _YieldingStream()
        tracer = Tracer(sinks=[JsonLinesSink(stream)])

        def open_spans(index):
            for number in range(200):
                with tracer.span("t%d" % index, number=number):
                    pass

        _on_threads(4, open_spans)
        records = [json.loads(line)
                   for line in stream.getvalue().splitlines()]
        assert len(records) == 800
        for index in range(4):
            assert sorted(record["attrs"]["number"] for record in records
                          if record["name"] == "t%d" % index) \
                == list(range(200))

    def test_text_trees_stay_whole(self):
        stream = _YieldingStream()
        tracer = Tracer(sinks=[TextSink(stream)])

        def open_trees(index):
            for _ in range(50):
                with tracer.span("t%d" % index):
                    for _ in range(3):
                        with tracer.span("t%d.child" % index):
                            pass

        _on_threads(4, open_trees)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 4 * 50 * 4
        for start in range(0, len(lines), 4):
            root = lines[start].split()[0]
            assert not lines[start].startswith(" ")
            assert [line.split()[0] for line in lines[start + 1:start + 4]] \
                == [root + ".child"] * 3



class TestJsonLinesSink:
    """The sink is the spans' one export: one JSON object per finished
    span, parent-linked, so a file of them rebuilds every tree."""

    def test_a_transform_trace_rebuilds_from_its_lines(self):
        from repro.core import xml_transform

        from tests.core.paper_example import (
            EXAMPLE1_STYLESHEET,
            dept_emp_view_query,
            make_database,
        )

        stream = io.StringIO()
        tracer = Tracer(sinks=[JsonLinesSink(stream)])
        xml_transform(make_database(), dept_emp_view_query(),
                      EXAMPLE1_STYLESHEET, tracer=tracer)
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        assert len(records) > 2
        (root,) = [record for record in records
                   if record["parent_id"] is None]
        span_ids = {record["span_id"] for record in records}
        assert len(span_ids) == len(records)
        assert all(record["parent_id"] in span_ids
                   for record in records if record is not root)
        assert {record["trace_id"] for record in records} \
            == {root["trace_id"]}
        assert any(record["name"].startswith("compile")
                   for record in records)
        # a parent finishes after its children, so it is written later
        position = {record["span_id"]: n for n, record in enumerate(records)}
        assert all(position[record["parent_id"]] > position[record["span_id"]]
                   for record in records if record is not root)

    def test_lines_are_written_with_sorted_keys(self):
        stream = io.StringIO()
        tracer = Tracer(sinks=[JsonLinesSink(stream)])
        with tracer.span("root", zeta=1, alpha=2):
            pass
        (line,) = stream.getvalue().splitlines()
        assert line == json.dumps(json.loads(line), sort_keys=True)
        assert list(json.loads(line)["attrs"]) == ["alpha", "zeta"]

    def test_error_span_carries_its_error(self):
        stream = io.StringIO()
        tracer = Tracer(sinks=[JsonLinesSink(stream)])
        with pytest.raises(KeyError):
            with tracer.span("failing"):
                raise KeyError("missing")
        (record,) = [json.loads(line) for line in
                     stream.getvalue().splitlines()]
        assert record["status"] == "error"
        assert record["error"] == "KeyError: 'missing'"

    def test_non_json_attrs_are_stringified(self):
        stream = io.StringIO()
        tracer = Tracer(sinks=[JsonLinesSink(stream)])
        with tracer.span("root", rows=(1, 2), ok=True, ratio=0.5, none=None):
            pass
        attrs = json.loads(stream.getvalue())["attrs"]
        assert attrs == {"rows": "(1, 2)", "ok": True, "ratio": 0.5,
                         "none": None}

    def test_close_leaves_a_borrowed_stream_open(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        tracer = Tracer(sinks=[sink])
        with tracer.span("one"):
            pass
        sink.close()
        assert not stream.closed
        assert json.loads(stream.getvalue())["name"] == "one"

    def test_close_closes_a_file_it_opened(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(str(path))
        tracer = Tracer(sinks=[sink])
        for name in ("first", "second"):
            with tracer.span(name):
                pass
        sink.close()
        assert sink._stream.closed
        assert [json.loads(line)["name"] for line in
                path.read_text(encoding="utf-8").splitlines()] \
            == ["first", "second"]

class TestGlobalTracer:
    def test_set_tracer_swaps_and_restores(self):
        replacement = Tracer()
        previous = set_tracer(replacement)
        try:
            assert get_tracer() is replacement
        finally:
            set_tracer(previous)
        assert get_tracer() is previous
