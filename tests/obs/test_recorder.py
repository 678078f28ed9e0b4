"""FlightRecorder: ring retention, slow/tail detail policy, concurrency."""

import threading

from repro.obs.recorder import (
    DETAIL_SLOW,
    DETAIL_TAIL_SAMPLE,
    FlightRecorder,
    stage_seconds,
)
from repro.obs.trace import Tracer, new_trace_id


class TestRing:
    def test_record_and_get(self):
        recorder = FlightRecorder()
        trace_id = new_trace_id()
        record = recorder.record(trace_id, name="req", status="ok",
                                 total_seconds=0.01, rows=2)
        assert recorder.get(trace_id) is record
        assert recorder.get("0" * 32) is None
        assert len(recorder) == 1

    def test_capacity_drops_oldest(self):
        recorder = FlightRecorder(capacity=3)
        ids = [new_trace_id() for _ in range(5)]
        for trace_id in ids:
            recorder.record(trace_id)
        assert len(recorder) == 3
        assert recorder.get(ids[0]) is None
        assert recorder.get(ids[1]) is None
        assert [r.trace_id for r in recorder.records()] == ids[2:]

    def test_capacity_must_be_positive(self):
        try:
            FlightRecorder(capacity=0)
        except ValueError:
            pass
        else:
            raise AssertionError("capacity=0 accepted")

    def test_sequence_is_monotonic_across_reset(self):
        recorder = FlightRecorder()
        first = recorder.record(new_trace_id())
        recorder.reset()
        assert len(recorder) == 0
        second = recorder.record(new_trace_id())
        assert second.sequence == first.sequence + 1

    def test_get_returns_newest_match(self):
        recorder = FlightRecorder()
        trace_id = new_trace_id()
        recorder.record(trace_id, name="old")
        recorder.record(trace_id, name="new")
        assert recorder.get(trace_id).name == "new"

    def test_snapshot_newest_first_and_limited(self):
        recorder = FlightRecorder()
        ids = [new_trace_id() for _ in range(4)]
        for trace_id in ids:
            recorder.record(trace_id)
        snap = recorder.snapshot(limit=2)
        assert [r["trace_id"] for r in snap] == [ids[3], ids[2]]

    def test_snapshot_excludes_spans_and_detail_by_default(self):
        recorder = FlightRecorder(slow_threshold_seconds=0.0)
        recorder.record(new_trace_id(), total_seconds=1.0,
                        spans=[{"name": "s", "duration_ms": 1.0}],
                        detail_fn=lambda: "FULL EXPLAIN")
        compact = recorder.snapshot()[0]
        assert "spans" not in compact
        assert "detail" not in compact
        assert compact["has_detail"] is True
        full = recorder.snapshot(include_spans=True, include_detail=True)[0]
        assert full["spans"] == [{"name": "s", "duration_ms": 1.0}]
        assert full["detail"] == "FULL EXPLAIN"


class TestDetailPolicy:
    def test_fast_request_keeps_no_detail(self):
        recorder = FlightRecorder(slow_threshold_seconds=0.5)
        calls = []
        record = recorder.record(new_trace_id(), total_seconds=0.01,
                                 detail_fn=lambda: calls.append(1) or "d")
        assert record.detail is None
        assert record.detail_reason is None
        assert calls == []

    def test_slow_request_retains_detail(self):
        recorder = FlightRecorder(slow_threshold_seconds=0.5)
        record = recorder.record(new_trace_id(), total_seconds=0.75,
                                 detail_fn=lambda: "EXPLAIN ANALYZE ...")
        assert record.detail == "EXPLAIN ANALYZE ..."
        assert record.detail_reason == DETAIL_SLOW
        assert recorder.stats()["detail_retained"] == 1

    def test_slow_policy_disabled_with_none_threshold(self):
        recorder = FlightRecorder(slow_threshold_seconds=None)
        record = recorder.record(new_trace_id(), total_seconds=100.0,
                                 detail_fn=lambda: "d")
        assert record.detail is None

    def test_tail_sampling_every_nth(self):
        recorder = FlightRecorder(slow_threshold_seconds=None,
                                  tail_sample_every=3)
        reasons = [
            recorder.record(new_trace_id(), total_seconds=0.001,
                            detail_fn=lambda: "d").detail_reason
            for _ in range(6)
        ]
        assert reasons == [None, None, DETAIL_TAIL_SAMPLE,
                           None, None, DETAIL_TAIL_SAMPLE]

    def test_detail_fn_failure_never_raises(self):
        recorder = FlightRecorder(slow_threshold_seconds=0.0)

        def boom():
            raise RuntimeError("explain broke")

        record = recorder.record(new_trace_id(), total_seconds=1.0,
                                 detail_fn=boom)
        assert record.detail.startswith("detail unavailable:")
        assert "explain broke" in record.detail

    def test_no_detail_fn_means_no_detail(self):
        recorder = FlightRecorder(slow_threshold_seconds=0.0)
        record = recorder.record(new_trace_id(), total_seconds=1.0)
        assert record.detail is None


class TestTransformDetail:
    def test_each_section_is_rendered_once(self):
        """A retained detail is ``report()`` plus the decision tree —
        not two reports glued together."""
        from repro.api import Engine
        from repro.obs.trace import Tracer

        from ..api.test_options import EXAMPLE1_STYLESHEET, make_storage

        db, storage = make_storage()
        recorder = FlightRecorder(slow_threshold_seconds=0.0)
        Engine(db, tracer=Tracer(), recorder=recorder).transform(
            storage, EXAMPLE1_STYLESHEET)
        (record,) = recorder.records()
        assert record.detail_reason == DETAIL_SLOW
        detail = record.detail
        nodes = [line for line in detail.splitlines()
                 if "actual rows=" in line]
        assert nodes, detail
        for line in nodes:  # every plan node's EXPLAIN ANALYZE line: once
            assert detail.count(line.strip()) == 1, line
        for section in ("strategy: ", "rewrite decisions:", "plan:",
                        "Execution: ", "trace:", "QUERY outputs="):
            assert detail.count(section) == 1, section


class TestStats:
    def test_stats_shape(self):
        recorder = FlightRecorder(capacity=8, slow_threshold_seconds=0.25,
                                  tail_sample_every=10)
        recorder.record(new_trace_id())
        stats = recorder.stats()
        assert stats == {
            "capacity": 8,
            "size": 1,
            "recorded": 1,
            "detail_retained": 0,
            "slow_threshold_seconds": 0.25,
            "tail_sample_every": 10,
        }

    def test_clock_injectable(self):
        recorder = FlightRecorder(clock=lambda: 1234.5)
        record = recorder.record(new_trace_id())
        assert record.started_at == 1234.5

    def test_explicit_started_at_wins(self):
        recorder = FlightRecorder(clock=lambda: 1234.5)
        record = recorder.record(new_trace_id(), started_at=99.0)
        assert record.started_at == 99.0


class TestConcurrency:
    def test_concurrent_record_and_snapshot(self):
        """Writers and readers race; every write survives, snapshots are
        always well-formed."""
        recorder = FlightRecorder(capacity=10000)
        errors = []
        barrier = threading.Barrier(6)

        def writer(index):
            barrier.wait()
            for n in range(200):
                recorder.record(new_trace_id(), name="w%d-%d" % (index, n))

        def reader():
            barrier.wait()
            for _ in range(200):
                for rec in recorder.snapshot(limit=50):
                    if "trace_id" not in rec:
                        errors.append("malformed record")
                recorder.stats()

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(recorder) == 800
        assert recorder.stats()["recorded"] == 800
        sequences = [rec.sequence for rec in recorder.records()]
        assert len(set(sequences)) == 800, "duplicate sequence numbers"


class TestStageSeconds:
    def test_aggregates_by_span_name(self):
        spans = [
            {"name": "compile", "duration_ms": 2.0},
            {"name": "execute", "duration_ms": 5.0},
            {"name": "execute", "duration_ms": 3.0},
        ]
        stages = stage_seconds(spans)
        assert stages["compile"] == 0.002
        assert abs(stages["execute"] - 0.008) < 1e-12

    def test_empty_and_none(self):
        assert stage_seconds([]) == {}
        assert stage_seconds(None) == {}


class TestLazySpans:
    """A record keeps the spans it was handed — finished ``Span``
    objects, or the dicts a worker pipe delivered — and renders
    ``spans`` / ``stages`` when read."""

    @staticmethod
    def _trace():
        tracer = Tracer()
        with tracer.span("xml_transform", rewrite=True) as root:
            with tracer.span("compile.stylesheet"):
                pass
            with tracer.span("plan.execute") as span:
                span.set_attr(output_rows=3)
        return list(root.iter_spans())

    def test_live_spans_and_their_dicts_render_the_same(self):
        spans = self._trace()
        recorder = FlightRecorder(clock=lambda: 12.5)
        live = recorder.record("t1", spans=iter(spans), status="ok")
        wire = recorder.record(
            "t1", spans=[span.to_dict() for span in spans], status="ok")
        assert live._spans == spans  # kept, not serialized
        assert live.spans == wire.spans == [s.to_dict() for s in spans]
        assert live.stages == wire.stages == stage_seconds(wire.spans)
        assert set(live.stages) == {
            "xml_transform", "compile.stylesheet", "plan.execute"}
        as_live = live.as_dict(include_spans=True)
        as_wire = wire.as_dict(include_spans=True)
        assert as_live.pop("sequence") + 1 == as_wire.pop("sequence")
        assert as_live == as_wire

    def test_mixed_and_absent_spans(self):
        spans = self._trace()
        recorder = FlightRecorder()
        mixed = recorder.record(
            "t2", spans=spans[:1] + [span.to_dict() for span in spans[1:]])
        assert mixed.spans == [span.to_dict() for span in spans]
        bare = recorder.record("t3")
        assert bare.spans == [] and bare.stages == {}
