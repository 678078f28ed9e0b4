"""The door matrix: every way into a transform observes the same run.

``transform`` / ``execute`` / ``transform_stream`` / ``transform_many``
are four doors onto one run (``repro.core.transform``); for each of the
three ways that run can go — rewritten plan, compile-time fallback,
forced functional — every door must leave the same spans, the same
``transform.*`` / ``plan.*`` counters and the same execution record as
``Engine.transform`` does, and every traced door must flight-record it.
"""

import re
from pathlib import Path

import pytest

from repro.api import Engine, TransformOptions
from repro.obs import FlightRecorder, InMemorySink, MetricsRegistry, Tracer
from repro.xsltmark import get_case
from repro.xsltmark.runner import prepare_case

SIZE = 12

#: scenario -> (xsltmark case, options, expected strategy, fallback phase)
SCENARIOS = {
    "sql-rewrite": ("avts", None, "sql-rewrite", None),
    "compile-fallback": ("identity", None, "functional", "compile"),
    "forced-functional": ("avts", TransformOptions(strategy="functional"),
                          "functional", None),
}
DOORS = ("transform", "execute", "transform_stream", "transform_many")
#: the doors that open an ``xml_transform`` root span (and flight-record)
ROOTED = ("transform", "transform_stream", "transform_many")

WORK_COUNTERS = ("rows_scanned", "index_probes", "index_entries",
                 "output_rows", "xml_elements", "subquery_executions",
                 "docs_materialized", "hash_probes")


def observe(door, scenario):
    """Run one door over one scenario against a fresh database, tracer,
    registry and recorder; return everything the doors must agree on."""
    case_name, options, _, _ = SCENARIOS[scenario]
    prepared = prepare_case(get_case(case_name), SIZE)
    sheet = prepared.case.stylesheet  # markup: the door compiles it
    sink = InMemorySink()
    metrics = MetricsRegistry()
    recorder = FlightRecorder()
    engine = Engine(prepared.db, tracer=Tracer(sinks=[sink]),
                    metrics=metrics, recorder=recorder)
    if door == "transform":
        view = engine.transform(prepared.storage, sheet, options=options)
        text = "".join(view.serialized_rows())
    elif door == "execute":
        compiled = engine.compile(prepared.storage, sheet, options=options)
        view = engine.execute(prepared.storage, compiled, options=options)
        text = "".join(view.serialized_rows())
    elif door == "transform_stream":
        view = engine.transform_stream(prepared.storage, sheet,
                                       options=options)
        assert len(recorder) == 0  # recorded when drained, not before
        text = view.text()
    else:
        view, = engine.transform_many([prepared.storage], sheet,
                                      options=options)
        text = "".join(view.serialized_rows())
    run_span = [span for span in sink.spans
                if span.name in ("plan.execute", "functional.execute")]
    counters = {
        name: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith(("transform.", "plan."))
    }
    return {
        "view": view,
        "text": text,
        "spans": {span.name for span in sink.spans} - {"xml_transform"},
        "run_spans": [
            (span.name, span.status,
             {key: value for key, value in span.attrs.items()
              if key != "elapsed_ms"})
            for span in run_span
        ],
        "counters": counters,
        "record": {
            "strategy": view.strategy,
            "fallback_reason": view.fallback_reason,
            "fallback_phase": view.fallback_phase,
            "fallback_category": view.fallback_category,
            "stats": {name: getattr(view.stats, name)
                      for name in WORK_COUNTERS},
            "ledger": (view.ledger.to_json()
                       if view.ledger is not None else None),
            "vm_stats": view.vm_stats,
            "has_feedback": view.feedback is not None,
            "has_plan": view.executed_query is not None,
            "profiled": view.plan_profile is not None,
        },
        "recorder": recorder,
    }


@pytest.fixture(scope="module")
def reference():
    return {scenario: observe("transform", scenario)
            for scenario in SCENARIOS}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("door", DOORS)
def test_door_observes_the_same_run(door, scenario, reference):
    expected = reference[scenario]
    seen = observe(door, scenario)
    _, _, strategy, phase = SCENARIOS[scenario]
    assert seen["record"]["strategy"] == strategy
    assert seen["record"]["fallback_phase"] == phase
    assert seen["text"] == expected["text"]
    assert seen["spans"] == expected["spans"]
    assert seen["run_spans"] == expected["run_spans"]
    assert seen["record"] == expected["record"]
    counters = dict(expected["counters"])
    if door == "execute":
        # Engine.compile alone is not an attempt: the one-shot step and
        # the serve tier's PlanRuntime count attempts
        counters.pop("transform.rewrite_attempts", None)
    assert seen["counters"] == counters


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("door", DOORS)
def test_rooted_doors_trace_and_record(door, scenario, reference):
    seen = observe(door, scenario)
    view, recorder = seen["view"], seen["recorder"]
    if door not in ROOTED:
        # the serve tier's per-hit path: no root span, no record
        assert view.trace is None and view.trace_id is None
        assert len(recorder) == 0
        return
    expected = reference[scenario]["view"]
    assert view.trace is not None and view.trace.finished
    assert view.trace_id == view.trace.trace_id
    below_root = {span.name for span in expected.trace.iter_spans()}
    if door == "transform_many":
        # compiled once for the whole batch, before the first root opens
        below_root.discard("compile.stylesheet")
    assert {span.name for span in view.trace.iter_spans()} == below_root
    assert view.trace.attrs == expected.trace.attrs
    record, = recorder.records()
    assert record.trace_id == view.trace_id
    assert record.name == "xml_transform"
    assert record.status == ("ok" if view.fallback_reason is None
                             else "fallback")
    assert record.strategy == view.strategy
    assert record.fallback_category == view.fallback_category
    assert record.rows == view.stats.output_rows > 0
    assert record.execute_seconds == view.stats.elapsed_seconds
    assert record.total_seconds >= record.execute_seconds
    feedback = view.feedback
    assert record.q_error_max == (feedback.max_q_error
                                  if feedback is not None else None)
    assert {span["name"] for span in record.spans} \
        == {span.name for span in view.trace.iter_spans()}
    assert record.stages["xml_transform"] > 0


def test_transform_many_records_each_result():
    prepared = prepare_case(get_case("avts"), SIZE)
    recorder = FlightRecorder()
    engine = Engine(prepared.db, tracer=Tracer(), metrics=MetricsRegistry(),
                    recorder=recorder)
    results = engine.transform_many([prepared.storage] * 3,
                                    prepared.case.stylesheet)
    assert [record.trace_id for record in recorder.records()] \
        == [result.trace_id for result in results]
    assert len({result.trace_id for result in results}) == 3


def test_abandoned_stream_is_not_recorded():
    prepared = prepare_case(get_case("avts"), SIZE)
    recorder = FlightRecorder()
    tracer = Tracer()
    engine = Engine(prepared.db, tracer=tracer, metrics=MetricsRegistry(),
                    recorder=recorder)
    stream = engine.transform_stream(
        prepared.storage, prepared.case.stylesheet,
        options=TransformOptions(chunk_chars=1))
    next(stream)
    stream.chunks.close()
    assert len(recorder) == 0
    assert stream.trace.finished  # closing the stream closed its spans
    assert tracer.current() is None


class TestOneRun:
    """Structure pins: the materialised/streamed twin stays folded."""

    def sources(self):
        import repro

        root = Path(repro.__file__).parent
        return {path: path.read_text() for path in root.rglob("*.py")}

    def test_the_twin_functions_do_not_reappear(self):
        for path, source in self.sources().items():
            for gone in ("_stream_sql", "_stream_functional",
                         "_stream_fallback", "_execute_plan",
                         "_note_fallback", "_source_key"):
                assert gone not in source, (gone, path)

    def test_each_dispatch_is_written_once(self):
        everything = "\n".join(self.sources().values())
        # "rewrite unless params": the one-shot step of Engine
        assert len(re.findall(r"rewrite(\(\))? and not params",
                              everything)) == 1
        # "run the plan unless params": the run's own dispatch
        assert everything.count("is_rewritten and not params") == 1
        # attempts: the one-shot step and PlanRuntime.compiled_for
        assert everything.count('"transform.rewrite_attempts"') == 2

    def test_the_run_builds_one_profiler_and_one_vm(self):
        import repro.core.transform as module

        source = Path(module.__file__).read_text()
        assert source.count("PlanProfiler()") == 1
        assert source.count("XsltVM(") == 1

    def test_views_hold_no_metadata_of_their_own(self):
        from repro.core.transform import (
            Execution, TransformResult, TransformStream,
        )

        assert TransformResult.__slots__ == ("rows", "run")
        assert TransformStream.__slots__ == ("compiled", "run", "chunks")
        for field in Execution.__slots__:
            for view in (TransformResult, TransformStream):
                assert isinstance(getattr(view, field), property), field
