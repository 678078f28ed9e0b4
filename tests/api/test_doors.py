"""The door matrix: every way into a transform observes the same run.

``transform`` / ``execute`` / ``transform_stream`` / ``transform_many``
on :class:`Engine` and ``transform`` on thread workers, ``transform`` on
process workers and ``transform_stream`` on
:class:`~repro.serve.TransformService` are seven doors onto one run
(``repro.core.transform``), opened by one step (``Engine._open``); for
each of the three ways that run can go — rewritten plan, compile-time
fallback, forced functional — every door must return the same bytes and
leave the same ``transform.*`` / ``plan.*`` counters, the same execution
record and the same flight-record fields as ``Engine.transform`` does.
The four engine doors must also leave the same spans.
"""

import functools
import re
import time
from pathlib import Path

import pytest

from repro.api import Engine, TransformOptions
from repro.obs import FlightRecorder, InMemorySink, MetricsRegistry, Tracer
from repro.obs.decisions import PROJECTION
from repro.serve import ServeResult, TransformService
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
ENGINE_DOORS = ("transform", "execute", "transform_stream", "transform_many")
SERVE_DOORS = ("serve/thread", "serve/process", "serve/stream")
DOORS = ENGINE_DOORS + SERVE_DOORS
#: the doors that flight-record (``Engine.execute`` is the per-hit path)
RECORDED = tuple(door for door in DOORS if door != "execute")
#: the doors that compile for their one request: a functional artifact
#: gets no projection mask there (the others keep theirs for reuse, and a
#: forced-functional one runs partial evaluation for it)
ONE_SHOT = ("transform", "transform_stream")
MASK_SPAN = "compile.partial-eval"

WORK_COUNTERS = ("rows_scanned", "index_probes", "index_entries",
                 "output_rows", "xml_elements", "subquery_executions",
                 "docs_materialized", "hash_probes")


def drive(door, prepared, options=None, params=None, recorder=None,
          sink=None):
    """One request through ``door`` over fresh metrics: ``(view, output
    text, counters)`` — the counters of whichever registry the run
    counted in (process workers keep their own)."""
    storage, sheet = prepared.storage, prepared.case.stylesheet  # markup
    metrics = MetricsRegistry()
    request = dict(options=options, params=params)
    if door in ENGINE_DOORS:
        engine = Engine(prepared.db, metrics=metrics, recorder=recorder,
                        tracer=Tracer(sinks=[sink] if sink else None))
        if door == "transform":
            view = engine.transform(storage, sheet, **request)
        elif door == "execute":
            compiled = engine.compile(storage, sheet, options=options)
            view = engine.execute(storage, compiled, **request)
        elif door == "transform_many":
            view, = engine.transform_many([storage], sheet, **request)
        else:
            view = engine.transform_stream(storage, sheet, **request)
            # recorded when drained, not before
            assert recorder is None or len(recorder) == 0
        text = view.text() if door == "transform_stream" \
            else "".join(view.serialized_rows())
        return view, text, metrics.snapshot()["counters"]
    process = door == "serve/process"
    with TransformService(
            prepared.db, workers=1, metrics=metrics, recorder=recorder,
            backend="process" if process else "thread",
            sources={"doc": storage}) as service:
        source = "doc" if process else storage  # process workers take names
        if door == "serve/stream":
            view = service.transform_stream(source, sheet, **request)
            text = view.text()
        else:
            view = service.transform(source, sheet, **request)
            assert type(view) is ServeResult
            text = "".join(view.serialized_rows())
        counters = (service.stats()["metrics"] if process
                    else metrics.snapshot())["counters"]
    return view, text, counters


@functools.lru_cache(maxsize=None)
def observe(door, scenario):
    """Run one door over one scenario against a fresh database, tracer,
    registry and recorder; return everything the doors must agree on."""
    case_name, options, _, _ = SCENARIOS[scenario]
    prepared = prepare_case(get_case(case_name), SIZE)
    sink = InMemorySink()
    recorder = FlightRecorder(slow_threshold_seconds=0)
    view, text, counters = drive(door, prepared, options, recorder=recorder,
                                 sink=sink)
    records = recorder.records()
    crossed = door == "serve/process"  # the plan stayed in the worker
    return {
        "view": view,
        "text": text,
        "spans": {span.name for span in sink.spans} - {"xml_transform"},
        "run_spans": [
            (span["name"], span["status"],
             {key: value for key, value in span["attrs"].items()
              if key != "elapsed_ms"})
            for record in records for span in record.spans
            if span["name"] in ("plan.execute", "functional.execute")
        ],
        "counters": {name: value for name, value in counters.items()
                     if name.startswith(("transform.", "plan."))},
        "record": {
            "strategy": view.strategy,
            "fallback_reason": view.fallback_reason,
            "fallback_phase": view.fallback_phase,
            "fallback_category": view.fallback_category,
            "stats": {name: getattr(view.stats, name)
                      for name in WORK_COUNTERS},
            "vm_stats": view.vm_stats,
            "q_error_max": (view.feedback.max_q_error
                            if view.feedback is not None else None),
        },
        "plan": None if crossed else {
            "ledger": [decision.to_dict() for decision in view.ledger
                       if decision.kind != PROJECTION],
            "projection": [(decision.action, decision.reason)
                           for decision in view.ledger.decisions_of(
                               PROJECTION)],
            "has_plan": view.executed_query is not None,
            "profiled": view.plan_profile is not None,
        },
        "records": records,
    }


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("door", DOORS)
def test_door_observes_the_same_run(door, scenario):
    expected = observe("transform", scenario)
    seen = observe(door, scenario)
    _, _, strategy, phase = SCENARIOS[scenario]
    assert seen["record"]["strategy"] == strategy
    assert seen["record"]["fallback_phase"] == phase
    assert seen["text"] == expected["text"]
    assert seen["record"] == expected["record"]
    if seen["plan"] is not None:
        projects_like = observe("transform" if door in ONE_SHOT
                                else "execute", scenario)["plan"]
        assert seen["plan"] == dict(
            expected["plan"], projection=projects_like["projection"])
        if strategy == "functional":
            (action, reason), = seen["plan"]["projection"]
            assert ("one-shot" in reason) == (door in ONE_SHOT)
            assert (action == "project") == (
                door not in ONE_SHOT and scenario == "forced-functional")
    if door in ENGINE_DOORS:
        assert seen["spans"] - {MASK_SPAN} == expected["spans"] - {MASK_SPAN}
    if door in RECORDED:
        assert seen["run_spans"] == expected["run_spans"]
    counters = dict(expected["counters"])
    if door == "execute":
        # Engine.compile alone is not an attempt: the step that is
        # handed a stylesheet (Engine._open) counts attempts
        counters.pop("transform.rewrite_attempts", None)
    assert seen["counters"] == counters


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("door", DOORS)
def test_rooted_doors_trace_and_record(door, scenario):
    seen = observe(door, scenario)
    view, records = seen["view"], seen["records"]
    if door not in RECORDED:
        # the serve tier's per-hit path: no root span, no record
        assert view.trace is None and view.trace_id is None
        assert records == []
        return
    expected = observe("transform", scenario)
    record, = records
    reference, = expected["records"]
    assert record.trace_id == view.trace_id is not None
    # the fields every door builds one way (obs.recorder.transform_fields)
    for field in ("strategy", "fallback_category", "rows", "q_error_max"):
        assert getattr(record, field) == getattr(reference, field), field
    assert record.strategy == view.strategy
    assert record.rows == view.stats.output_rows > 0
    # one definition of execute_seconds: the door's time on the request
    # — plan lookup or compile, then the run — inside the total
    assert record.execute_seconds == view.execute_seconds
    assert view.stats.elapsed_seconds <= record.execute_seconds \
        <= record.total_seconds == view.total_seconds
    assert record.cache_hit == view.cache_hit
    assert record.queue_wait_seconds == view.queue_wait_seconds
    assert (view.queue_wait_seconds is not None) \
        == (door in ("serve/thread", "serve/process"))
    # a slow request's detail names the strategy wherever it ran; the
    # plan and the decisions are rendered only where the plan lives
    assert record.detail_reason == "slow"
    assert ("strategy: %s" % view.strategy) in record.detail
    if scenario == "sql-rewrite":
        assert ("plan:" in record.detail) == (door != "serve/process")
    if door not in ENGINE_DOORS:
        return
    # the engine's rooted doors leave the same trace below the same root
    expected = expected["view"]
    assert view.trace is not None and view.trace.finished
    assert view.trace_id == view.trace.trace_id
    below_root = {span.name for span in expected.trace.iter_spans()}
    if door == "transform_many":
        # compiled once for the whole batch, before the first root opens
        below_root.discard("compile.stylesheet")
    spans = {span.name for span in view.trace.iter_spans()}
    if door not in ONE_SHOT:
        spans.discard(MASK_SPAN)
        below_root.discard(MASK_SPAN)
    assert spans == below_root
    assert view.trace.attrs == expected.trace.attrs
    assert record.name == "xml_transform"
    assert record.status == "ok"
    assert record.total_seconds == view.trace.duration
    assert {span["name"] for span in record.spans} \
        == {span.name for span in view.trace.iter_spans()}
    assert record.stages["xml_transform"] > 0


class TestOptionsReachEveryDoor:
    """The options travel whole, so no door can drop one."""

    @pytest.mark.parametrize("door", DOORS)
    def test_params_never_attempt_a_rewrite(self, door):
        """A plan cannot bind parameters: decided once, before any door
        compiles, so none compiles (or counts) a rewrite it cannot run."""
        prepared = prepare_case(get_case("avts"), SIZE)
        view, text, counters = drive(door, prepared,
                                     params={"unused": "1"})
        assert view.strategy == "functional"
        assert view.fallback_reason is None
        assert text == observe("transform", "forced-functional")["text"]
        assert counters.get("transform.rewrite_attempts", 0) == 0
        assert counters.get("transform.rewrite_success", 0) == 0
        assert not [name for name in counters
                    if name.startswith("transform.fallback")]

    def many_documents(self):
        prepared = prepare_case(get_case("avts"), SIZE)
        for _ in range(3):
            prepared.storage.load(prepared.case.make_document(SIZE))
        return prepared

    @pytest.mark.parametrize("door", ("transform", "execute",
                                      "serve/thread", "serve/process"))
    def test_batch_size_reaches_the_plan(self, door):
        prepared = self.many_documents()
        batches = {}
        for size in (None, 1):
            view, _, _ = drive(door, prepared,
                               TransformOptions(batch_size=size))
            assert view.stats.output_rows == 4
            batches[size] = view.stats.batches
        assert batches == {None: 1, 1: 4}

    @pytest.mark.parametrize("traced", (True, False))
    def test_profiling_follows_the_tracer(self, traced):
        """A run profiles its plan exactly when its tracer is enabled:
        the engine's, or the serving tier's."""
        prepared = prepare_case(get_case("avts"), SIZE)
        engine = Engine(prepared.db, tracer=Tracer(enabled=traced),
                        metrics=MetricsRegistry())
        expected = engine.transform_stream(prepared.storage,
                                           prepared.case.stylesheet)
        with TransformService(prepared.db, workers=1,
                              metrics=MetricsRegistry(),
                              tracer=Tracer(enabled=traced)) as service:
            stream = service.transform_stream(prepared.storage,
                                              prepared.case.stylesheet)
            assert stream.text() == expected.text()
            served = service.transform(prepared.storage,
                                       prepared.case.stylesheet)
        assert (stream.plan_profile is not None) == traced \
            == (expected.plan_profile is not None) \
            == (served.plan_profile is not None)
        assert (stream.feedback is not None) == traced \
            == (expected.feedback is not None) \
            == (served.feedback is not None)

    def test_a_served_stream_keeps_the_request_deadline(self):
        from repro.errors import DeadlineExceededError

        prepared = prepare_case(get_case("avts"), SIZE)
        with TransformService(prepared.db, workers=1,
                              metrics=MetricsRegistry()) as service:
            stream = service.transform_stream(
                prepared.storage, prepared.case.stylesheet,
                options=TransformOptions(deadline=0))
            with pytest.raises(DeadlineExceededError):
                stream.text()
            assert service.recorder.get(stream.trace_id).status == "error"


@pytest.mark.parametrize("door", ("transform", "transform_stream"))
def test_an_engine_record_starts_when_its_root_opens(door):
    """``started_at`` is the wall time the door opened its root, not the
    recorder's clock when the finished request is recorded (here an hour
    late, so reading it would show)."""
    prepared = prepare_case(get_case("avts"), SIZE)
    recorder = FlightRecorder(clock=lambda: time.time() + 3600.0)
    engine = Engine(prepared.db, tracer=Tracer(), metrics=MetricsRegistry(),
                    recorder=recorder)
    before = time.time()
    if door == "transform":
        engine.transform(prepared.storage, prepared.case.stylesheet)
    else:
        engine.transform_stream(prepared.storage,
                                prepared.case.stylesheet).text()
    after = time.time()
    record, = recorder.records()
    assert before <= record.started_at
    assert record.started_at + record.total_seconds <= after + 1e-3


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
        # "functional when params are given": the step every door that
        # is handed a stylesheet goes through (Engine._open)
        assert len(re.findall(r"if params and \w+\.effective_rewrite\(\)",
                              everything)) == 1
        assert not re.findall(r"rewrite(\(\))? and not params", everything)
        # "run the plan unless params": the run's own dispatch
        assert everything.count("is_rewritten and not params") == 1
        # attempts are counted by that one step, whoever supplies plans
        assert everything.count('"transform.rewrite_attempts"') == 1

    def test_no_door_is_handed_an_option_by_keyword(self):
        """The options → run hand-off is the options object itself."""
        handoff = re.compile(
            r"\b(profile_plan|batch_size|chunk_chars)=")
        for path, source in self.sources().items():
            if path.name != "api.py" and path.parent.name != "serve":
                continue
            assert not handoff.findall(source), path

    def test_the_service_builds_record_fields_one_way(self):
        import repro.serve.service as module

        source = Path(module.__file__).read_text()
        assert source.count("transform_fields(") == 2  # result, stream
        assert "dict(strategy=" not in source

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
        assert TransformStream.__slots__ == ("run", "chunks")
        assert ServeResult.__slots__ == ()  # rows + run, like its base
        for field in Execution.__slots__:
            for view in (TransformResult, TransformStream, ServeResult):
                assert isinstance(getattr(view, field), property), field
                assert field not in view.__slots__, field
