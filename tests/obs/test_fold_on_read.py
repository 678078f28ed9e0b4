"""Observation is part of the run: the loops that pull batches count each
operator's rows, batches and opens, and the Q-error record and the
per-operator metrics are folded when something reads them (DESIGN §9.1,
§11.1).

``observation_goldens.json`` pins, per XSLTMark case that compiles to
``sql-rewrite`` and per optimizer level, what the profile wrapper and
the per-run fold it replaced recorded: each observed operator's actual
rows, batches and opens, the Q-error verdict, and the folded metrics
after ``RUNS`` executions.  It was captured, by the calls ``record`` below
makes, from commit fa74a6f — the last tree that wrapped each operator and
folded every run at once — and is the differential check against that
eager fold: a later tree cannot recapture it, only be compared to it.
"""

import json
import os
import sys
import threading

import pytest

from repro.api import Engine, TransformOptions
from repro.core.transform import STRATEGY_SQL, CompiledTransform
from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import Histogram, PENDING_RUNS
from repro.rdb import INT, Database
from repro.rdb.planner import LEVELS
from repro.rdb.sql_parser import parse_select
from repro.xsltmark import get_case
from repro.xsltmark.runner import prepare_case

GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "observation_goldens.json")
SIZE = 20
RUNS = 3

#: the instruments a plan run is folded into
FOLDED = ("transform.rewrite_success", "plan.operator_rows",
          "planner.qerror")
SUMMARY = ("count", "sum", "min", "max", "p50", "p95")


def folded(snapshot):
    """The folded part of a registry snapshot: counters whole, histogram
    summaries without sampled timings."""
    return (
        {key: value for key, value in snapshot["counters"].items()
         if key.startswith(FOLDED)},
        {key: [summary.get(field) for field in SUMMARY]
         for key, summary in snapshot["histograms"].items()
         if key.startswith(FOLDED)},
    )


def actuals(profiler):
    """``[op, rows, batches, opens]`` per observed operator, in EXPLAIN
    ``#n`` order."""
    return [[row[2], profiler.rows_out[row[0]], profiler.batches[row[0]],
             profiler.opens[row[0]]] for row in profiler.table.rows]


def prepared(case, level):
    setup = prepare_case(case, SIZE)
    registry = MetricsRegistry()
    engine = Engine(setup.db, tracer=Tracer(), metrics=registry)
    compiled = engine.compile(setup.storage, case.stylesheet,
                              options=TransformOptions(optimizer_level=level))
    registry.reset()  # the compile stages recorded their timings
    return engine, registry, setup, compiled


def record(case, level):
    """One golden entry, through the doors every tree has; None when the
    case does not compile to the relational rewrite."""
    engine, registry, setup, compiled = prepared(case, level)
    if not compiled.is_rewritten:
        return None
    results = [engine.execute(setup.storage, compiled) for _ in range(RUNS)]
    # every run tallied, none folded until the snapshot reads them
    assert sum(registry._runs.values()) == RUNS
    counters, histograms = folded(registry.snapshot())
    return {"actuals": actuals(results[0].plan_profile),
            "verdict": list(results[0].feedback.verdict()),
            "counters": counters, "histograms": histograms}


def load_goldens():
    with open(GOLDENS) as handle:
        return json.load(handle)


GOLDEN_KEYS = sorted(load_goldens()) if os.path.exists(GOLDENS) else []


def case_of(key):
    name, level = key.split("@")
    return get_case(name), level


def approx_summaries(histograms):
    # a sample's sum is added in fold order: runs of one key together,
    # not interleaved with the other operators of the same kind
    return {key: [pytest.approx(value, rel=1e-12) if field == "sum"
                  else value for field, value in zip(SUMMARY, values)]
            for key, values in histograms.items()}


class TestGoldens:
    def test_covers_the_merged_cases_at_every_level(self):
        assert len(GOLDEN_KEYS) == 23 * len(LEVELS)

    @pytest.mark.parametrize("key", GOLDEN_KEYS)
    def test_actuals_verdict_and_metrics_are_the_wrappers(self, key):
        golden = load_goldens()[key]
        case, level = case_of(key)
        entry = record(case, level)
        assert entry["actuals"] == golden["actuals"]
        assert entry["verdict"] == golden["verdict"]
        assert entry["counters"] == golden["counters"]
        assert entry["histograms"] == approx_summaries(golden["histograms"])

    @pytest.mark.parametrize("key", GOLDEN_KEYS)
    def test_explain_analyze_counts_what_the_traced_run_counts(self, key):
        golden = load_goldens()[key]
        case, level = case_of(key)
        _, _, setup, compiled = prepared(case, level)
        report = compiled.query.explain(setup.db, analyze=True)
        assert actuals(report.profile) == golden["actuals"]
        # the explicit EXPLAIN ANALYZE door times every operator it ran
        assert all(seconds >= 0.0 for seconds in report.profile.total_seconds)


class TestFoldOnRead:
    def test_runs_wait_for_a_reader(self):
        case, level = get_case("avts"), "cost"
        engine, registry, setup, compiled = prepared(case, level)
        engine.execute(setup.storage, compiled)
        assert len(registry._runs) == 1
        assert registry.counter("transform.rewrite_success").value == 1
        assert registry._runs == {}


def operator_rows(registry):
    return {counter.labels["op"]: counter.value
            for counter in registry.counters("plan.operator_rows")}


class TestConcurrentRuns:
    def test_four_threads_on_one_binding_count_exactly(self):
        engine, registry, setup, compiled = prepared(get_case("avts"), "cost")
        engine.execute(setup.storage, compiled)
        one = folded(registry.snapshot())
        registry.reset()
        threads, runs = 4, 25
        errors = []

        def worker():
            try:
                for _ in range(runs):
                    engine.execute(setup.storage, compiled)
            except Exception as exc:  # asserted empty below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and compiled.query.runtime.binds == 1
        total = threads * runs
        assert sum(registry._runs.values()) == total  # tallied, unread
        counters, histograms = folded(registry.snapshot())
        assert counters == {key: value * total
                            for key, value in one[0].items()}
        for key, (count, _, low, high, p50, p95) in histograms.items():
            assert count == one[1][key][0] * total
            assert [low, high, p50, p95] == one[1][key][2:]


class TestResetAndBound:
    def test_reset_drops_the_pending_runs(self):
        engine, registry, setup, compiled = prepared(get_case("avts"), "cost")
        for _ in range(3):
            engine.execute(setup.storage, compiled)
        assert registry._runs
        registry.reset()
        assert folded(registry.snapshot()) == ({}, {})
        engine.execute(setup.storage, compiled)
        assert registry.counter("transform.rewrite_success").value == 1
        assert operator_rows(registry) == {
            "Aggregate": 1, "HashLeftJoin": 1, "Scan": SIZE + 1}

    def test_actuals_that_change_every_run_stay_within_the_bound(self):
        # a run new to a full tally is folded alone, at once; the tally
        # itself waits for a reader
        db = Database()
        db.create_table("t", [("id", INT)])
        registry = MetricsRegistry()
        engine = Engine(db, tracer=Tracer(), metrics=registry)
        query = db.optimize(parse_select("SELECT t.id FROM t t"))
        compiled = CompiledTransform(None, STRATEGY_SQL, query=query)
        runs = PENDING_RUNS * 3 + 5
        for value in range(runs):
            db.insert("t", (value,))  # DML: every run reads one row more
            engine.execute(None, compiled)
            assert len(registry._runs) <= PENDING_RUNS
        assert len(registry._runs) == PENDING_RUNS
        unread = registry._counter("transform.rewrite_success", {})
        assert unread.value == runs - PENDING_RUNS
        assert registry.counter("transform.rewrite_success").value == runs
        assert operator_rows(registry) == {"Scan": runs * (runs + 1) // 2}


class TestProcessWorkers:
    def test_merged_snapshots_see_the_folded_runs(self, tmp_path):
        case = get_case("dbonerow")
        engine, registry, setup, compiled = prepared(case, "cost")
        engine.execute(setup.storage, compiled)
        one = folded(registry.snapshot())
        with Engine(setup.db, workers=2, metrics=MetricsRegistry()).serve(
                sources={"doc": setup.storage},
                artifact_dir=str(tmp_path / "plans")) as service:
            for worker in (0, 1):
                for _ in range(2):
                    service.transform_on(worker, "doc", case.stylesheet)
            merged = service.stats()["metrics"]
        counters, histograms = folded(merged)
        assert counters == {key: value * 4 for key, value in one[0].items()}
        # merged summaries keep count, sum, min and max (no percentiles)
        assert {key: summary[:4] for key, summary in histograms.items()} \
            == {key: [count * 4, total * 4, low, high]
                for key, (count, total, low, high, _, _) in one[1].items()}


class TestStreamClosedEarly:
    def test_records_what_ran_and_keeps_out_of_the_qerror_record(self):
        case = get_case("avts")
        setup = prepare_case(case, 500)
        registry = MetricsRegistry()
        engine = Engine(setup.db, tracer=Tracer(), metrics=registry)
        stream = engine.transform_stream(
            setup.storage, case.stylesheet,
            options=TransformOptions(chunk_chars=64))
        assert next(stream)
        stream.chunks.close()
        assert stream.stats.rows_scanned == 501
        snapshot = registry.snapshot()
        assert snapshot["counters"]["transform.rewrite_success"] == 1
        assert snapshot["histograms"]["plan.execute_seconds"]["count"] == 1
        rows = {key: value for key, value in snapshot["counters"].items()
                if key.startswith("plan.operator_rows")}
        # the build side ran whole; the probe side only to the first chunk
        assert rows["plan.operator_rows{op=Aggregate}"] == 1
        assert 0 < rows["plan.operator_rows{op=HashLeftJoin}"] < 500
        assert not [key for key in snapshot["histograms"]
                    if key.startswith("planner.qerror")]
        assert "planner.qerror.missing_estimates" not in snapshot["counters"]
        assert stream.feedback is None


class TestWeightedHistogramRecord:
    @pytest.mark.parametrize("batches", [
        [(1.5, 3), (2.0, 1), (400.0, 7)],
        # crosses the 8192-sample point where the kept samples halve
        [(1.0, 5000), (3.25, 4000), (1 / 3, 9000), (7.0, 1)],
        [(2.5, 8191), (2.5, 1), (9.0, 20000)],
    ])
    def test_one_weighted_record_is_times_single_records(self, batches):
        weighted, single = Histogram("w"), Histogram("s")
        for value, times in batches:
            weighted.record(value, times)
            for _ in range(times):
                single.record(value)
        assert weighted.summary() == single.summary()
        assert weighted._read() == single._read()
        assert (weighted._keep_every, weighted._skip) \
            == (single._keep_every, single._skip)

