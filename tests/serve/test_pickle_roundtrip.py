"""Serialization round trips for compiled plans and serve results.

The cluster tier and the disk artifact store both depend on
:class:`~repro.core.transform.CompiledTransform` surviving pickling with
its *runtime-only* state (plan bindings, traced VMs, profilers)
stripped — and on the round-tripped plan producing **byte-identical
output** across the whole xsltmark corpus, functional-fallback artifacts
included.
"""

import pickle

from repro.api import Engine
from repro.core.transform import (
    STRATEGY_FUNCTIONAL,
    CompiledTransform,
    execute_compiled,
)
from repro.obs import MetricsRegistry
from repro.serve import ServeResult, decode_artifact, encode_artifact
from repro.xsltmark.cases import ALL_CASES, get_case
from repro.xsltmark.runner import prepare_case

CORPUS_SIZE = 10


def roundtrip(compiled, key="k"):
    data, _ = encode_artifact(compiled, key)
    _, decoded = decode_artifact(data, expect_key=key)
    return decoded


class TestCorpusRoundTrip:
    def test_all_cases_execute_byte_identical_after_roundtrip(self):
        """Every corpus case — SQL-rewritten and functional-fallback
        alike — must serialize, deserialize, and then produce exactly
        the bytes the original in-memory plan produces."""
        mismatches = []
        for case in ALL_CASES:
            prep = prepare_case(case, CORPUS_SIZE)
            metrics = MetricsRegistry()
            engine = Engine(prep.db, metrics=metrics)
            compiled = engine.compile(prep.storage, prep.case.stylesheet)
            decoded = roundtrip(compiled, key=case.name)
            original = execute_compiled(prep.db, prep.storage, compiled,
                                        metrics=metrics)
            restored = execute_compiled(prep.db, prep.storage, decoded,
                                        metrics=metrics)
            if original.serialized_rows() != restored.serialized_rows():
                mismatches.append(case.name)
            elif original.strategy != restored.strategy:
                mismatches.append(case.name + " (strategy)")
        assert mismatches == []


class TestStrippedRuntimeState:
    def make_compiled(self):
        prep = prepare_case(ALL_CASES[0], CORPUS_SIZE)
        engine = Engine(prep.db, metrics=MetricsRegistry())
        return prep, engine.compile(prep.storage, prep.case.stylesheet)

    def test_execution_writes_nothing_into_the_artifact(self):
        prep, compiled = self.make_compiled()
        before = pickle.dumps(compiled)
        for _ in range(2):
            result = execute_compiled(prep.db, prep.storage, compiled,
                                      metrics=MetricsRegistry())
            assert result.feedback is not None  # profiled and judged
        assert pickle.dumps(compiled) == before

    def test_traced_vm_dropped_from_partial_evaluation(self):
        prep, compiled = self.make_compiled()
        outcome = compiled.outcome
        if outcome is None or outcome.partial_evaluation is None:
            return  # functional artifact: nothing to strip
        restored = pickle.loads(pickle.dumps(compiled))
        assert restored.outcome.partial_evaluation.vm is None

    def test_no_strip_memo_and_no_runtime_handle_in_the_bytes(self):
        """ALL_CASES[0] is ``dbonerow``, compiled through partial
        evaluation: its selects were stripped and bound on the way."""
        _, compiled = self.make_compiled()
        assert compiled.outcome.partial_evaluation is not None
        data = pickle.dumps(compiled)
        for name in (b"stripper", b"_stripped", b"_fn"):
            assert name not in data, name

    def test_ledger_survives_roundtrip(self):
        _, compiled = self.make_compiled()
        restored = pickle.loads(pickle.dumps(compiled))
        if compiled.ledger is not None:
            assert restored.ledger is not None

    def test_functional_artifacts_keep_their_projection_mask(self):
        """A fallback and a forced-functional artifact round-trip with
        their mask, which resolves against another same-fingerprint
        storage and projects byte-identically to the full document."""
        for name, options in (("keys", None),
                              ("dbonerow", {"strategy": "functional"})):
            prep = prepare_case(get_case(name), CORPUS_SIZE)
            compiled = Engine(prep.db, metrics=MetricsRegistry()).compile(
                prep.storage, prep.case.stylesheet, options=options)
            decoded = roundtrip(compiled, key=name)
            assert compiled.mask and decoded.mask == compiled.mask
            other = prepare_case(get_case(name), CORPUS_SIZE)
            assert other.storage.fingerprint() == prep.storage.fingerprint()
            full = CompiledTransform(decoded.stylesheet, STRATEGY_FUNCTIONAL)
            engine = Engine(other.db, metrics=MetricsRegistry())
            assert engine.execute(other.storage, decoded).serialized_rows() \
                == engine.execute(other.storage, full).serialized_rows()


class TestServeResultPickling:
    def test_result_pickles_with_trace_dropped(self):
        from repro.rdb import Database, INT
        from repro.rdb.storage import ObjectRelationalStorage
        from repro.schema import schema_from_dtd
        from repro.serve import TransformService
        from repro.xmlmodel import parse_document

        from ..core.paper_example import (
            DEPT_DTD, DEPT_DOC_1, EXAMPLE1_STYLESHEET,
        )

        db = Database()
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(DEPT_DTD), "xd",
            column_types={"sal": INT, "empno": INT},
        )
        storage.load(parse_document(DEPT_DOC_1))
        with TransformService(db, metrics=MetricsRegistry()) as service:
            result = service.transform(storage, EXAMPLE1_STYLESHEET)
        assert result.trace is not None
        restored = pickle.loads(pickle.dumps(result))
        assert isinstance(restored, ServeResult)
        assert restored.trace is None  # span tree is process-local
        assert restored.trace_id == result.trace_id
        assert restored.serialized_rows() == result.serialized_rows()
        assert restored.strategy == result.strategy
        assert restored.cache_hit == result.cache_hit

    def test_markup_rows_survive_pickle_and_detach(self):
        """A sql-rewrite result's rows are ``Markup`` strings, not nodes.
        Pickling a served result *is* detaching it — the form a process
        worker's reply takes: each row crosses as one markup item (the
        escaping contract is the type) over the lean record; the plan
        and the ledger stay where the plan lives."""
        from repro.core import STRATEGY_SQL
        from repro.rdb.sqlxml import Markup
        from repro.serve import TransformService
        from repro.xsltmark import get_case

        prep = prepare_case(get_case("avts"), CORPUS_SIZE)
        with TransformService(prep.db, metrics=MetricsRegistry()) as service:
            result = service.transform(prep.storage, prep.case.stylesheet)
        assert result.strategy == STRATEGY_SQL
        items = [item for row in result.rows for item in row]
        assert len(items) > 1 and all(type(item) is Markup for item in items)
        assert result.ledger is not None and result.executed_query is not None

        data = pickle.dumps(result)
        wire = pickle.loads(data)
        assert [[type(item) for item in row] for row in wire.rows] \
            == [[Markup]] * len(result.rows)
        assert wire.serialized_rows() == result.serialized_rows()
        assert all(type(row) is str for row in wire.serialized_rows())
        # markup still renders under the other output methods
        assert wire.serialized_rows(method="text") \
            == result.serialized_rows(method="text")
        assert wire.ledger is None and wire.executed_query is None
        assert wire.outcome is None and wire.plan_profile is None
        assert wire.stats.as_dict() == result.stats.as_dict()
        assert wire.stats.profiler is None
        assert wire.feedback.max_q_error == result.feedback.max_q_error
        assert wire.feedback.verdict() == result.feedback.verdict()
        assert wire.feedback.nodes == [] and result.feedback.nodes
        assert wire.feedback.render()[0] \
            == result.feedback.render()[0].split(" at ")[0]
        for field in ("cache_tier", "execute_seconds", "total_seconds",
                      "queue_wait_seconds", "worker", "stats_version",
                      "trace_id", "fallback_category", "vm_stats"):
            assert getattr(wire, field) == getattr(result, field), field
        # lean: under 1 KB on top of the rows, and no plan rides along
        payload = sum(len(row) for row in result.serialized_rows())
        assert len(data) - payload < 1024
        assert b"repro.rdb.plan" not in data
        # what crossed still explains itself; the plan section did not
        assert "strategy: sql-rewrite" in wire.explain().render()
        assert "plan:" not in wire.report()
