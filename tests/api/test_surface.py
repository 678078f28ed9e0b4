"""API-surface snapshot: the public names and signatures callers rely on.

A failing test here means a breaking change to the documented facade —
update the snapshot deliberately, alongside README/DESIGN, never as a
side effect.
"""

import inspect

import pytest

import repro
from repro.api import Engine, OptimizerLevel, Strategy, TransformOptions


class TestPackageSurface:
    def test_top_level_all(self):
        assert repro.__all__ == [
            "Database",
            "Engine",
            "ExplainReport",
            "OptimizerLevel",
            "RewriteOptions",
            "Strategy",
            "TransformOptions",
            "TransformResult",
            "XsltRewriter",
            "rewrite_combined",
            "rewrite_extract",
            "rewrite_xml_exists",
            "rewrite_xquery_over_view",
            "rewrite_xslt_over_xquery",
            "transform_many",
            "xml_transform",
        ]

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_facade_reexported(self):
        assert repro.Engine is Engine
        assert repro.TransformOptions is TransformOptions


class TestEngineSurface:
    def test_public_attributes(self):
        public = {name for name in dir(Engine) if not name.startswith("_")}
        assert public == {
            "compile", "transform", "transform_stream", "transform_many",
            "execute", "explain", "serve", "db", "tracer", "metrics",
            "recorder", "workers",
        }

    def test_constructor_signature(self):
        params = list(inspect.signature(Engine.__init__).parameters)
        assert params == ["self", "db", "tracer", "metrics", "recorder",
                          "workers"]

    def test_serve_signature(self):
        params = list(inspect.signature(Engine.serve).parameters)
        assert params == ["self", "sources", "kwargs"]

    def test_verb_signatures(self):
        expected = {
            "compile": ["self", "source", "stylesheet", "options"],
            "transform": ["self", "source", "stylesheet", "options",
                          "params"],
            "execute": ["self", "source", "compiled", "options", "params"],
            "transform_stream": ["self", "source", "stylesheet", "options",
                                 "params"],
            "transform_many": ["self", "sources", "stylesheet", "options",
                               "params"],
            "explain": ["self", "source", "stylesheet", "options",
                        "analyze"],
        }
        for verb, params in expected.items():
            signature = inspect.signature(getattr(Engine, verb))
            assert list(signature.parameters) == params, verb

    def test_every_verb_defaults_options_to_none(self):
        for verb in ("compile", "transform", "execute", "transform_stream",
                     "transform_many", "explain"):
            signature = inspect.signature(getattr(Engine, verb))
            assert signature.parameters["options"].default is None, verb


class TestOptionsSurface:
    def test_fields_and_defaults(self):
        opts = TransformOptions()
        assert opts.deadline is None
        assert opts.batch_size is None
        assert opts.chunk_chars == 8192
        assert opts.rewrite_options is None
        assert opts.optimizer_level is None
        assert opts.strategy is None
        assert opts.decorrelate is True

    def test_field_order_is_stable(self):
        # positional construction is allowed; the order is part of the API
        names = [f for f in TransformOptions.__dataclass_fields__]
        assert names == ["deadline", "batch_size",
                         "chunk_chars", "rewrite_options",
                         "optimizer_level", "strategy", "decorrelate"]

    def test_choice_fields_validate_at_construction(self):
        with pytest.raises(ValueError, match="invalid optimizer_level"):
            TransformOptions(optimizer_level="costly")
        with pytest.raises(ValueError, match="'sql-rewrite', 'functional'"):
            TransformOptions(strategy="sql")
        with pytest.raises(ValueError, match="invalid decorrelate"):
            TransformOptions(decorrelate="yes")

    def test_choice_fields_accept_enums_as_plain_strings(self):
        opts = TransformOptions(optimizer_level=OptimizerLevel.COST,
                                strategy=Strategy.SQL)
        # enum members collapse to their plain string value, so cache
        # keys and reprs never carry "OptimizerLevel.COST"
        assert opts.optimizer_level == "cost"
        assert type(opts.optimizer_level) is str
        assert opts.strategy == "sql-rewrite"
        assert type(opts.strategy) is str

    def test_strategy_decides_whether_to_rewrite(self):
        assert TransformOptions(strategy="functional").effective_rewrite() \
            is False
        assert TransformOptions(strategy="sql-rewrite").effective_rewrite() \
            is True
        assert TransformOptions().effective_rewrite() is True
        assert [choice.value for choice in Strategy] == [
            "sql-rewrite", "functional"]
        assert [level.value for level in OptimizerLevel] == ["off", "cost"]

    def test_cache_key_carries_compile_relevant_fields(self):
        key = TransformOptions(optimizer_level="cost",
                               decorrelate=False).cache_key()
        assert key.startswith("rw=1;opt=cost;dcr=off;")
        assert TransformOptions().cache_key().startswith(
            "rw=1;opt=cost;dcr=auto;"
        )


class TestLegacyEntryPointsAcceptOptions:
    """Every function-style and serving door takes the same
    ``options=`` object, and nothing beside it."""

    def test_signatures_accept_options(self):
        from repro.core.transform import compile_transform, xml_transform
        from repro.serve.service import TransformService

        for fn in (xml_transform, compile_transform,
                   TransformService.transform,
                   TransformService.submit, TransformService.transform_on,
                   TransformService.transform_stream):
            assert "options" in inspect.signature(fn).parameters, fn
        assert list(inspect.signature(xml_transform).parameters) == [
            "db", "source", "stylesheet", "options", "params", "tracer",
            "metrics",
        ]

    def test_the_run_doors_take_the_options_whole(self):
        """No per-option keyword (``profile_plan=``, ``batch_size=``,
        ``chunk_chars=``): a door cannot drop an option
        it is never handed separately."""
        from repro.core.transform import (
            execute_compiled, execute_compiled_stream,
        )

        for door in (execute_compiled, execute_compiled_stream):
            assert list(inspect.signature(door).parameters) == [
                "db", "source", "compiled", "options", "params", "tracer",
                "metrics", "root", "deadline", "started",
            ], door


class TestExplainSurface:
    def test_one_explain_door_per_class(self):
        from repro.core.pipeline import XsltRewriter
        from repro.core.transform import TransformResult
        from repro.rdb import Database
        from repro.rdb.plan import Query
        from repro.serve import ServeResult

        for cls in (Engine, Database, Query, TransformResult, ServeResult):
            doors = [name for name in dir(cls) if "explain" in name]
            assert doors == ["explain"], cls
        assert not hasattr(XsltRewriter, "compile")
        assert list(inspect.signature(
            TransformResult.explain).parameters) == ["self",
                                                     "include_decisions"]
        assert list(inspect.signature(
            ServeResult.explain).parameters) == ["self",
                                                 "include_decisions"]


class TestServingSurface:
    """One serving class: the thread/process choice is an argument."""

    def test_serve_exports_one_service(self):
        import repro.serve

        assert "TransformService" in repro.serve.__all__
        assert not [name for name in repro.serve.__all__
                    if name in ("ClusterService", "ClusterResult")]

    def test_no_ops_plane_exporters_or_load_generator(self):
        """The library is XMLTransform() and its serving tier: no HTTP
        server, metrics exporters, log formatter or load generator."""
        import repro.obs
        import repro.serve

        assert not [name for name in repro.obs.__all__ if name in (
            "OpsServer", "start_ops_server", "prometheus_text",
            "write_prometheus", "metrics_to_jsonl", "spans_to_jsonl",
            "JsonLogFormatter", "JsonLogHandler", "configure_json_logging")]
        assert not [name for name in repro.serve.__all__ if name in (
            "run_load", "run_soak", "LoadReport", "SoakReport", "WorkItem",
            "EVICT_TTL")]

    @pytest.mark.parametrize("knob", ["ops_port", "cache_ttl_seconds",
                                      "trace_requests"])
    def test_no_ops_port_or_plan_ttl_knob(self, knob):
        from repro.serve import TransformService

        with pytest.raises(TypeError):
            TransformService(**{knob: 0})

    @pytest.mark.parametrize("attribute", ["ops", "ready"])
    def test_health_is_the_one_probe(self, attribute):
        from repro.serve import TransformService

        assert hasattr(TransformService, "health")
        assert not hasattr(TransformService, attribute)

    def test_constructor_signature(self):
        from repro.serve import TransformService

        params = list(inspect.signature(TransformService.__init__).parameters)
        assert params == [
            "self", "db", "workers", "backend", "sources", "queue_size",
            "cache", "cache_capacity", "artifact_dir", "default_timeout",
            "metrics", "tracer", "recorder", "factory",
            "start_method",
        ]

    def test_request_verbs_take_options_not_loose_kwargs(self):
        from repro.serve import TransformService

        for verb in ("submit", "transform"):
            params = list(inspect.signature(
                getattr(TransformService, verb)).parameters)
            assert params == ["self", "source", "stylesheet", "options",
                              "params"]

    def test_no_verb_takes_a_traceparent(self):
        """A request joins an upstream trace through the ambient context
        (``use_trace_context``), not through a header argument."""
        from repro.serve import TransformService

        for verb in ("submit", "transform", "transform_on",
                     "transform_stream"):
            params = inspect.signature(
                getattr(TransformService, verb)).parameters
            assert "traceparent" not in params, verb

    def test_result_fields(self):
        """A view of the run: every fact is the one record's, none is
        the result's own copy."""
        from repro.core.transform import Execution
        from repro.serve import ServeResult

        assert ServeResult.__slots__ == ()
        for field in ("rows", "run", "strategy", "cache_tier", "cache_hit",
                      "fallback_category", "queue_wait_seconds",
                      "execute_seconds", "total_seconds", "trace",
                      "trace_id", "worker", "stats_version"):
            assert hasattr(ServeResult, field), field
        assert set(Execution.__slots__) >= {
            "cache_tier", "queue_wait_seconds", "execute_seconds",
            "total_seconds", "worker", "stats_version",
        }


class TestObsCensus:
    """What nothing outside the tests used is gone from ``repro.obs``:
    the decision ledger exports (``to_dict`` / ``to_json``) but reads
    nothing back, and a gauge is set, never stepped."""

    def test_no_ledger_read_back_or_diff(self):
        import repro.obs
        from repro.obs.decisions import Decision, DecisionLedger, Provenance

        assert "diff_ledgers" not in repro.obs.__all__
        assert not hasattr(repro.obs.decisions, "diff_ledgers")
        assert not [name for name in ("from_dict", "from_json")
                    if hasattr(DecisionLedger, name)]
        assert not hasattr(Decision, "from_dict")
        assert not hasattr(Decision, "key")
        assert not hasattr(Provenance, "from_dict")
        assert hasattr(DecisionLedger, "to_json")

    def test_a_gauge_is_only_set(self):
        from repro.obs.metrics import Gauge

        assert not [name for name in ("inc", "dec") if hasattr(Gauge, name)]


class TestTraceSurface:
    """One carrier of trace identity: the ambient context."""

    GONE = ("activate_trace_context", "deactivate_trace_context",
            "format_traceparent", "parse_traceparent")

    def test_the_string_interop_is_not_exported(self):
        import repro.obs
        import repro.obs.trace

        assert not [name for name in repro.obs.__all__ if name in self.GONE]
        assert not [name for name in self.GONE
                    if hasattr(repro.obs.trace, name)]

    def test_a_tracer_keeps_no_per_thread_state(self):
        import threading

        from repro.obs import Tracer

        tracer = Tracer()
        assert not [value for value in vars(tracer).values()
                    if isinstance(value, threading.local)]

    def test_no_source_mentions_a_traceparent(self):
        from pathlib import Path

        root = Path(repro.__file__).parent
        assert not [path for path in root.rglob("*.py")
                    if "traceparent" in path.read_text()
                    or "activate_trace_context" in path.read_text()]


class TestVmSurface:
    """The VM's settings: a trace recorder and the §4.3 ``explore`` stance
    (which *is* "predicates assumed true" — there is no rewriter hook)."""

    def test_constructor_signature(self):
        from repro.xslt import XsltVM

        assert list(inspect.signature(XsltVM.__init__).parameters) == [
            "self", "stylesheet", "trace", "explore"]

    def test_xquery_to_text_takes_the_node_only(self):
        from repro.xquery import xquery_to_text

        assert list(inspect.signature(xquery_to_text).parameters) == ["node"]
