"""The seven workloads of the benchmark of record.

Each workload is measured from outside, through ``repro``'s public
functions only.  The interface :mod:`harness` drives:

``setup()``/``close()``
    build databases, load corpora, compile prepared plans, compute
    references, start services — and tear them down again;
``round(rng, caller)``
    one pass over the request classes in a seed-shuffled order, as
    ``(class, payload)`` pairs;
``prepare(cls, payload, caller)`` → ctx, ``op(cls, ctx)`` → output,
``check(cls, ctx, output)`` → bool
    one request: untimed preparation, the timed front-door call, the
    untimed comparison against the reference;
``staged(cls, ctx, log)``, ``observe(...)``, ``quiet_op``
    the traced run: the same request driven stage by stage through the
    public functions of each layer, one span per call; per-request
    counts read off the result; the front door with the program's own
    tracer disabled.

Sizes are the ones ``BENCHMARK.json`` records with each workload's reason.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import sys
import time

from repro import Database, Engine, TransformResult
from repro.core.partial_eval import partially_evaluate
from repro.core.sql_rewrite import SqlRewriter
from repro.core.xquery_gen import generate_xquery
from repro.errors import ReproError
from repro.obs import Tracer
from repro.rdb import ExecutionStats
from repro.rdb.infer import infer_view_structure
from repro.rdb.storage import ObjectRelationalStorage
from repro.rdb.treestorage import TreeStorage
from repro.schema import schema_from_dtd
from repro.xmlmodel import parse_document, serialize
from repro.xquery.serializer import xquery_to_text
from repro.xslt.stylesheet import compile_stylesheet
from repro.xslt.vm import XsltVM
from repro.xsltmark import ALL_CASES, get_case
from repro.xsltmark import generator
from repro.xsltmark.runner import prepare_case

SQL = "sql-rewrite"
FUNCTIONAL = "functional"
#: the paper's Figure 2 and Figure 3 cases
FIGURE_CASES = ("dbonerow", "avts", "metric", "chart", "total")


class Output:
    """What one front-door call returned."""

    __slots__ = ("strategy", "rows", "result")

    def __init__(self, strategy, rows, result=None):
        self.strategy = strategy
        self.rows = rows
        self.result = result


def _render(rows, strategy):
    """Row items as markup, through the result type's own renderer."""
    return TransformResult(rows, strategy, None).serialized_rows()


def _render_plan_rows(rows):
    """Output rows of a rewritten plan (first column = the XML value)."""
    items = []
    for row in rows:
        value = row[0]
        items.append([] if value is None
                     else value if isinstance(value, list) else [value])
    return _render(items, SQL)


def vm_reference(storage, stylesheet_text):
    """The oracle: the XSLT VM — an independent interpreter — over each
    materialized document."""
    vm = XsltVM(compile_stylesheet(stylesheet_text))
    return _render(
        [list(vm.transform_document(storage.materialize(doc_id)).children)
         for doc_id in storage.document_ids()],
        FUNCTIONAL,
    )


def digest(rows):
    return hashlib.sha256("\x00".join(rows).encode("utf-8")).hexdigest()


def db_storage(schema):
    """A fresh, empty object-relational store for db-family documents."""
    return ObjectRelationalStorage(Database(), schema, "bm",
                                   column_types=generator.DB_COLUMN_TYPES)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


class Workload:
    name = None
    callers = 1
    #: traced rounds per caller at the contract's window length
    trace_rounds = 30
    #: the per-layer metric that receives what the stages do not explain
    overhead_metric = None
    staged = None
    quiet_op = None

    def __init__(self, seed, expected, scratch):
        self.seed = seed
        self.expected = expected
        self.scratch = scratch
        self.reported_failures = set()

    def setup(self):
        raise NotImplementedError

    def close(self):
        pass

    def worker_pids(self):
        return ()

    def prepare(self, cls, payload, caller):
        return payload

    def observe(self, cls, ctx, output, log, root):
        return True

    def finish_trace(self):
        return {}

    def same(self, output, staged):
        return (staged.strategy == output.strategy
                and staged.rows == output.rows)

    def mismatch(self, cls, what):
        if cls not in self.reported_failures:
            self.reported_failures.add(cls)
            sys.stderr.write("bench: %s/%s: %s\n" % (self.name, cls, what))
        return False


# -- the in-process transform workloads ----------------------------------------------


class Target:
    """One request class of an Engine workload: where it runs, what it
    runs, and what must come out."""

    __slots__ = ("db", "storage", "engine", "quiet_engine", "text",
                 "compiled", "reference", "strategy")

    def __init__(self, db, storage, text, reference, strategy,
                 prepared=True, options=None):
        self.db = db
        self.storage = storage
        self.engine = Engine(db)
        self.quiet_engine = Engine(db, tracer=Tracer(enabled=False))
        self.text = text
        #: None = the request carries stylesheet text and compiles cold
        self.compiled = (self.engine.compile(storage, text, options=options)
                         if prepared else None)
        self.reference = reference
        self.strategy = strategy


def _front_door(engine, target):
    if target.compiled is None:
        result = engine.transform(target.storage, target.text)
    else:
        result = engine.execute(target.storage, target.compiled)
    return Output(result.strategy, result.serialized_rows(), result)


class EngineWorkload(Workload):
    """Requests through ``Engine.execute`` (prepared) or
    ``Engine.transform`` (cold), one :class:`Target` per class."""

    overhead_metric = "core.transform.overhead_ms"

    def __init__(self, *args):
        super().__init__(*args)
        self.targets = {}

    def close(self):
        self.targets = {}

    def round(self, rng, caller):
        return [(cls, self.targets[cls])
                for cls in _shuffled(rng, sorted(self.targets))]

    def op(self, cls, target):
        return _front_door(target.engine, target)

    def quiet_op(self, cls, target):
        return _front_door(target.quiet_engine, target)

    def check(self, cls, target, output):
        if output.strategy != target.strategy:
            return self.mismatch(cls, "ran %s, expected %s"
                                 % (output.strategy, target.strategy))
        if output.rows != target.reference:
            return self.mismatch(cls, "output differs from the reference")
        return True

    def observe(self, cls, target, output, log, root):
        log.count("core.transform.rewrite_share", output.strategy == SQL)
        log.value("xmlmodel.serializer.output_bytes",
                  sum(len(row) for row in output.rows))
        if target.compiled is None or not target.compiled.is_rewritten:
            return True
        # the streaming twin of the same plan: not a stage of this
        # request, so measured beside it
        pieces = []
        first = []

        def drain():
            start = time.perf_counter()
            for piece in target.compiled.query.stream_pieces(target.db):
                if not pieces:
                    first.append(time.perf_counter() - start)
                pieces.append(piece)

        log.call("rdb.sqlxml.stream_ms", drain)
        log.value("rdb.sqlxml.first_piece_ms", first[0] * 1000.0)
        log.value("rdb.sqlxml.peak_buffered_bytes", max(map(len, pieces)))
        if "".join(pieces) != "".join(output.rows):
            return self.mismatch(cls, "streamed output differs")
        return True

    def staged(self, cls, target, log):
        compiled = target.compiled
        query = sheet = None
        if compiled is None:
            sheet = log.call("xslt.stylesheet.compile_ms",
                             compile_stylesheet, target.text)
            query = self._staged_rewrite(target, sheet, log)
        elif compiled.is_rewritten:
            query = compiled.query
        else:
            sheet = compiled.stylesheet
        if query is None:
            return self._staged_functional(target, sheet, log)
        stats = ExecutionStats()
        rows, _ = log.call("rdb.plan.execute_ms", query.execute, target.db,
                           None, stats)
        out = log.call("xmlmodel.serializer.serialize_ms",
                       _render_plan_rows, rows)
        for field in ("rows_scanned", "index_probes", "btree_node_visits",
                      "hash_probes", "xml_elements"):
            log.count("rdb.plan." + field, getattr(stats, field))
        log.value("rdb.plan.rows_scanned_per_output_row",
                  stats.rows_scanned / max(stats.output_rows, 1))
        return Output(SQL, out)

    @staticmethod
    def _staged_rewrite(target, sheet, log):
        """The compile half of the rewrite, one public call per stage;
        None where the program would fall back."""
        if not isinstance(target.storage, ObjectRelationalStorage):
            return None
        try:
            view = log.call("rdb.storage.view_query_ms",
                            target.storage.make_view_query)
            structure = log.call("rdb.infer.structure_ms",
                                 infer_view_structure, view)
            partial = log.call("core.partial_eval.ms", partially_evaluate,
                               sheet, structure.schema)
            log.count("core.partial_eval.templates_pruned",
                      len(partial.pruned_templates()))
            module = log.call("core.xquery_gen.ms", generate_xquery, partial)
            log.count("core.xquery_gen.query_chars",
                      len(xquery_to_text(module)))
            merged = log.call(
                "core.sql_rewrite.ms",
                lambda: SqlRewriter(view, structure).rewrite_module(module))
            log.count("core.sql_rewrite.plan_nodes",
                      len(str(merged.explain()).splitlines()))
            return log.call("rdb.planner.optimize_ms", target.db.optimize,
                            merged)
        except ReproError:
            return None

    @staticmethod
    def _staged_functional(target, sheet, log):
        rows = []
        for doc_id in target.storage.document_ids():
            document = log.call("rdb.storage.materialize_ms",
                                target.storage.materialize, doc_id)
            result = log.call(
                "xslt.vm.transform_ms",
                lambda: XsltVM(sheet).transform_document(document))
            rows.append(list(result.children))
        out = log.call("xmlmodel.serializer.serialize_ms", _render, rows,
                       FUNCTIONAL)
        return Output(FUNCTIONAL, out)


class PointLookup(EngineWorkload):
    """Paper Figure 2: one index probe, 30 bytes out."""

    name = "point_lookup"
    trace_rounds = 100
    rows = 4000
    variants = 16

    def setup(self):
        case = get_case("dbonerow")
        if "id = 37" not in case.stylesheet:
            raise RuntimeError("dbonerow no longer selects id = 37")
        prepared = prepare_case(case, self.rows)
        ids = random.Random(self.seed).sample(range(1, self.rows + 1),
                                              self.variants)
        document = prepared.storage.materialize(
            prepared.storage.document_ids()[0])
        for row_id in ids:
            text = case.stylesheet.replace("id = 37", "id = %d" % row_id)
            vm = XsltVM(compile_stylesheet(text))
            reference = _render(
                [list(vm.transform_document(document).children)], FUNCTIONAL)
            self.targets["id=%04d" % row_id] = Target(
                prepared.db, prepared.storage, text, reference, SQL)

    # sixteen variants of one stylesheet are one request class
    def round(self, rng, caller):
        return [("lookup", self.targets[key])
                for key in _shuffled(rng, sorted(self.targets))]


class ScanConstruct(EngineWorkload):
    """Paper Figure 3: construction-bound and aggregation-bound scans."""

    name = "scan_construct"
    trace_rounds = 24
    rows = 500
    cases = ("avts", "metric", "chart", "total")

    def setup(self):
        for name in self.cases:
            case = get_case(name)
            prepared = prepare_case(case, self.rows)
            self.targets[name] = Target(
                prepared.db, prepared.storage, case.stylesheet,
                vm_reference(prepared.storage, case.stylesheet), SQL)


class ColdCompile(EngineWorkload):
    """All forty stylesheets as text, no plan cache, tiny documents."""

    name = "cold_compile"
    trace_rounds = 24
    rows = 10

    def setup(self):
        for case in ALL_CASES:
            prepared = prepare_case(case, self.rows)
            self.targets[case.name] = Target(
                prepared.db, prepared.storage, case.stylesheet,
                vm_reference(prepared.storage, case.stylesheet),
                self.expected["strategy"][case.name], prepared=False)


class FunctionalVm(EngineWorkload):
    """The no-rewrite path: the cases the engine answers functionally
    (negative-cached artifact), plus the figure cases forced functional —
    the paper's baseline."""

    name = "functional_vm"
    trace_rounds = 16
    rows = 50
    figure_rows = 150

    def setup(self):
        digests = self.expected["functional_vm_sha256"]
        for case in ALL_CASES:
            if self.expected["strategy"][case.name] == FUNCTIONAL:
                prepared = prepare_case(case, self.rows)
                self._add(case.name, prepared, case, None)
        for name in FIGURE_CASES:
            case = get_case(name)
            prepared = prepare_case(case, self.figure_rows)
            self._add("fig." + name, prepared, case,
                      {"strategy": FUNCTIONAL})
            # the committed digest is cross-checked once against the
            # rewrite path
            rewritten = Engine(prepared.db).transform(prepared.storage,
                                                      case.stylesheet)
            if (rewritten.strategy != SQL
                    or digest(rewritten.serialized_rows())
                    != digests["fig." + name]):
                raise RuntimeError(
                    "fig.%s: the rewrite path disagrees with the committed "
                    "functional digest" % name)

    def _add(self, cls, prepared, case, options):
        self.targets[cls] = Target(
            prepared.db, prepared.storage, case.stylesheet,
            self.expected["functional_vm_sha256"][cls], FUNCTIONAL,
            options=options)

    def check(self, cls, target, output):
        if output.strategy != FUNCTIONAL:
            return self.mismatch(cls, "ran %s, expected functional"
                                 % output.strategy)
        if digest(output.rows) != target.reference:
            return self.mismatch(
                cls, "sha256 %s, expected %s"
                % (digest(output.rows), target.reference))
        return True


# -- ingest --------------------------------------------------------------------------


class Ingest(Workload):
    """Writes beside reads: one ~17 KB db-family document into a fresh
    store, four ways."""

    name = "ingest"
    trace_rounds = 14
    #: eight sizes, visited in a seed-shuffled cycle, so every seed loads
    #: the same mix
    sizes = tuple(range(72, 129, 8))
    classes = ("or.load", "or.load_stream", "tree.load", "tree.load_stream")

    def setup(self):
        self.schema = schema_from_dtd(generator.DB_DTD)
        self.documents = []
        for rows in self.sizes:
            text = serialize(generator.make_db_document(rows))
            reference = {}
            for kind in ("or", "tree"):
                storage = self._fresh(kind)
                self._load(kind + ".load", storage, text)
                reference[kind] = (self._row_count(storage),
                                   storage.fingerprint())
            self.documents.append((rows, text, reference))
        self._cycle = []

    def close(self):
        self.documents = []

    def _fresh(self, kind):
        if kind == "or":
            return db_storage(self.schema)
        return TreeStorage(Database(), "bm")

    @staticmethod
    def _load(cls, storage, text):
        if cls.endswith(".load"):
            storage.load(parse_document(text))
        else:
            storage.load_stream(text)
        if cls.startswith("or."):
            storage.create_value_index("id")

    @staticmethod
    def _row_count(storage):
        return sum(len(storage.db.table(name))
                   for name in storage.db.table_names())

    def round(self, rng, caller):
        if not self._cycle:
            self._cycle = _shuffled(rng, self.documents)
        document = self._cycle.pop()
        return [(cls, document) for cls in _shuffled(rng, self.classes)]

    def prepare(self, cls, document, caller):
        return self._fresh(cls.split(".")[0]), document

    def op(self, cls, ctx):
        storage, (_, text, _) = ctx
        self._load(cls, storage, text)
        return Output(None, None, storage)

    def _roundtrip(self, storage):
        return serialize(storage.materialize(storage.document_ids()[0]))

    def check(self, cls, ctx, output):
        storage, (_, text, reference) = ctx
        rows, fingerprint = reference[cls.split(".")[0]]
        if self._roundtrip(storage) != text:
            return self.mismatch(cls, "stored document differs from input")
        if self._row_count(storage) != rows:
            return self.mismatch(cls, "row count differs from its twin")
        if storage.fingerprint() != fingerprint:
            return self.mismatch(cls, "fingerprint differs from its twin")
        return True

    def same(self, output, staged):
        return (self._roundtrip(staged.result)
                == self._roundtrip(output.result))

    def staged(self, cls, ctx, log):
        storage, (_, text, _) = ctx
        layer = ("rdb.storage." if cls.startswith("or.")
                 else "rdb.treestorage.")
        if cls.endswith(".load"):
            document = log.call("xmlmodel.parser.parse_ms", parse_document,
                                text)
            log.value("xmlmodel.parser.mb_s",
                      len(text) / 1e6 / (log.last_ms() / 1000.0))
            log.call(layer + "load_ms", storage.load, document)
        else:
            stats = ExecutionStats()
            log.call(layer + "load_stream_ms",
                     lambda: storage.load_stream(text, stats=stats))
            log.value("xmlmodel.stream_ingest.peak_buffered_bytes",
                      stats.peak_ingest_buffered_bytes)
        if cls.startswith("or."):
            log.call("rdb.storage.index_build_ms",
                     storage.create_value_index, "id")
            log.value("rdb.storage.rows_inserted", self._row_count(storage))
        return Output(None, None, storage)

    def observe(self, cls, ctx, output, log, root):
        if not cls.startswith("tree."):
            return True
        # the read side of the structural index the load just maintained
        storage, (rows, _, _) = ctx
        found, _ = log.call("rdb.structindex.join_ms", storage.db.execute,
                            storage.descendant_query("table", "id"))
        if len(found) != rows:
            return self.mismatch(cls, "//table//id found %d pairs, not %d"
                                 % (len(found), rows))
        return True


# -- serving -------------------------------------------------------------------------

_BLANKS = " \n\t"


def _blank_suffix(number):
    """Trailing whitespace spelling ``number`` in base 3: legal after the
    document element, and a distinct content hash per number."""
    suffix = "\n"
    while number:
        number, digit = divmod(number, 3)
        suffix += _BLANKS[digit]
    return suffix


class ServeThreads(Workload):
    """``Engine(db).serve()``: admission queue, plan cache, per-request
    tracing and recorder; no transport."""

    name = "serve_threads"
    callers = 2
    trace_rounds = 20
    rows = 200
    workers = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.service = None
        self.hot = {}
        self._cold_ids = [0] * self.callers

    def _start(self, db, storage):
        self.source = storage
        return Engine(db).serve(workers=self.workers)

    def setup(self):
        hot_cases = [
            case for case in ALL_CASES
            if case.dtd == generator.DB_DTD
            and self.expected["strategy"][case.name] == SQL
        ]
        storage = db_storage(schema_from_dtd(generator.DB_DTD))
        storage.load(generator.make_db_document(self.rows))
        for element in sorted({element for case in hot_cases
                               for element in case.indexed_elements}):
            storage.create_value_index(element)
        self.hot = {
            case.name: (case.stylesheet,
                        vm_reference(storage, case.stylesheet))
            for case in hot_cases
        }
        self.service = self._start(storage.db, storage)
        self._fill_cache()

    def _fill_cache(self):
        for text, _ in self.hot.values():
            self.service.transform(self.source, text)

    def close(self):
        if self.service is not None:
            self.service.close()
            self.service = None

    def round(self, rng, caller):
        """The hot set, one of them again, and one never-seen variant: one
        request in sixteen compiles cold."""
        names = sorted(self.hot)
        again = rng.choice(names)
        requests = [(name, name) for name in names]
        requests += [(again, again), ("cold", rng.choice(names))]
        return _shuffled(rng, requests)

    def prepare(self, cls, name, caller):
        text, reference = self.hot[name]
        if cls == "cold":
            self._cold_ids[caller] += 1
            text += _blank_suffix(self._cold_ids[caller] * self.callers
                                  + caller)
        return text, reference

    def op(self, cls, ctx):
        result = self.service.transform(self.source, ctx[0])
        return Output(result.strategy, result.serialized_rows(), result)

    def check(self, cls, ctx, output):
        if output.strategy != SQL:
            return self.mismatch(cls, "ran %s, expected sql-rewrite"
                                 % output.strategy)
        if output.rows != ctx[1]:
            return self.mismatch(cls, "output differs from the reference")
        return True

    def observe(self, cls, ctx, output, log, root):
        result = output.result
        start, end = log.spans[root][1], log.spans[root][2]
        latency = end - start
        queue, execute = result.queue_wait_seconds, result.execute_seconds
        log.span("serve.queue_wait_ms", start, start + queue, root)
        log.span("serve.execute_ms", start + queue, start + queue + execute,
                 root)
        log.value("bench.stage_sum_ms", (queue + execute) * 1000.0)
        log.value("serve.overhead_ms", (latency - execute) * 1000.0)
        log.value("serve.cache.hit_latency_ms" if result.cache_hit
                  else "serve.cache.miss_latency_ms", latency * 1000.0)
        log.count("serve.cache.hit_ratio", bool(result.cache_hit))
        log.count("core.transform.rewrite_share", output.strategy == SQL)
        self._observe_tier(result, latency, log)
        return True

    def _observe_tier(self, result, latency, log):
        pass

    def _cache_stats(self):
        return [self.service.stats()]

    def finish_trace(self):
        """Evictions per cache lookup over the service's life, and the
        admission queue's rejections."""
        caches = self._cache_stats()
        lookups = sum(cache["hits"] + cache["misses"] for cache in caches)
        evictions = sum(sum(cache["evictions"].values()) for cache in caches)
        return {
            "serve.cache.evictions": evictions / lookups,
            "serve.rejected": float(self.service.health()["rejected"]),
        }


class ServeProcs(ServeThreads):
    """The identical request stream through ``Engine(db, workers=2)
    .serve(sources=...)``: adds pickle-over-pipe transport, dispatcher
    threads and the disk artifact tier."""

    name = "serve_procs"
    trace_rounds = 30

    def _start(self, db, storage):
        self.source = "doc"
        self.artifacts = os.path.join(self.scratch,
                                      "artifacts-%d" % os.getpid())
        return Engine(db, workers=self.workers).serve(
            sources={"doc": storage}, artifact_dir=self.artifacts)

    def _fill_cache(self):
        # every worker holds every hot plan in its own tier, so a hot
        # request is a tier-1 hit whichever worker takes it
        for worker in range(self.workers):
            for text, _ in self.hot.values():
                self.service.transform_on(worker, self.source, text)

    def close(self):
        if self.service is not None:
            super().close()
            shutil.rmtree(self.artifacts, ignore_errors=True)

    def worker_pids(self):
        return [reply["pid"] for reply in self.service.ping()]

    def _observe_tier(self, result, latency, log):
        log.value("serve.transport_ms",
                  (latency - result.queue_wait_seconds
                   - result.execute_seconds) * 1000.0)
        log.count("serve.artifact.disk_hits", result.cache_tier == "l2")

    def _cache_stats(self):
        return [worker["cache"] for worker in self.service.worker_stats()]


WORKLOADS = {
    workload.name: workload
    for workload in (PointLookup, ScanConstruct, ColdCompile, FunctionalVm,
                     Ingest, ServeThreads, ServeProcs)
}
