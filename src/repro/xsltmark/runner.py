"""Benchmark case runner.

``prepare_case`` loads one case's synthetic document into a fresh database
with object-relational storage and value indexes; ``run_case`` then executes
it with and without XSLT rewrite, times both, checks the outputs agree, and
records the rewrite classification:

* ``inline`` — fully inlined XQuery, no functions (the paper's headline
  23/40 statistic counts these);
* ``non-inline`` — recursion forced the §4.4 function mode;
* ``fallback`` — the stylesheet (or document structure) could not be
  partially evaluated; functional evaluation is used.

SQL-merge success is tracked separately: a case can compile to inline
XQuery whose SQL merge is unsupported (it still runs functionally).
"""

from __future__ import annotations

import time

from repro.api import TransformOptions
from repro.errors import ReproError, RewriteError, SchemaError
from repro.rdb.database import Database
from repro.rdb.storage import ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.xslt.stylesheet import compile_stylesheet
from repro.core.partial_eval import partially_evaluate
from repro.core.sql_rewrite import SqlRewriter
from repro.core.transform import xml_transform
from repro.core.xquery_gen import generate_xquery

CLASS_INLINE = "inline"
CLASS_NON_INLINE = "non-inline"
CLASS_FALLBACK = "fallback"


class PreparedCase:
    """A case loaded into storage, with its compiled artefacts."""

    def __init__(self, case, size, db, storage, stylesheet):
        self.case = case
        self.size = size
        self.db = db
        self.storage = storage
        self.stylesheet = stylesheet


class CaseRun:
    """The measured outcome of one case at one size."""

    def __init__(self, case, size, classification, sql_merged,
                 rewrite_seconds, functional_seconds, outputs_equal,
                 rewrite_stats, functional_stats, strategy):
        self.case = case
        self.size = size
        self.classification = classification
        self.sql_merged = sql_merged
        self.rewrite_seconds = rewrite_seconds
        self.functional_seconds = functional_seconds
        self.outputs_equal = outputs_equal
        self.rewrite_stats = rewrite_stats
        self.functional_stats = functional_stats
        self.strategy = strategy

    @property
    def speedup(self):
        if self.rewrite_seconds <= 0:
            return float("inf")
        return self.functional_seconds / self.rewrite_seconds

    def __repr__(self):
        return (
            "<CaseRun %s size=%d class=%s rewrite=%.4fs functional=%.4fs>"
            % (
                self.case.name, self.size, self.classification,
                self.rewrite_seconds, self.functional_seconds,
            )
        )


def prepare_case(case, size):
    """Build the database and storage for one case at one document size."""
    db = Database()
    document = case.make_document(size)
    schema = schema_from_dtd(case.dtd) if case.dtd.strip() else None
    stylesheet = compile_stylesheet(case.stylesheet)
    storage = None
    if schema is not None:
        try:
            storage = ObjectRelationalStorage(
                db, schema, "bm", column_types=case.column_types
            )
            storage.load(document)
            for element_name in case.indexed_elements:
                storage.create_value_index(element_name)
        except SchemaError:
            storage = None  # recursive/mixed structure: CLOB-style fallback
    if storage is None:
        from repro.rdb.storage import ClobStorage

        storage = ClobStorage(db, "bm")
        storage.load(document)
    return PreparedCase(case, size, db, storage, stylesheet)


def classify_case(case):
    """Compile-time classification of one case (no execution)."""
    stylesheet = compile_stylesheet(case.stylesheet)
    if not case.dtd.strip():
        return CLASS_INLINE, True  # built-in only: Table 21 compact query
    db = Database()
    try:
        storage = ObjectRelationalStorage(
            db, schema_from_dtd(case.dtd), "cl",
            column_types=case.column_types,
        )
    except SchemaError:
        return CLASS_FALLBACK, False
    context = storage.compile_context
    try:
        structure = context.rooted()
        partial = partially_evaluate(stylesheet, context)
        module = generate_xquery(partial)
    except ReproError:
        return CLASS_FALLBACK, False
    classification = CLASS_INLINE if not module.functions else CLASS_NON_INLINE
    try:
        SqlRewriter(context.view_query, structure).rewrite_module(module)
        sql_merged = True
    except RewriteError:
        sql_merged = False
    return classification, sql_merged


def run_case(case, size, repeat=1):
    """Execute one case at one size with both strategies."""
    prepared = prepare_case(case, size)
    classification, sql_merged = classify_case(case)

    rewrite_seconds, rewrite_result = _timed(
        prepared, "sql-rewrite", repeat=repeat
    )
    functional_seconds, functional_result = _timed(
        prepared, "functional", repeat=repeat
    )

    outputs_equal = (
        rewrite_result.serialized_rows() == functional_result.serialized_rows()
    )
    return CaseRun(
        case, size, classification, sql_merged,
        rewrite_seconds, functional_seconds, outputs_equal,
        rewrite_result.stats, functional_result.stats,
        rewrite_result.strategy,
    )


def _timed(prepared, strategy, repeat):
    result = None
    options = TransformOptions(strategy=strategy)
    start = time.perf_counter()
    for _ in range(repeat):
        result = xml_transform(
            prepared.db, prepared.storage, prepared.stylesheet,
            options=options,
        )
    elapsed = (time.perf_counter() - start) / repeat
    return elapsed, result


def inline_statistics():
    """The paper's §5 statistic: how many of the forty cases compile fully
    inline.  Returns (classification by name, inline count)."""
    from repro.xsltmark.cases import ALL_CASES

    classifications = {}
    for case in ALL_CASES:
        classification, sql_merged = classify_case(case)
        classifications[case.name] = (classification, sql_merged)
    inline_count = sum(
        1 for classification, _ in classifications.values()
        if classification == CLASS_INLINE
    )
    return classifications, inline_count
